(* The four workloads: one frozen campaign spec each
   (workloads/<name>.jsonl, runnable as-is with `rbcast campaign --spec`),
   how the benchmark drives it, and the output it must produce. *)

open Rn_campaign

type runner =
  | In_process  (** [Campaign.run ~domains:1] inside the driver *)
  | Campaign_cli  (** [rbcast campaign --domains 2] *)
  | Dist_cli  (** [rbcast campaign-dist] with its defaults: 2 workers *)

type t = {
  name : string;
  runner : runner;
  setup_reps : int;  (** set-ups per repetition; setup_s is their median *)
  md5 : string;  (** digest of the output at --seed 1 *)
}

let all =
  [
    {
      name = "thm11-layered";
      runner = In_process;
      setup_reps = 5;
      md5 = "d0bce98178d67320eef9dce02ab8827a";
    };
    {
      name = "decay-dense";
      runner = In_process;
      setup_reps = 1;
      md5 = "332066a42319c9a604b362f98140634c";
    };
    {
      name = "sweep-registry";
      runner = Campaign_cli;
      setup_reps = 3;
      md5 = "b28517378ec12c16d7f1ea6c58deb2c0";
    };
    {
      name = "sweep-dist";
      runner = Dist_cli;
      setup_reps = 2;
      md5 = "386e159f37e88375cb85eea8128a7102";
    };
  ]

let find name = List.find_opt (fun w -> String.equal w.name name) all

(* Scheduler lanes: the load a run puts on the machine. *)
let lanes w = match w.runner with In_process -> 1 | Campaign_cli | Dist_cli -> 2

let spec_file ~root ~smoke w =
  Filename.concat root
    (Printf.sprintf "bench/e2e/workloads/%s%s.jsonl"
       (if smoke then "smoke/" else "")
       w.name)

(* The spec for [--seed s]: every run-seed line is shifted by (s - 1)
   times the number of run seeds, so seed 1 is the file itself and each
   seed draws a disjoint block of protocol runs on the same topologies. *)
let seeded text ~seed =
  let run_seeds line =
    match Rn_util.Jsons.parse_obj line with
    | Ok [ ("seeds", Rn_util.Jsons.Ints ss) ] -> Some ss
    | _ -> None
  in
  let lines = String.split_on_char '\n' text in
  let count =
    List.fold_left
      (fun acc l ->
        match run_seeds l with Some ss -> acc + List.length ss | None -> acc)
      0 lines
  in
  let shift = (seed - 1) * count in
  String.concat "\n"
    (List.map
       (fun l ->
         match run_seeds l with
         | Some ss ->
             Rn_util.Jsons.obj
               [
                 ( "seeds",
                   Rn_util.Jsons.int_array (List.map (fun s -> s + shift) ss) );
               ]
         | None -> l)
       lines)

let digest out = Digest.to_hex (Digest.string out)

let lines out =
  match List.rev (String.split_on_char '\n' out) with
  | "" :: rest -> List.rev rest
  | all -> List.rev all

type scan = {
  cells : int;
  bad : int;  (** cells whose line is missing, unsealed, misplaced or undelivered *)
  rounds : int;  (** sum of the protocol rounds of the good lines *)
  transmissions : int;  (** sums of the engine details, where a protocol reports them *)
  deliveries : int;
  collisions : int;
}

(* Check a campaign output (one line per cell, in cell order) against the
   spec: cell [i]'s line must be sealed ([Journal.parse_line]), carry
   index [i] and the cell's job key, and report [delivered=true]. *)
let scan spec out =
  let cells = Spec.cells spec in
  let n = Array.length cells in
  let good = ref 0 and rounds = ref 0 in
  let tx = ref 0 and dl = ref 0 and col = ref 0 in
  let detail fields k =
    match Rn_util.Jsons.str_mem k fields with
    | Some v -> Option.value ~default:0 (int_of_string_opt v)
    | None -> 0
  in
  List.iteri
    (fun i line ->
      match (Journal.parse_line line, Rn_util.Jsons.parse_obj line) with
      | Some (idx, key, r), Ok fields
        when idx = i && i < n
             && String.equal key cells.(i).Spec.key
             && Option.value ~default:false
                  (Rn_util.Jsons.bool_mem "delivered" fields) ->
          incr good;
          rounds := !rounds + r;
          tx := !tx + detail fields "d_transmissions";
          dl := !dl + detail fields "d_deliveries";
          col := !col + detail fields "d_collisions"
      | _ -> ())
    (lines out);
  {
    cells = n;
    bad = n - !good;
    rounds = !rounds;
    transmissions = !tx;
    deliveries = !dl;
    collisions = !col;
  }

(* The --corrupt-output self-test: flip one bit in the first line's job
   key, which both changes the digest and fails that cell's key check. *)
let corrupt out =
  let marker = "\"key\":\"" in
  let m = String.length marker in
  let rec find i =
    if i + m >= String.length out then None
    else if String.equal (String.sub out i m) marker then Some (i + m)
    else find (i + 1)
  in
  match find 0 with
  | None -> out
  | Some at ->
      let b = Bytes.of_string out in
      Bytes.set b at (Char.chr (Char.code (Bytes.get b at) lxor 1));
      Bytes.to_string b
