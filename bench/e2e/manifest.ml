(* BENCHMARK.json: the benchmark's contract — workloads, metric names,
   units and regression bounds.  The driver reads it for [--list], for the
   default run length and for the noise check's bounds; the tests check
   that every metric it names is emitted with its unit. *)

type metric = {
  name : string;
  unit : string;
  better : string;  (** "higher" or "lower" *)
  bound : float option;  (** end-to-end metrics only: allowed relative worsening *)
}

type t = {
  run_seconds : int;
  workloads : (string * string) list;  (** name, why *)
  end_to_end : metric list;
  per_layer : metric list;
}

let load ~root =
  let p = Filename.concat root "BENCHMARK.json" in
  match Json.parse (In_channel.with_open_bin p In_channel.input_all) with
  | Error e -> failwith (Printf.sprintf "%s: %s" p e)
  | Ok j ->
      let field k o =
        match Json.str (Json.member k o) with
        | Some s -> s
        | None -> failwith (Printf.sprintf "%s: entry without %S" p k)
      in
      let metric o =
        {
          name = field "name" o;
          unit = field "unit" o;
          better = field "better" o;
          bound = Json.num (Json.member "bound" o);
        }
      in
      {
        run_seconds =
          (match Json.num (Json.member "run_seconds" j) with
          | Some s -> int_of_float s
          | None -> failwith (p ^ ": no run_seconds"));
        workloads =
          List.map
            (fun o -> (field "name" o, field "why" o))
            (Json.list (Json.member "workloads" j));
        end_to_end = List.map metric (Json.list (Json.member "end_to_end" j));
        per_layer = List.map metric (Json.list (Json.member "per_layer" j));
      }
