(* The one engine switch.  Process-wide rather than domain-local, so
   every lane of a [Runner.map] started inside [with_engine] runs in the
   same mode; only [run] reads it, once per run. *)
let engine_mode = Atomic.make Engine.Sparse

let with_engine mode f =
  let outer = Atomic.exchange engine_mode mode in
  Fun.protect ~finally:(fun () -> Atomic.set engine_mode outer) f

(* The routing table of drive.mli, in code: only Sparse takes the fast
   paths; Dense runs the full scan. *)
let run ?stats ?metrics ?after_round ?decide_active ?passive ~graph ~detection
    ~protocol ~stop ~max_rounds () =
  match Atomic.get engine_mode with
  | Engine.Dense ->
      Engine.run ?stats ?metrics ?after_round ~graph ~detection ~protocol ~stop
        ~max_rounds ()
  | Engine.Sparse ->
      Engine_sparse.run ?stats ?metrics ?after_round ?decide_active ?passive
        ~graph ~detection ~protocol ~stop ~max_rounds ()

(* Sort and dedupe the ids in place: O(k log k) for k listed ids, with
   no n-sized mark, since a stage lists only the nodes it wakes. *)
let static_active ~n groups =
  let ids = Array.concat groups in
  Array.sort Int.compare ids;
  let count = ref 0 in
  for i = 0 to Array.length ids - 1 do
    let v = ids.(i) in
    if v < 0 || v >= n then invalid_arg "Drive.static_active: bad node id";
    if !count = 0 || ids.(!count - 1) <> v then begin
      ids.(!count) <- v;
      incr count
    end
  done;
  let count = !count in
  if count = n then None
  else
    Some
      (fun ~round:_ dst ->
        Array.blit ids 0 dst 0 count;
        count)
