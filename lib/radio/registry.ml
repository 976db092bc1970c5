type result = {
  rounds : int;
  delivered : bool;
  details : (string * string) list;
}

type run =
  ?k:int ->
  ?metrics:Rn_obs.Metrics.t ->
  seed:int ->
  graph:Rn_graph.Graph.t ->
  source:int ->
  unit ->
  result

type entry = {
  name : string;
  summary : string;
  multi : bool;
  traceable : bool;
  silence_pure : bool;
  run : run;
}

(* Reverse registration order; [all] re-reverses.  CAS append keeps
   registration thread-safe without a lock (registration happens once per
   process but tests may race [ensure_registered] from domains). *)
let entries : entry list Atomic.t = Atomic.make []

let rec register e =
  let cur = Atomic.get entries in
  if List.exists (fun e' -> String.equal e'.name e.name) cur then
    invalid_arg ("Registry.register: duplicate protocol name " ^ e.name);
  if not (Atomic.compare_and_set entries cur (e :: cur)) then register e

let all () = List.rev (Atomic.get entries)
let find name = List.find_opt (fun e -> String.equal e.name name) (Atomic.get entries)
let names () = List.map (fun e -> e.name) (all ())
