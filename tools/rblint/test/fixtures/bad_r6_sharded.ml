(* Fixture: R6 in the sharded-engine shape — per-run lane state hoisted to
   the top level of a spawning module.  [Engine_sparse.run] keeps
   [out_act] and the shard cuts inside [run] so every invocation owns
   fresh state; hoisting them makes concurrent runs race through the
   module.  The rounds tally mirrors the sanctioned Atomic pattern and
   must stay clean. *)

let rounds : int Atomic.t = Atomic.make 0

let out_act : int array = Array.make 1024 0

let cuts : int array = Array.make 8 0

let run () =
  let d = Domain.spawn (fun () -> Atomic.incr rounds) in
  out_act.(0) <- 1;
  cuts.(0) <- 0;
  Domain.join d;
  out_act.(0) + cuts.(0)
