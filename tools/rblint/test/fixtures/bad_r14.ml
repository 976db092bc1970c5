(* R14 fixture: two protocol-shaped pipelines that drive an engine but are
   never reachable from a Registry.register call — one calls Engine.run
   directly, the other goes through the Drive.run entry point.  The
   callbacks are contract-clean (node-indexed, silence-guarded), so R14
   alone speaks. *)

module Engine = struct
  type reception = Silence | Collision | Received of int

  type protocol = {
    decide : round:int -> node:int -> int;
    deliver : round:int -> node:int -> reception -> unit;
  }

  let run ~protocol ~max_rounds () =
    for round = 0 to max_rounds - 1 do
      for node = 0 to 3 do
        ignore (protocol.decide ~round ~node);
        protocol.deliver ~round ~node Silence
      done
    done
end

let run_pipeline () =
  let state = Array.make 4 0 in
  let protocol =
    {
      Engine.decide = (fun ~round:_ ~node -> state.(node));
      deliver =
        (fun ~round:_ ~node r ->
          match r with
          | Engine.Silence -> ()
          | Engine.Received m -> state.(node) <- m
          | Engine.Collision -> ());
    }
  in
  Engine.run ~protocol ~max_rounds:2 ();
  state

(* A stand-in entry point whose body does not call Engine.run, so only
   Drive's own seeding can mark the pipeline below as engine-driving. *)
module Drive = struct
  let run ~(protocol : Engine.protocol) ~max_rounds () =
    for round = 0 to max_rounds - 1 do
      for node = 0 to 3 do
        ignore (protocol.Engine.decide ~round ~node);
        protocol.Engine.deliver ~round ~node Engine.Silence
      done
    done
end

let run_driven_pipeline () =
  let state = Array.make 4 0 in
  let protocol =
    {
      Engine.decide = (fun ~round:_ ~node -> state.(node));
      deliver =
        (fun ~round:_ ~node r ->
          match r with
          | Engine.Silence -> ()
          | Engine.Received m -> state.(node) <- m
          | Engine.Collision -> ());
    }
  in
  Drive.run ~protocol ~max_rounds:2 ();
  state
