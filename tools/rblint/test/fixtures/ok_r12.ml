(* R12 clean fixture: every callback write is node-local — indexed through
   the callback's ~node argument, or a shared aggregate made Atomic — so
   each node changes only its own state, as in the radio model, and no
   write needs a named allow. *)

module Engine = struct
  type reception = Silence | Collision | Received of int

  type protocol = {
    decide : round:int -> node:int -> int;
    deliver : round:int -> node:int -> reception -> unit;
  }
end

let per_node () =
  let state = Array.make 16 0 in
  let total = Atomic.make 0 in
  let deliver ~round:_ ~node = function
    | Engine.Silence -> ()
    | Engine.Received m ->
        state.(node) <- m;
        Atomic.incr total
    | Engine.Collision -> ()
  in
  ({ Engine.decide = (fun ~round:_ ~node -> state.(node)); deliver }, total)
