open Rn_util

let line ~idx ~key ~cell ~rounds ~delivered ~details =
  let base =
    Jsons.obj
      ([
         ("idx", string_of_int idx);
         ("key", Jsons.quote key);
         ("cell", Jsons.quote cell);
         ("rounds", string_of_int rounds);
         ("delivered", (if delivered then "true" else "false"));
       ]
      @ List.map (fun (k, v) -> ("d_" ^ k, Jsons.quote v)) details)
  in
  (* Seal the record with a trailing "eor" field — written last, valued
     at the byte length of the unsealed object — so a line torn inside
     the details (or two torn halves glued by an append) cannot both
     parse as JSON and pass the length check.  [parse_line] rejects any
     line whose final field is not a consistent seal. *)
  let l = String.length base in
  Printf.sprintf "%s,\"eor\":%d}" (String.sub base 0 (l - 1)) l

let parse_line s =
  match Jsons.parse_obj s with
  | Error _ -> None
  | Ok fields -> (
      let rec last = function
        | [] -> None
        | [ kv ] -> Some kv
        | _ :: rest -> last rest
      in
      let sealed =
        match last fields with
        | Some ("eor", Jsons.Int l) ->
            (* the seal must be the last field AND the line must be
               exactly the unsealed object of length [l] re-closed with
               the seal — anything shorter, longer, or re-glued fails *)
            String.length s
            = l - 1 + String.length (Printf.sprintf ",\"eor\":%d}" l)
        | _ -> false
      in
      if not sealed then None
      else
        match
          ( Jsons.int_mem "idx" fields,
            Jsons.str_mem "key" fields,
            Jsons.int_mem "rounds" fields,
            Jsons.str_mem "cell" fields,
            Jsons.bool_mem "delivered" fields )
        with
        | Some idx, Some key, Some rounds, Some _, Some _ ->
            Some (idx, key, rounds)
        | _ -> None)

type verdict = Torn | Stale | Cell of { idx : int; rounds : int }

let classify (cells : Spec.cell array) s =
  match parse_line s with
  | None -> Torn
  | Some (idx, key, rounds) ->
      if
        idx >= 0 && idx < Array.length cells
        && String.equal key cells.(idx).Spec.key
      then Cell { idx; rounds }
      else Stale
