(* Reader for the nested JSON the benchmark consumes: BENCHMARK.json and
   the one-object result line each run prints last.  Rn_util.Jsons reads
   only the flat one-line objects of the campaign journal, and the result
   line is written with its constructors. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Bad of int * string

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Bad (!pos, msg)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let rec ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
        incr pos;
        ws ()
    | _ -> ()
  in
  let expect c =
    ws ();
    match peek () with
    | Some d when Char.equal c d -> incr pos
    | _ -> fail (Printf.sprintf "expected '%c'" c)
  in
  let literal word v =
    let l = String.length word in
    if !pos + l <= n && String.equal (String.sub s !pos l) word then begin
      pos := !pos + l;
      v
    end
    else fail "bad literal"
  in
  let str () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> incr pos
      | Some '\\' ->
          incr pos;
          (match peek () with
          | Some (('"' | '\\' | '/') as c) -> Buffer.add_char b c
          | Some 'n' -> Buffer.add_char b '\n'
          | Some 't' -> Buffer.add_char b '\t'
          | Some 'r' -> Buffer.add_char b '\r'
          | Some 'b' -> Buffer.add_char b '\b'
          | Some 'f' -> Buffer.add_char b '\012'
          | Some 'u' when !pos + 4 < n -> (
              match int_of_string_opt ("0x" ^ String.sub s (!pos + 1) 4) with
              | Some code when code < 0xd800 || code > 0xdfff ->
                  Buffer.add_utf_8_uchar b (Uchar.of_int code);
                  pos := !pos + 4
              | _ -> fail "bad \\u escape")
          | _ -> fail "bad escape");
          incr pos;
          go ()
      | Some c ->
          Buffer.add_char b c;
          incr pos;
          go ()
    in
    go ();
    Buffer.contents b
  in
  let number () =
    let start = !pos in
    let rec go () =
      match peek () with
      | Some ('0' .. '9' | '-' | '+' | '.' | 'e' | 'E') ->
          incr pos;
          go ()
      | _ -> ()
    in
    go ();
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f when !pos > start -> Num f
    | _ -> fail "bad number"
  in
  let rec value () =
    ws ();
    match peek () with
    | None -> fail "unexpected end"
    | Some '{' ->
        incr pos;
        ws ();
        if Option.equal Char.equal (peek ()) (Some '}') then (
          incr pos;
          Obj [])
        else
          let rec fields acc =
            let k = str () in
            expect ':';
            let v = value () in
            ws ();
            match peek () with
            | Some ',' ->
                incr pos;
                fields ((k, v) :: acc)
            | _ ->
                expect '}';
                Obj (List.rev ((k, v) :: acc))
          in
          fields []
    | Some '[' ->
        incr pos;
        ws ();
        if Option.equal Char.equal (peek ()) (Some ']') then (
          incr pos;
          Arr [])
        else
          let rec items acc =
            let v = value () in
            ws ();
            match peek () with
            | Some ',' ->
                incr pos;
                items (v :: acc)
            | _ ->
                expect ']';
                Arr (List.rev (v :: acc))
          in
          items []
    | Some '"' -> Str (str ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some _ -> number ()
  in
  match
    let v = value () in
    ws ();
    if !pos <> n then fail "trailing bytes";
    v
  with
  | v -> Ok v
  | exception Bad (at, msg) -> Error (Printf.sprintf "byte %d: %s" at msg)

let member k = function
  | Obj fields -> List.assoc_opt k fields
  | _ -> None

let num = function Some (Num f) -> Some f | _ -> None
let str = function Some (Str s) -> Some s | _ -> None
let list = function Some (Arr l) -> l | _ -> []
