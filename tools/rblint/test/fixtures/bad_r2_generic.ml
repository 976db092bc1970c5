(* Fixture: R2 generic containers — the polymorphic [Hashtbl] lookups and
   updates and the [List] membership/association functions call caml_hash
   or caml_compare inside, whatever the key type.  Twelve sites, one of
   them a [Hashtbl.mem] passed as a value. *)

let table_ops k =
  let t : (int, string) Hashtbl.t = Hashtbl.create 8 in
  Hashtbl.replace t 1 "a";
  Hashtbl.add t 2 "b";
  Hashtbl.remove t 2;
  (Hashtbl.find t k, Hashtbl.find_opt t k, Hashtbl.mem t k)

let member (x : int) l = List.mem x l

let lookups (k : int) (l : (int * string) list) =
  (List.assoc k l, List.assoc_opt k l, List.mem_assoc k l, List.remove_assoc k l)

let any_known (t : (int, unit) Hashtbl.t) l = List.exists (Hashtbl.mem t) l
