(* Fixture: R2 generic containers, the monomorphic replacements — a
   [Hashtbl.Make] instance, [List.exists] with a monomorphic equal, and a
   mark array.  Creating or measuring a generic table compares nothing. *)

module Int_tbl = Hashtbl.Make (Int)

let table_ops k =
  let t = Int_tbl.create 8 in
  Int_tbl.replace t 1 "a";
  (Int_tbl.find_opt t k, Int_tbl.mem t k)

let member (x : int) l = List.exists (Int.equal x) l

let marks n l =
  let a = Array.make n false in
  List.iter (fun v -> a.(v) <- true) l;
  a

let empty_size () = Hashtbl.length (Hashtbl.create 1)
