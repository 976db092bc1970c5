(* Adjacency is stored in CSR form: [tgt.(off.(v)) .. tgt.(off.(v+1)-1)] are
   the neighbors of [v], sorted ascending.  One flat target array keeps
   neighbor walks cache-friendly and gives the radio engine a branch-free
   slice to scan, instead of chasing per-node array pointers. *)
type t = { off : int array; tgt : int array; m : int }

(* In-place monomorphic int sort on [a.(lo) .. a.(hi-1)]: quicksort with a
   median-of-three pivot, insertion sort below a small cutoff.  Avoids both
   the polymorphic-compare calls and the closure dispatch of
   [Array.sort compare] on the construction path. *)
let rec sort_range (a : int array) lo hi =
  let len = hi - lo in
  if len <= 12 then
    for i = lo + 1 to hi - 1 do
      let x = a.(i) in
      let j = ref (i - 1) in
      while !j >= lo && a.(!j) > x do
        a.(!j + 1) <- a.(!j);
        decr j
      done;
      a.(!j + 1) <- x
    done
  else begin
    let mid = lo + (len / 2) in
    (* Median of first / middle / last as pivot, moved to [lo]. *)
    let swap i j =
      let tmp = a.(i) in
      a.(i) <- a.(j);
      a.(j) <- tmp
    in
    if a.(mid) < a.(lo) then swap mid lo;
    if a.(hi - 1) < a.(lo) then swap (hi - 1) lo;
    if a.(hi - 1) < a.(mid) then swap (hi - 1) mid;
    swap lo mid;
    let pivot = a.(lo) in
    let i = ref (lo + 1) and j = ref (hi - 1) in
    while !i <= !j do
      while !i <= !j && a.(!i) <= pivot do incr i done;
      while !i <= !j && a.(!j) > pivot do decr j done;
      if !i < !j then swap !i !j
    done;
    swap lo !j;
    sort_range a lo !j;
    sort_range a (!j + 1) hi
  end

(* Shared CSR finisher over a flat endpoint buffer: edge [i] is
   [(pairs.(2i), pairs.(2i+1))], [i < len].  Both the list-based [create]
   and the list-free [Builder] funnel through here, so the two construction
   paths produce identical graphs for the same edge multiset by
   construction. *)
let of_flat ~n ~pairs ~len =
  if n < 0 then invalid_arg "Graph.create: negative n";
  let check v =
    if v < 0 || v >= n then
      invalid_arg (Printf.sprintf "Graph.create: node %d out of range [0,%d)" v n)
  in
  (* Pass 1: validate and count directed half-edges (self-loops dropped). *)
  let deg = Array.make (max n 1) 0 in
  for i = 0 to len - 1 do
    let u = pairs.(2 * i) and v = pairs.((2 * i) + 1) in
    check u;
    check v;
    if u <> v then begin
      deg.(u) <- deg.(u) + 1;
      deg.(v) <- deg.(v) + 1
    end
  done;
  let off = Array.make (n + 1) 0 in
  for v = 0 to n - 1 do
    off.(v + 1) <- off.(v) + deg.(v)
  done;
  (* Pass 2: scatter targets; [cursor] tracks each row's write position. *)
  let cursor = Array.sub off 0 (max n 1) in
  let tgt = Array.make (max off.(n) 1) 0 in
  for i = 0 to len - 1 do
    let u = pairs.(2 * i) and v = pairs.((2 * i) + 1) in
    if u <> v then begin
      tgt.(cursor.(u)) <- v;
      cursor.(u) <- cursor.(u) + 1;
      tgt.(cursor.(v)) <- u;
      cursor.(v) <- cursor.(v) + 1
    end
  done;
  for v = 0 to n - 1 do
    sort_range tgt off.(v) off.(v + 1)
  done;
  (* Pass 3: drop duplicate edges, compacting [tgt] in place (the write
     cursor never overtakes the read cursor). *)
  let w = ref 0 in
  let coff = Array.make (n + 1) 0 in
  for v = 0 to n - 1 do
    coff.(v) <- !w;
    let prev = ref min_int in
    for i = off.(v) to off.(v + 1) - 1 do
      let x = tgt.(i) in
      if x <> !prev then begin
        tgt.(!w) <- x;
        incr w;
        prev := x
      end
    done
  done;
  coff.(n) <- !w;
  let tgt = if !w = Array.length tgt then tgt else Array.sub tgt 0 !w in
  { off = coff; tgt; m = !w / 2 }

let create ~n ~edges =
  let len = List.length edges in
  let pairs = Array.make (max (2 * len) 1) 0 in
  List.iteri
    (fun i (u, v) ->
      pairs.(2 * i) <- u;
      pairs.((2 * i) + 1) <- v)
    edges;
  of_flat ~n ~pairs ~len

module Builder = struct
  type b = { n : int; mutable pairs : int array; mutable len : int }

  let create ?(capacity = 256) ~n () =
    if n < 0 then invalid_arg "Graph.Builder.create: negative n";
    { n; pairs = Array.make (2 * max capacity 1) 0; len = 0 }

  let add_edge b u v =
    let check w =
      if w < 0 || w >= b.n then
        invalid_arg
          (Printf.sprintf "Graph.Builder.add_edge: node %d out of range [0,%d)"
             w b.n)
    in
    check u;
    check v;
    if 2 * b.len = Array.length b.pairs then begin
      (* Amortized doubling: the buffer is the only O(m) intermediate, flat
         ints rather than a list of boxed pairs. *)
      let bigger = Array.make (4 * max b.len 1) 0 in
      Array.blit b.pairs 0 bigger 0 (2 * b.len);
      b.pairs <- bigger
    end;
    b.pairs.(2 * b.len) <- u;
    b.pairs.((2 * b.len) + 1) <- v;
    b.len <- b.len + 1

  let edge_count b = b.len
  let finish b = of_flat ~n:b.n ~pairs:b.pairs ~len:b.len
end

let n t = Array.length t.off - 1
let m t = t.m
let degree t v = t.off.(v + 1) - t.off.(v)
let neighbors t v = Array.sub t.tgt t.off.(v) (t.off.(v + 1) - t.off.(v))
let offsets t = t.off
let targets t = t.tgt

let iter_neighbors t v f =
  (* Hot path: the CSR invariant puts indices in
     [off.(v), off.(v+1)) ⊆ [0, length tgt); the hoisted guard costs one
     compare per call, not per edge, and turns a corrupted [off] table
     into an exception instead of an out-of-bounds read. *)
  let tgt = t.tgt in
  let hi = t.off.(v + 1) in
  if hi > Array.length tgt then invalid_arg "Graph.iter_neighbors";
  for i = t.off.(v) to hi - 1 do
    f (Array.unsafe_get tgt i)
  done

let fold_neighbors t v f init =
  let tgt = t.tgt in
  let hi = t.off.(v + 1) in
  if hi > Array.length tgt then invalid_arg "Graph.fold_neighbors";
  let acc = ref init in
  for i = t.off.(v) to hi - 1 do
    acc := f !acc (Array.unsafe_get tgt i)
  done;
  !acc

let mem_edge t u v =
  let a = t.tgt in
  let rec bsearch lo hi =
    if lo >= hi then false
    else begin
      let mid = (lo + hi) / 2 in
      if a.(mid) = v then true
      else if a.(mid) < v then bsearch (mid + 1) hi
      else bsearch lo mid
    end
  in
  bsearch t.off.(u) t.off.(u + 1)

let edges t =
  let acc = ref [] in
  for u = n t - 1 downto 0 do
    for i = t.off.(u + 1) - 1 downto t.off.(u) do
      let v = t.tgt.(i) in
      if u < v then acc := (u, v) :: !acc
    done
  done;
  !acc

let max_degree t =
  let best = ref 0 in
  for v = 0 to n t - 1 do
    best := max !best (degree t v)
  done;
  !best

module Int_tbl = Hashtbl.Make (Int)

let induced_bipartite g ~left ~right =
  let nl = Array.length left and nr = Array.length right in
  let back = Array.append left right in
  (* Only right-side nodes need a forward mapping: edges inside a side are
     ignored, so a left endpoint that is absent from the table behaves the
     same as a non-member. *)
  let fwd = Int_tbl.create (max nr 1) in
  Array.iteri (fun j v -> Int_tbl.replace fwd v (nl + j)) right;
  let es = ref [] in
  Array.iteri
    (fun i u ->
      iter_neighbors g u (fun v ->
          match Int_tbl.find_opt fwd v with
          | Some j -> es := (i, j) :: !es
          | None -> ()))
    left;
  (create ~n:(nl + nr) ~edges:!es, back)

