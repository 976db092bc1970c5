(* The 64-bit SplitMix64 state lives unboxed in an 8-byte buffer.  A
   [mutable state : int64] field would hold a pointer to a boxed Int64, so
   every draw would allocate a fresh box, store it through [caml_modify],
   and — once the stream has been promoted — add a remembered-set entry.
   Reading and writing the bytes in place keeps every intermediate an
   unboxed machine word. *)
type t = Bytes.t

let golden_gamma = 0x9E3779B97F4A7C15L

let[@inline] of_state s =
  let t = Bytes.create 8 in
  Bytes.set_int64_le t 0 s;
  t

let create ~seed = of_state (Int64.of_int seed)

let copy t = Bytes.copy t

(* SplitMix64 output function: advance by the golden gamma, then mix.
   Inlined into every caller so the result never leaves a register. *)
let[@inline] mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let[@inline] next t =
  let z = Int64.add (Bytes.get_int64_le t 0) golden_gamma in
  Bytes.set_int64_le t 0 z;
  mix z

let bits64 t = next t

(* The two immediate-int views every draw is built on: the top 53 bits
   (the mantissa of [float]) and the low 62 bits (non-negative [int]). *)
let bits53 t = Int64.to_int (Int64.shift_right_logical (next t) 11)

let bits62 t = Int64.to_int (next t) land max_int

(* A child's state: the parent's output mixed once more, so that parent
   and child streams are decorrelated even for adjacent integer seeds. *)
let[@inline] child s =
  of_state (Int64.mul (Int64.logxor s (Int64.shift_right_logical s 33)) 0xFF51AFD7ED558CCDL)

let split t = child (next t)

(* The k-th of n consecutive splits from state s₀ reads the output of
   state s₀ + (k+1)·γ (wrapping, as the sequential additions do), so
   [jump] records s₀ and moves the parent straight to s₀ + n·γ. *)
type streams = { base : t; count : int }

let jump t n =
  if n < 0 then invalid_arg "Rng.jump: negative count";
  let base = copy t in
  Bytes.set_int64_le t 0
    (Int64.add (Bytes.get_int64_le t 0) (Int64.mul (Int64.of_int n) golden_gamma));
  { base; count = n }

let stream { base; count } k =
  if k < 0 || k >= count then invalid_arg "Rng.stream: index out of range";
  child
    (mix
       (Int64.add (Bytes.get_int64_le base 0)
          (Int64.mul (Int64.of_int (k + 1)) golden_gamma)))

let split_n t n = Array.init n (stream (jump t n))

let split_members t n ids =
  let s = jump t n in
  let out = Array.make n (of_state 0L) in
  Array.iter (fun v -> out.(v) <- stream s v) ids;
  out

(* Rejection sampling on the low 62 bits to avoid modulo bias.  A
   top-level loop rather than a local closure, so a draw allocates
   nothing. *)
let rec int_below t bound =
  let r = bits62 t in
  let v = r mod bound in
  if r - v > max_int - bound + 1 then int_below t bound else v

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  int_below t bound

(* Uniform in [0, 1): the 53-bit draw over 2^53, both exact. *)
let[@inline] unit_float t = float_of_int (bits53 t) /. 9007199254740992.0

let float t bound = bound *. unit_float t

let bool t = bits62 t land 1 = 1

let bernoulli t p =
  if p <= 0.0 then false
  else if p >= 1.0 then true
  else unit_float t < p

(* [bernoulli t (1.0 /. float_of_int (1 lsl min e 62))], decided on the
   integer draw.  With r53 < 2^53 and p = 2^-e, r53 / 2^53 < 2^-e iff
   r53 < 2^(53-e): every value involved is an exact power of two, so the
   integer test agrees with the float one bit for bit.  [1 lsl 62]
   overflows to [min_int], which makes that p negative: the float ladder
   answers [false] without drawing, and so does this. *)
let coin_pow2 t e =
  if e < 0 then invalid_arg "Rng.coin_pow2: negative exponent"
  else if e = 0 then true
  else if e >= 62 then false
  else if e <= 52 then bits53 t lsr (53 - e) = 0
  else bits53 t = 0

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let sample_without_replacement t k n =
  if k < 0 || k > n then invalid_arg "Rng.sample_without_replacement";
  (* Partial Fisher–Yates over an index array: O(n) setup, exact. *)
  let idx = Array.init n (fun i -> i) in
  for i = 0 to k - 1 do
    let j = i + int t (n - i) in
    let tmp = idx.(i) in
    idx.(i) <- idx.(j);
    idx.(j) <- tmp
  done;
  Array.sub idx 0 k
