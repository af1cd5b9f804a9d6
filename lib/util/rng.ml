(* The 64-bit SplitMix64 state lives in 8 bytes, read and written with the
   unboxed bytes primitives: a [mutable int64] field would box a fresh
   state on every draw.  The helpers below are [@inline] so each public
   draw runs the state update, the output mix and any float arithmetic in
   one body with every intermediate unboxed; a draw allocates nothing
   beyond the [int64] or [float] it returns. *)
type t = Bytes.t

external get_state : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set_state : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let golden_gamma = 0x9E3779B97F4A7C15L

let of_state s =
  let t = Bytes.create 8 in
  set_state t 0 s;
  t

let create seed = of_state (Int64.of_int seed)

let copy = Bytes.copy

(* SplitMix64 output function: mix the advanced state through two
   xor-multiply rounds (constants from the reference implementation). *)
let[@inline] next t =
  let z = Int64.add (get_state t 0) golden_gamma in
  set_state t 0 z;
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let int64 t = next t

let split t = of_state (next t)

(* Keep 62 random bits: a 63-bit value can overflow OCaml's native int
   (63-bit) and come out negative through Int64.to_int. *)
let[@inline] nonneg t = Int64.to_int (Int64.shift_right_logical (next t) 2)

let int t bound =
  if bound <= 0 then Invariant.violate ~context:"Rng.int" "bound must be positive (got %d)" bound;
  nonneg t mod bound

let int_in t lo hi =
  if hi < lo then Invariant.violate ~context:"Rng.int_in" "empty range [%d, %d]" lo hi;
  lo + int t (hi - lo + 1)

(* 53 random bits -> uniform float in [0, bound). *)
let[@inline] uniform t bound =
  let bits = Int64.to_int (Int64.shift_right_logical (next t) 11) in
  bound *. (Float.of_int bits /. 9007199254740992.0)

let float t bound = uniform t bound

let bool t = Int64.logand (next t) 1L = 1L

let bernoulli t p = uniform t 1.0 < p

let exponential t ~mean =
  let u = 1.0 -. uniform t 1.0 in
  -.mean *. Float.log u

(* Box–Muller; u1 is redrawn until nonzero so its log is finite. *)
let[@inline] standard_normal t =
  let u1 = ref (uniform t 1.0) in
  while not (!u1 > 0.0) do
    u1 := uniform t 1.0
  done;
  let u2 = uniform t 1.0 in
  Float.sqrt (-2.0 *. Float.log !u1) *. Float.cos (2.0 *. Float.pi *. u2)

let[@inline] lognormal t ~mu ~sigma = Float.exp (mu +. (sigma *. standard_normal t))

type fcell = { mutable f : float }

(* [lognormal] inlined: the sample goes into the flat cell unboxed, so a
   caller that keeps one cell draws without allocating at all.  (The other
   way round — [lognormal] as a draw into a fresh cell — would allocate
   that cell on every call.) *)
let lognormal_into t ~mu ~sigma cell = cell.f <- lognormal t ~mu ~sigma

let pick t arr =
  if Array.length arr = 0 then Invariant.violate ~context:"Rng.pick" "empty array";
  arr.(int t (Array.length arr))

