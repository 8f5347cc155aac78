(* SplitMix64 on an 8-byte state read and written as one native int64.

   [%caml_bytes_get64u] and [%caml_bytes_set64u] move the state between
   the bytes and an unboxed int64 local, so a draw keeps every
   intermediate in registers and allocates nothing, without flambda. A
   [mutable state : int64] field would box on every store instead, and
   the simulator draws several times per simulated operation (scheduler
   tie-breaks, dispatch and transaction-begin jitter, backoff, op mixes,
   fault plans). test/test_rng.ml pins every draw against a boxed Int64
   reference and against known-answer vectors, so recorded schedules and
   committed artifacts stay byte-identical. *)

type t = Bytes.t

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let of_state s =
  let t = Bytes.create 8 in
  set64 t 0 s;
  t

let create seed = of_state (Int64.of_int seed)

(* One step: advance the state by the golden gamma, return the mix.
   Inlined into each draw, so the int64 it returns is never boxed. *)
let[@inline] next t =
  let s = Int64.add (get64 t 0) 0x9E3779B97F4A7C15L in
  set64 t 0 s;
  let z = Int64.mul (Int64.logxor s (Int64.shift_right_logical s 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let bits64 t = next t
let bits t = Int64.to_int (next t)
let split t = of_state (next t)

(* z >>> 1 is non-negative as an int64, so [Int64.rem] is its unsigned
   remainder for every positive bound. *)
let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  Int64.to_int (Int64.rem (Int64.shift_right_logical (next t) 1) (Int64.of_int bound))

let bool t = Int64.to_int (next t) land 1 = 1
let bits53 t = Int64.to_int (Int64.shift_right_logical (next t) 11)

(* 53 bits are exact in a float; dividing by 2^53 is exact too. *)
let float t bound = float_of_int (bits53 t) /. 0x1p53 *. bound

(* x / 2^53 < p iff x < p * 2^53: scaling by a power of two is exact. *)
let below x p = float_of_int x < p *. 0x1p53
