(* Unit and property tests for the SplitMix64 generator.

   Two references pin the native generator's streams: a plain boxed-Int64
   SplitMix64 ([Ref]), itself pinned by known-answer vectors, and the
   earlier two-halves generator ([Halves]), which produced every recorded
   schedule and committed artifact before the native rewrite. *)

(* SplitMix64 as written down, one boxed int64 per step. *)
module Ref = struct
  type t = { mutable s : int64 }

  let create seed = { s = Int64.of_int seed }

  let next r =
    r.s <- Int64.add r.s 0x9E3779B97F4A7C15L;
    let z = r.s in
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
    Int64.logxor z (Int64.shift_right_logical z 31)

  let bits r = Int64.to_int (next r)
  let split r = { s = next r }

  let int r bound =
    Int64.to_int (Int64.unsigned_rem (Int64.shift_right_logical (next r) 1) (Int64.of_int bound))

  let bool r = Int64.logand (next r) 1L = 1L
  let bits53 r = Int64.to_int (Int64.shift_right_logical (next r) 11)
  let float r bound = Int64.to_float (Int64.shift_right_logical (next r) 11) /. 0x1p53 *. bound
end

(* The two-halves generator the simulator used before: SplitMix64 on two
   32-bit halves in immediate ints, with 16-bit limb products. Its [int]
   recombines the unsigned remainder as [q + q + b], which overflows for
   bounds above 2^61; below that it must agree with the native one. *)
module Halves = struct
  type t = { mutable hi : int; mutable lo : int; mutable zh : int; mutable zl : int }

  let mask32 = 0xFFFFFFFF
  let mask16 = 0xFFFF

  let low32_mul x y =
    ((x land mask16) * y + ((((x lsr 16) * y) land mask16) lsl 16)) land mask32

  let create seed = { hi = (seed asr 32) land mask32; lo = seed land mask32; zh = 0; zl = 0 }

  let xorshift_r t k =
    let hi = t.zh and lo = t.zl in
    t.zh <- hi lxor (hi lsr k);
    t.zl <- lo lxor (((hi lsl (32 - k)) lor (lo lsr k)) land mask32)

  let mul_const t c_hi c_lo =
    let hi = t.zh and lo = t.zl in
    let x0 = lo land mask16 and x1 = lo lsr 16 in
    let y0 = c_lo land mask16 and y1 = c_lo lsr 16 in
    let t0 = x0 * y0 in
    let t1 = (x0 * y1) + (x1 * y0) in
    let lo_full = t0 + ((t1 land mask16) lsl 16) in
    let p_hi = ((x1 * y1) + (t1 lsr 16) + (lo_full lsr 32)) land mask32 in
    t.zh <- (p_hi + low32_mul lo c_hi + low32_mul hi c_lo) land mask32;
    t.zl <- lo_full land mask32

  let step t =
    let lo_full = t.lo + 0x7F4A7C15 in
    let lo = lo_full land mask32 in
    let hi = (t.hi + 0x9E3779B9 + (lo_full lsr 32)) land mask32 in
    t.hi <- hi;
    t.lo <- lo;
    t.zh <- hi;
    t.zl <- lo;
    xorshift_r t 30;
    mul_const t 0xBF58476D 0x1CE4E5B9;
    xorshift_r t 27;
    mul_const t 0x94D049BB 0x133111EB;
    xorshift_r t 31

  let bits64 t =
    step t;
    Int64.logor (Int64.shift_left (Int64.of_int t.zh) 32) (Int64.of_int t.zl)

  let int t bound =
    step t;
    let r = (t.zh lsl 31) lor (t.zl lsr 1) in
    if r >= 0 then r mod bound
    else
      let q = (r lsr 1) mod bound in
      (q + q + (r land 1)) mod bound

  let float t bound =
    step t;
    float_of_int ((t.zh lsl 21) lor (t.zl lsr 11)) /. 9007199254740992.0 *. bound
end

let test_known_answers () =
  let expect = [ 0xe220a8397b1dcdafL; 0x6e789e6aa1b965f4L; 0x06c45d188009454fL ] in
  let r = Ref.create 0 and n = Sim.Rng.create 0 in
  List.iter
    (fun v ->
      Alcotest.(check int64) "reference, seed 0" v (Ref.next r);
      Alcotest.(check int64) "native, seed 0" v (Sim.Rng.bits64 n))
    expect

(* The overflow the native [int] mends: the two-halves recombination
   leaves [0, bound) once the bound exceeds 2^61. *)
let test_int_large_bound () =
  let r = Sim.Rng.create 3 and h = Halves.create 3 in
  Alcotest.(check int) "seed 3, first draw" 1046394712501569526 (Sim.Rng.int r max_int);
  Alcotest.(check int) "halves agree on it" 1046394712501569526 (Halves.int h max_int);
  Alcotest.(check int) "seed 3, second draw" 1847381592436167877 (Sim.Rng.int r max_int);
  Alcotest.(check int) "halves overflow on it" (-2764304425991220028) (Halves.int h max_int)

let test_determinism () =
  let a = Sim.Rng.create 42 and b = Sim.Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Sim.Rng.bits64 a) (Sim.Rng.bits64 b)
  done

let test_seed_sensitivity () =
  let a = Sim.Rng.create 1 and b = Sim.Rng.create 2 in
  let differs = ref false in
  for _ = 1 to 10 do
    if Sim.Rng.bits64 a <> Sim.Rng.bits64 b then differs := true
  done;
  Alcotest.(check bool) "different seeds differ" true !differs

let test_bounds () =
  let r = Sim.Rng.create 7 in
  for _ = 1 to 10_000 do
    let v = Sim.Rng.int r 13 in
    if v < 0 || v >= 13 then Alcotest.failf "out of bounds: %d" v
  done

let test_bound_one () =
  let r = Sim.Rng.create 9 in
  for _ = 1 to 100 do
    Alcotest.(check int) "bound 1 gives 0" 0 (Sim.Rng.int r 1)
  done

let test_invalid_bound () =
  let r = Sim.Rng.create 3 in
  Alcotest.check_raises "zero bound" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Sim.Rng.int r 0))

let test_split_independence () =
  let parent = Sim.Rng.create 5 in
  let child = Sim.Rng.split parent in
  (* The child stream must not simply replay the parent stream. *)
  let equal = ref 0 in
  for _ = 1 to 20 do
    if Sim.Rng.bits64 parent = Sim.Rng.bits64 child then incr equal
  done;
  Alcotest.(check bool) "streams diverge" true (!equal < 3)

let test_float_bounds () =
  let r = Sim.Rng.create 11 in
  for _ = 1 to 1000 do
    let f = Sim.Rng.float r 2.5 in
    if f < 0.0 || f >= 2.5 then Alcotest.failf "float out of bounds: %f" f
  done

let test_uniformity () =
  (* Coarse chi-square-free check: each of 8 buckets gets 8-17 % of draws. *)
  let r = Sim.Rng.create 13 in
  let buckets = Array.make 8 0 in
  let n = 80_000 in
  for _ = 1 to n do
    let v = Sim.Rng.int r 8 in
    buckets.(v) <- buckets.(v) + 1
  done;
  Array.iteri
    (fun i c ->
      let frac = float_of_int c /. float_of_int n in
      if frac < 0.08 || frac > 0.17 then Alcotest.failf "bucket %d skewed: %f" i frac)
    buckets

(* Seeds: the full int range, small negatives and the extremes. *)
let seed_gen =
  QCheck.(oneof [ int; small_signed_int; oneofl [ 0; -1; 1; min_int; max_int ] ])

(* Bounds up to max_int (2^62 - 1), with the bounds around 2^61 above
   which the old recombination overflowed. [max 1] keeps shrunk
   counterexamples positive. *)
let bound_gen =
  QCheck.(
    map ~rev:Fun.id (max 1)
      (oneof
         [
           int_range 1 1_000_000;
           int_range 1 max_int;
           oneofl [ 1; 2; (1 lsl 61) - 1; 1 lsl 61; (1 lsl 61) + 1; max_int - 1; max_int ];
         ]))

let prop_int_in_bounds =
  QCheck.Test.make ~name:"Rng.int always within bounds" ~count:500
    QCheck.(pair seed_gen bound_gen)
    (fun (seed, bound) ->
      let r = Sim.Rng.create seed in
      let v = Sim.Rng.int r bound in
      v >= 0 && v < bound)

(* Every draw, interleaved on one stream, equals the reference's. The
   fault draw is [bits53] against a rate scaled by 2^53, which must
   decide exactly as [float r 1.0 < rate] did. *)
let prop_matches_reference =
  QCheck.Test.make ~name:"every draw matches the boxed Int64 reference" ~count:300
    QCheck.(triple seed_gen bound_gen (float_range 0.0 1.0))
    (fun (seed, bound, rate) ->
      let n = Sim.Rng.create seed and r = Ref.create seed in
      let ok = ref true in
      let check b = if not b then ok := false in
      for _ = 1 to 8 do
        check (Sim.Rng.int n bound = Ref.int r bound);
        check (Sim.Rng.bits n = Ref.bits r);
        check (Sim.Rng.bits64 n = Ref.next r);
        check (Sim.Rng.bool n = Ref.bool r);
        check (Sim.Rng.float n 2.5 = Ref.float r 2.5);
        check (Sim.Rng.bits53 n = Ref.bits53 r);
        let x = Sim.Rng.bits53 n in
        check (Sim.Rng.below x rate = (Ref.float r 1.0 < rate));
        let nc = Sim.Rng.split n and rc = Ref.split r in
        check (Sim.Rng.bits64 nc = Ref.next rc)
      done;
      !ok)

(* The fault draw at the rates plans use and at the edges: 0, 1, and
   the draws at exactly [rate * 2^53]. *)
let test_below_edges () =
  let x_of_rate rate = int_of_float (rate *. 0x1p53) in
  List.iter
    (fun rate ->
      List.iter
        (fun x ->
          if x >= 0 && x < 1 lsl 53 then
            Alcotest.(check bool)
              (Printf.sprintf "x=%d rate=%g" x rate)
              (float_of_int x /. 0x1p53 < rate)
              (Sim.Rng.below x rate))
        [ 0; 1; x_of_rate rate - 1; x_of_rate rate; x_of_rate rate + 1; (1 lsl 53) - 1 ])
    [ 0.0; 1e-300; 0.001; 0.02; 0.05; 0.3; 0.5; 1.0 ]

(* Today's schedules came from the two-halves generator: for every bound
   it handled correctly the native streams are the same. *)
let prop_matches_halves =
  QCheck.Test.make ~name:"native streams equal the two-halves generator" ~count:300
    QCheck.(pair seed_gen (oneof [ int_range 1 1_000_000; int_range 1 (1 lsl 61) ]))
    (fun (seed, bound) ->
      let n = Sim.Rng.create seed and h = Halves.create seed in
      let ok = ref true in
      for _ = 1 to 8 do
        if Sim.Rng.int n bound <> Halves.int h bound then ok := false;
        if Sim.Rng.bits64 n <> Halves.bits64 h then ok := false;
        if Sim.Rng.float n 1.0 <> Halves.float h 1.0 then ok := false
      done;
      !ok)

let prop_bool_balanced =
  QCheck.Test.make ~name:"Rng.bool is roughly balanced" ~count:50 QCheck.small_int
    (fun seed ->
      let r = Sim.Rng.create seed in
      let trues = ref 0 in
      for _ = 1 to 1000 do
        if Sim.Rng.bool r then incr trues
      done;
      !trues > 350 && !trues < 650)

let () =
  Alcotest.run "rng"
    [
      ( "unit",
        [
          Alcotest.test_case "determinism" `Quick test_determinism;
          Alcotest.test_case "seed sensitivity" `Quick test_seed_sensitivity;
          Alcotest.test_case "int bounds" `Quick test_bounds;
          Alcotest.test_case "bound one" `Quick test_bound_one;
          Alcotest.test_case "invalid bound" `Quick test_invalid_bound;
          Alcotest.test_case "split independence" `Quick test_split_independence;
          Alcotest.test_case "float bounds" `Quick test_float_bounds;
          Alcotest.test_case "uniformity" `Quick test_uniformity;
          Alcotest.test_case "known answers, seed 0" `Quick test_known_answers;
          Alcotest.test_case "int at bound max_int" `Quick test_int_large_bound;
          Alcotest.test_case "fault draw edges" `Quick test_below_edges;
        ] );
      ( "property",
        List.map QCheck_alcotest.to_alcotest
          [ prop_int_in_bounds; prop_bool_balanced; prop_matches_reference; prop_matches_halves ]
      );
    ]
