(* Host clocks, sample buffers, quantiles and the simulated-statistics
   digest. *)

(* Host wall time: the CLOCK_MONOTONIC reading, in nanoseconds. *)
let wall_ns () = Int64.to_int (Monotonic_clock.now ())

(* Host CPU time of the process, in nanoseconds. The benchmark's metrics
   use it: on a shared host, time spent waiting for a CPU moves wall time
   by tens of percent from run to run, and CPU time leaves it out. *)
external cpu_ns : unit -> int = "perfbench_cpu_ns" [@@noalloc]

let seconds_of_ns ns = float_of_int ns *. 1e-9

(* A growable int buffer. Traced thread bodies append one host duration
   per call, so appending must not allocate on the common path. *)
module Buf = struct
  type t = { mutable a : int array; mutable n : int }

  let create () = { a = Array.make 1024 0; n = 0 }

  let add b x =
    if b.n = Array.length b.a then begin
      let a = Array.make (2 * b.n) 0 in
      Array.blit b.a 0 a 0 b.n;
      b.a <- a
    end;
    b.a.(b.n) <- x;
    b.n <- b.n + 1

  let length b = b.n
  let clear b = b.n <- 0
  let to_floats b = Array.init b.n (fun i -> float_of_int b.a.(i))
end

(* The [q]-quantile with linear interpolation between closest ranks (the
   rule of numpy's default and of Python's [statistics.quantiles] with
   [method='inclusive']). [nan] for no samples. *)
let quantile xs q =
  let n = Array.length xs in
  if n = 0 then Float.nan
  else begin
    let s = Array.copy xs in
    Array.sort Float.compare s;
    let pos = q *. float_of_int (n - 1) in
    let lo = truncate pos in
    let hi = min (n - 1) (lo + 1) in
    let frac = pos -. float_of_int lo in
    s.(lo) +. (frac *. (s.(hi) -. s.(lo)))
  end

let median xs = quantile xs 0.5

(* The highest percentile that has at least ten samples beyond it, as a
   fraction (0.9 for 100 samples, 0.99 for 1000); [None] under 20. *)
let tail_level n =
  if n < 20 then None
  else
    let beyond = 10. /. float_of_int n in
    let lvl = 1. -. beyond in
    Some (Float.of_int (truncate (lvl *. 1000.)) /. 1000.)

(* FNV-1a-style mixing over machine ints (63-bit wrap-around), so two
   commits can compare a workload's simulated statistics exactly. *)
let digest_init = 0x2bf29ce484222325
let mix h x = (h lxor x) * 0x100000001b3
let mix_list h l = List.fold_left mix h l
