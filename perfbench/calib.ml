(* The calibration slices: fixed host work that uses none of the repo's
   code, run between the units of every timed round to read how fast the
   host is at that moment.

   On a shared host the CPU itself slows down, not only the share of it
   the process gets: while neighbours load the machine, a round's CPU time
   grows up to 2.6-fold for minutes at a stretch. The slices slow with it,
   so a round's CPU time over the CPU time of the slices taken during it
   stays put while both drift. A slice is the two kinds of work the
   simulator's inner loops do, integer arithmetic with branches and
   effect-handler switches between fibers, on no data beyond a few words.
   Its speed still depends on the state a workload leaves the process in,
   so readings compare runs of one workload, not workloads. *)

open Stats

(* CPU nanoseconds of one slice on the host this benchmark was tuned on
   (2 vCPUs of a 2.1 GHz Intel Xeon) at full speed: the scale that turns a
   ratio back into seconds. Set so that scaled round times on a slowed
   host matched the unscaled ones measured while it ran at full speed
   (queue-x16 23 ms, tx-long 29 ms). *)
let reference_ns = 75_000.

let arithmetic () =
  let x = ref 1 and acc = ref 0 in
  for _ = 1 to 25_000 do
    x := (!x * 2862933555777941757) + 3037000493;
    if !x land 1024 = 0 then acc := !acc + (!x lsr 7) else acc := !acc lxor !x
  done;
  !acc

type _ Effect.t += Yield : unit Effect.t

let switches () =
  let n = ref 0 in
  Effect.Deep.match_with
    (fun () ->
      for _ = 1 to 2_500 do
        Effect.perform Yield
      done)
    ()
    { retc = (fun () -> !n);
      exnc = raise;
      effc =
        (fun (type a) (e : a Effect.t) ->
          match e with
          | Yield ->
            Some
              (fun (k : (a, _) Effect.Deep.continuation) ->
                incr n;
                Effect.Deep.continue k ())
          | _ -> None) }

(* CPU nanoseconds of one slice of the calibration work. *)
let slice () =
  let t0 = cpu_ns () in
  ignore (Sys.opaque_identity (arithmetic () + switches ()));
  cpu_ns () - t0

(* The host's speed moves within tens of milliseconds, so one sample
   after a round tracks the round poorly. A sampler takes a slice after a
   unit of the round once [every_ns] of CPU time has passed since the
   last one, and one after the round; the round's reading is their mean.
   Slices cost about 4 % of the CPU time. *)
let every_ns = 2_000_000

type sampler = { mutable sum : int; mutable n : int; mutable last : int }

let sampler () = { sum = 0; n = 0; last = cpu_ns () }

let take s =
  s.sum <- s.sum + slice ();
  s.n <- s.n + 1;
  s.last <- cpu_ns ()

let after_unit s = if cpu_ns () - s.last >= every_ns then take s

(* The round's mean slice, in nanoseconds; the sampler starts afresh. *)
let after_round s =
  take s;
  let mean = float_of_int s.sum /. float_of_int s.n in
  s.sum <- 0;
  s.n <- 0;
  mean
