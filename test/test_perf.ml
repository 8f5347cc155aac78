(* The zero-allocation contract of the flat simulator core, and the
   determinism contract of the sweep runner that the flattening must not
   disturb.

   The allocation tests measure [Gc.minor_words] deltas around complete
   benchmark cells run with no tap, tracer or heap observer
   installed. They are amortized bounds, not literal zeroes: thread spawn,
   machine construction and the workload's own bookkeeping (the ops
   arrays, the result record) allocate, but the per-access cost must not —
   a heap word per simulated access would put tens of words per operation
   on the GC and show up as thousands of words per thousand accesses. *)

let run_fig1_cell ~threads ~duration =
  let mk = Option.get (Hqueue.find_maker "HTM") in
  Workload.Queue_bench.run_one mk ~threads ~duration ~prefill:64 ~seed:11

(* Minor words allocated by [f], with the workload warmed so one-time
   lazy structures (domain-local state, grown pools) are already built. *)
let minor_delta f =
  ignore (f ());
  ignore (f ());
  let w0 = Gc.minor_words () in
  let r = f () in
  let w1 = Gc.minor_words () in
  (r, w1 -. w0)

(* Simulated memory accesses performed by [f], from a private registry. *)
let accesses_of f =
  let reg = Obs.Metrics.create () in
  let saved = Workload.Driver.obs () in
  Workload.Driver.set_obs { saved with obs_metrics = Some reg };
  ignore (f ());
  Workload.Driver.set_obs saved;
  let snap = Obs.Metrics.snapshot reg in
  List.fold_left
    (fun acc name ->
      match List.assoc_opt ("mem." ^ name) snap with
      | Some (Obs.Metrics.Counter { total; _ }) -> acc + total
      | _ -> acc)
    0
    [ "reads"; "writes"; "atomics"; "allocs"; "frees" ]

let test_zero_alloc_per_access () =
  Workload.Driver.set_obs Workload.Driver.no_obs;
  let f () = run_fig1_cell ~threads:16 ~duration:50_000 in
  let accesses = accesses_of f in
  Alcotest.(check bool) "cell performs real work" true (accesses > 1_000);
  let _, words = minor_delta f in
  (* The non-access overhead (spawn, malloc'd queue nodes' labels, the
     result) is bounded by a small constant per thread and operation;
     budget half a word per access on top and the old per-access cost
     (event records, Queue.t cells, closures: tens of words each) still
     trips the assertion with an order of magnitude to spare. *)
  let budget = 50_000.0 +. (0.5 *. float_of_int accesses) in
  if words > budget then
    Alcotest.failf
      "fig1 cell allocated %.0f minor words for %d simulated accesses (budget %.0f): \
       the no-observer hot path is allocating again"
      words accesses budget

let test_zero_alloc_single_thread () =
  Workload.Driver.set_obs Workload.Driver.no_obs;
  (* One thread, no contention, no retries: the strictest amortized bound.
     Everything here is steady-state loop; the budget is purely the
     per-cell fixed cost. *)
  let f () = run_fig1_cell ~threads:1 ~duration:100_000 in
  let accesses = accesses_of f in
  Alcotest.(check bool) "cell performs real work" true (accesses > 500);
  let _, words = minor_delta f in
  let budget = 20_000.0 in
  if words > budget then
    Alcotest.failf
      "single-thread fig1 cell allocated %.0f minor words for %d accesses (budget %.0f)"
      words accesses budget

(* Every draw is allocation-free: the generator's state is raw bytes
   read as an unboxed int64, and a fault plan tests its rates on the
   53-bit integer draw. A generator that boxed its state (a [mutable
   state : int64] field) or a fault draw that went through [Rng.float]
   would allocate on each of these draws. The fault plan's rates are
   positive, so every decision draws, and tiny, so none fires and logs. *)
let test_zero_alloc_draws () =
  let n = 100_000 in
  let words_of f =
    f ();
    let w0 = Gc.minor_words () in
    for _ = 1 to n do
      f ()
    done;
    Gc.minor_words () -. w0
  in
  let r = Sim.Rng.create 17 in
  let plan =
    Sim.Fault.make
      { Sim.Fault.none with stall_rate = 1e-300; stall_cycles = 100; spurious_abort_rate = 1e-300 }
  in
  List.iter
    (fun (name, f) ->
      let words = words_of f in
      if words > 0.0 then Alcotest.failf "%d draws of %s allocated %.0f minor words" n name words)
    [
      ("Rng.int", fun () -> ignore (Sys.opaque_identity (Sim.Rng.int r 1000)));
      ("Rng.bits", fun () -> ignore (Sys.opaque_identity (Sim.Rng.bits r)));
      ("Rng.bool", fun () -> ignore (Sys.opaque_identity (Sim.Rng.bool r)));
      ( "Rng.bits53 + Rng.below",
        fun () -> ignore (Sys.opaque_identity (Sim.Rng.below (Sim.Rng.bits53 r) 0.02)) );
      ( "Fault.decide",
        fun () -> ignore (Sys.opaque_identity (Sim.Fault.decide plan ~tid:1 ~clock:0)) );
      ( "Fault.spurious",
        fun () -> ignore (Sys.opaque_identity (Sim.Fault.spurious plan ~tid:1 ~clock:0)) );
    ]

(* Machine construction is sized by use, not by capacity: a default heap
   and its HTM domain start from tables small enough for the minor heap
   (no per-thread table of [Sim.max_threads + 1] slots, no pre-sized
   4096-word arrays), so building one — which the explorer does for every
   schedule — allocates nothing directly in the major heap. Major words
   come from [Gc.counters] (promotions subtracted), minor words from
   [Gc.minor_words], the precise counter. *)
let test_construction_cost () =
  let build () = Htm.create (Simmem.create ()) in
  ignore (Sys.opaque_identity (build ()));
  let _, promoted0, major0 = Gc.counters () in
  let minor0 = Gc.minor_words () in
  let h = build () in
  let minor1 = Gc.minor_words () in
  let _, promoted1, major1 = Gc.counters () in
  ignore (Sys.opaque_identity h);
  let direct_major = major1 -. major0 -. (promoted1 -. promoted0) in
  let minor = minor1 -. minor0 in
  if direct_major > 0.0 then
    Alcotest.failf "Simmem.create + Htm.create allocated %.0f words directly in the major heap"
      direct_major;
  let budget = 4096.0 in
  if minor > budget then
    Alcotest.failf "Simmem.create + Htm.create allocated %.0f minor words (budget %.0f)"
      minor budget

(* The determinism contract: the same cells produce byte-identical tables
   whatever --jobs is. QCheck varies duration and seed; equality is on
   the rendered table (the exact bytes the artifact embeds). *)
let render tables =
  let buf = Buffer.create 512 in
  let ppf = Format.formatter_of_buffer buf in
  List.iter (Workload.Report.print ppf) tables;
  Format.pp_print_flush ppf ();
  Buffer.contents buf

let test_jobs_byte_identity =
  QCheck.Test.make ~name:"fig1 tables byte-identical at --jobs 1 vs 8" ~count:4
    QCheck.(pair (int_range 10_000 40_000) (int_range 1 1000))
    (fun (duration, seed) ->
      let run jobs =
        let outcomes =
          Runner.Sweep.run ~jobs
            (Workload.Queue_bench.cells
               ~threads:[ 2; 8 ] ~duration ~seed ())
        in
        render [ Workload.Queue_bench.to_table (Runner.Sweep.values outcomes) ]
      in
      String.equal (run 1) (run 8))

let test_scale_jobs_byte_identity () =
  (* The scale cells at a reduced thread ladder: wide machines must obey
     the same contract. *)
  let run jobs =
    let outcomes =
      Runner.Sweep.run ~jobs
        (Workload.Scale_bench.cells ~threads:[ 16; 64 ] ~duration:20_000 ~seed:9 ())
    in
    render (Workload.Scale_bench.to_tables (Runner.Sweep.values outcomes))
  in
  Alcotest.(check string) "scale tables identical at jobs 1 vs 8" (run 1) (run 8)

let () =
  Alcotest.run "perf"
    [
      ( "zero-alloc",
        [
          Alcotest.test_case "fig1 x16 cell, no observers" `Quick
            test_zero_alloc_per_access;
          Alcotest.test_case "fig1 x1 cell, strict budget" `Quick
            test_zero_alloc_single_thread;
          Alcotest.test_case "machine construction" `Quick test_construction_cost;
          Alcotest.test_case "RNG and fault-plan draws" `Quick test_zero_alloc_draws;
        ] );
      ( "determinism",
        [
          QCheck_alcotest.to_alcotest test_jobs_byte_identity;
          Alcotest.test_case "scale cells, jobs 1 vs 8" `Quick
            test_scale_jobs_byte_identity;
        ] );
    ]
