(* The benchmark's own tests: tiny runs print every metric, every
   correctness check fires on a known-bad input, and digests follow the
   seed. *)

open Perfbench

let end_to_end_names =
  [ "setup_s"; "cpu_s"; "vops_per_s"; "ops_per_s"; "peak_rss_mb" ]

let per_layer_names =
  [ "sim.switches"; "sim.decisions"; "sim.switch_ns"; "sim.switch_ns_x4"; "sim.switch_ns_x16";
    "sim.switch_ns_x256"; "sim.switch_share"; "simmem.reads"; "simmem.read_misses";
    "simmem.writes"; "simmem.write_misses"; "simmem.atomics"; "simmem.allocs";
    "simmem.frees"; "simmem.miss_ratio"; "simmem.queue_wait_cycles"; "simmem.access_ns";
    "simmem.malloc_free_ns"; "simmem.create_ms_4k"; "simmem.create_ms_1m";
    "simmem.heap_extent"; "htm.attempts"; "htm.commits"; "htm.aborts_conflict";
    "htm.aborts_overflow"; "htm.aborts_other"; "htm.fallbacks"; "htm.commit_ratio";
    "htm.tx_ns"; "stm.attempts"; "stm.commits"; "stm.aborts"; "stm.commit_ratio";
    "stm.tx_ns"; "hqueue.ops"; "hqueue.vcycles_per_op"; "hqueue.op_us_p50";
    "hqueue.op_us_p99"; "core.ops"; "core.vcycles_per_collect"; "core.collect_us_p50";
    "core.collect_us_p99"; "core.update_us_p50"; "core.update_us_p99";
    "workload.machine_ms"; "workload.prefill_ms"; "explore.schedules";
    "explore.schedule_ms_p50"; "explore.schedule_ms_p99"; "obs.trace_overhead";
    "gc.minor_words_per_vop"; "gc.major_collections"; "budget.sim_s"; "budget.simmem_s";
    "budget.htm_s"; "budget.stm_s"; "budget.setup_s"; "budget.residual" ]

let contains s sub =
  let n = String.length s and k = String.length sub in
  let rec go i = i + k <= n && (String.sub s i k = sub || go (i + 1)) in
  go 0

let tiny_run ~traced name () =
  match Bench.run ~size:Bench.Tiny ~seed:1 ~seconds:0. ~traced name with
  | Error e -> Alcotest.fail e
  | Ok json ->
    List.iter
      (fun n ->
        if not (contains json (Printf.sprintf "%S: {\"value\"" n)) then
          Alcotest.failf "%s: metric %s missing from %s" name n json)
      (if traced then per_layer_names else end_to_end_names);
    if not (contains json "\"correct\": true, ") || not (contains json "\"failed\": 0,")
    then Alcotest.failf "%s: failed units in %s" name json

let failures_of (r : Bench.round) = r.failures

let expect_failure what (r : Cells.result) =
  match r.verdict with
  | Ok () -> Alcotest.failf "%s: check did not fire" what
  | Error _ -> ()

(* A queue whose boot-context dequeues report empty: the drain count
   disagrees with prefill + enqueued - dequeued. *)
let test_queue_count () =
  let mk = Hqueue.Htm_queue.maker in
  let lying =
    { mk with
      make =
        (fun htm ctx ~num_threads ->
          let q = mk.make htm ctx ~num_threads in
          { q with
            dequeue_drop =
              (fun ctx -> if Sim.tid ctx = Sim.boot_tid then false else q.dequeue_drop ctx) })
    }
  in
  expect_failure "queue count"
    ((Cells.queue_cell lying ~threads:4 ~prefill:8 ~duration:20_000 ~seed:3).run ())

(* A reclaiming queue whose destroy frees nothing. *)
let test_queue_reclaim () =
  let mk = Hqueue.Htm_queue.maker in
  let leaky =
    { mk with
      make =
        (fun htm ctx ~num_threads ->
          { (mk.make htm ctx ~num_threads) with destroy = (fun _ -> ()) }) }
  in
  expect_failure "queue reclaim"
    ((Cells.queue_cell leaky ~threads:4 ~prefill:8 ~duration:20_000 ~seed:3).run ())

(* A collect that drops one value when run from the boot context. *)
let test_collect () =
  let mk = Collect.Array_dyn_append_dereg.maker in
  let dropping =
    { mk with
      make =
        (fun htm ctx cfg ->
          let i = mk.make htm ctx cfg in
          { i with
            collect =
              (fun ctx buf ->
                i.collect ctx buf;
                if Sim.tid ctx = Sim.boot_tid && Sim.Ibuf.length buf > 0 then
                  Sim.Ibuf.reset_to buf (Sim.Ibuf.length buf - 1)) }) }
  in
  expect_failure "telescoping collect"
    ((Cells.telescoping_cell dropping ~updaters:3 ~period:10_000 ~duration:40_000 ~seed:3)
       .run ());
  expect_failure "collect mix"
    ((Cells.mix_collect_cell dropping ~threads:4 ~duration:20_000 ~seed:3).run ())

(* One word of a 48-word block disagrees with the others. *)
let test_torn_block () =
  let mem = Simmem.create () in
  let boot = Sim.boot () in
  let base = Simmem.malloc mem boot Cells.span in
  for j = 0 to Cells.span - 1 do
    Simmem.write mem boot (base + j) 5
  done;
  (match Cells.check_block mem ~base ~span:Cells.span ~expect:5 with
   | Ok () -> ()
   | Error e -> Alcotest.failf "intact block rejected: %s" e);
  Simmem.write mem boot (base + 17) 4;
  match Cells.check_block mem ~base ~span:Cells.span ~expect:5 with
  | Ok () -> Alcotest.fail "torn block accepted"
  | Error _ -> ()

(* The seeded broken-ROP mutant must surface as failed schedules. *)
let test_broken_rop () =
  let scenarios () =
    match Explore.Scenario.build ~key:"broken-rop" ~threads:3 ~ops:5 () with
    | Ok s -> [ s ]
    | Error e -> Alcotest.fail e
  in
  let wl = Bench.explore ~scenarios ~rounds:60 ~seed:1 () in
  if failures_of (Bench.run_round wl) = [] then
    Alcotest.fail "broken-rop: every schedule passed"

(* A unit whose digest differs from the reference fails. *)
let test_digest_mismatch () =
  let wl = Bench.queue_x16 ~size:Bench.Tiny ~seed:1 in
  let r = Bench.run_round wl in
  Alcotest.(check int) "clean round" 0 (List.length r.failures);
  let wrong = Array.map (fun d -> d lxor 1) r.digests in
  let r' = Bench.run_round ~reference:wrong wl in
  Alcotest.(check int) "every unit fails" (Array.length wrong) (List.length r'.failures)

let digest name seed =
  let wl = Option.get (Bench.find ~size:Bench.Tiny ~seed name) in
  Bench.digest (Bench.measure ~seconds:0. wl)

let test_digest_follows_seed name () =
  let a = digest name 1 and b = digest name 1 and c = digest name 2 in
  Alcotest.(check int) "same seed, same digest" a b;
  if a = c then Alcotest.fail "another seed gave the same digest"

let () =
  let per_workload f = List.map (fun n -> Alcotest.test_case n `Quick (f n)) Bench.names in
  Alcotest.run "perfbench"
    [
      ("end-to-end", per_workload (tiny_run ~traced:false));
      ("per-layer", per_workload (tiny_run ~traced:true));
      ( "checks",
        [ Alcotest.test_case "queue count" `Quick test_queue_count;
          Alcotest.test_case "queue reclaim" `Quick test_queue_reclaim;
          Alcotest.test_case "quiescent collect" `Quick test_collect;
          Alcotest.test_case "torn block" `Quick test_torn_block;
          Alcotest.test_case "broken-rop schedules" `Quick test_broken_rop;
          Alcotest.test_case "digest mismatch" `Quick test_digest_mismatch ] );
      ("determinism", per_workload test_digest_follows_seed);
    ]
