(* Workloads, the timed loop, and the report.

   A workload is a fixed round of units derived from the seed. One
   untimed warm-up round fixes the reference digests and the per-round
   simulated counts; timed rounds then repeat it until the time is up,
   and every unit's digest must equal its warm-up digest. *)

open Stats
open Cells

type size = Full | Tiny

type workload = {
  name : string;
  threads : int;  (** simulated threads per cell, for the switch probe *)
  prepare : unit -> cell list;
      (** builds the round's units; timed as set-up (scenario lists) *)
}

let cell_seed seed i = 1 + (mix (mix digest_init seed) i land 0x3fff_ffff)

let pick size ~full ~tiny = match size with Full -> full | Tiny -> tiny

let queue_x16 ~size ~seed =
  let duration = pick size ~full:400_000 ~tiny:20_000 in
  let cells =
    List.mapi
      (fun i mk -> queue_cell mk ~threads:16 ~prefill:64 ~duration ~seed:(cell_seed seed i))
      Hqueue.all
  in
  { name = "queue-x16"; threads = 16; prepare = (fun () -> cells) }

let policy name =
  List.find
    (fun (p : Workload.Fallback_bench.policy) -> String.equal p.pol_name name)
    Workload.Fallback_bench.policies

let tx_long ~size ~seed =
  let threads = 4 in
  let duration = pick size ~full:1_000_000 ~tiny:40_000 in
  let period = pick size ~full:100_000 ~tiny:10_000 in
  let cells =
    [ telescoping_cell Collect.Array_dyn_append_dereg.maker ~updaters:(threads - 1) ~period
        ~duration ~seed:(cell_seed seed 0);
      block_cell (policy "hybrid") ~threads ~duration ~seed:(cell_seed seed 1);
      block_cell (policy "stm-only") ~threads ~duration ~seed:(cell_seed seed 2) ]
  in
  { name = "tx-long"; threads; prepare = (fun () -> cells) }

(* [rounds] passes over the scenario list: the strategy rotation (min-clock,
   random walks, PCT) and the fault rounds both advance per pass. *)
let explore ?(scenarios = fun () -> Explore.Scenario.queues ~threads:3 ~ops:5 ()
                                     @ Explore.Scenario.collects ~threads:3 ~ops:5 ())
    ~rounds ~seed () =
  let base_seed = cell_seed seed 0 in
  let prepare () =
    let scns = scenarios () in
    List.init (rounds * List.length scns) (schedule_cell scns ~base_seed)
  in
  { name = "explore-search"; threads = 3; prepare }

let explore_search ~size ~seed = explore ~rounds:(pick size ~full:16 ~tiny:1) ~seed ()

let names = [ "queue-x16"; "tx-long"; "explore-search" ]

let find ~size ~seed = function
  | "queue-x16" -> Some (queue_x16 ~size ~seed)
  | "tx-long" -> Some (tx_long ~size ~seed)
  | "explore-search" -> Some (explore_search ~size ~seed)
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Rounds                                                              *)
(* ------------------------------------------------------------------ *)

type round = {
  setup_ns : int;  (** [prepare] plus every cell's machine and prefill, CPU *)
  run_ns : int;  (** sum of the measured phases, CPU *)
  wall_ns : int;  (** sum of the measured phases, wall *)
  unit_runs : float list;  (** measured phase per passing unit, CPU seconds *)
  machine_ms : float list;
  prefill_ms : float list;
  minor_words : float;
  totals : counts;
  digests : int array;
  failures : (string * string) list;  (** (unit, reason) *)
}

let run_round ?(after_unit = ignore) ?reference wl =
  let t0 = cpu_ns () in
  let cells = wl.prepare () in
  let prep_ns = cpu_ns () - t0 in
  let totals = zero () in
  let setup = ref prep_ns and run = ref 0 and wall = ref 0 and minor = ref 0. in
  let runs = ref [] and machines = ref [] and prefills = ref [] and failures = ref [] in
  let digests =
    Array.of_list
      (List.mapi
         (fun k cell ->
           let verdict, digest =
             match cell.run () with
             | exception e -> (Error ("raised " ^ Printexc.to_string e), 0)
             | r ->
               setup := !setup + r.machine_ns + r.prefill_ns;
               run := !run + r.run_ns;
               wall := !wall + r.run_wall_ns;
               minor := !minor +. r.minor_words;
               add_into totals r.counts;
               if r.machine_ns > 0 then begin
                 machines := (float_of_int r.machine_ns *. 1e-6) :: !machines;
                 prefills := (float_of_int r.prefill_ns *. 1e-6) :: !prefills
               end;
               let verdict =
                 match (r.verdict, reference) with
                 | Ok (), Some d when d.(k) <> r.digest ->
                   Error
                     (Printf.sprintf "digest %016x differs from the warm-up run's %016x"
                        r.digest d.(k))
                 | v, _ -> v
               in
               if Result.is_ok verdict then runs := seconds_of_ns r.run_ns :: !runs;
               (verdict, r.digest)
           in
           (match verdict with
            | Ok () -> ()
            | Error msg -> failures := (cell.label, msg) :: !failures);
           after_unit ();
           digest)
         cells)
  in
  { setup_ns = !setup; run_ns = !run; wall_ns = !wall; unit_runs = !runs;
    machine_ms = !machines; prefill_ms = !prefills; minor_words = !minor; totals; digests;
    failures = List.rev !failures }

let traced_round ?reference wl =
  tracing := true;
  Fun.protect ~finally:(fun () -> tracing := false) (fun () -> run_round ?reference wl)

(* The host times of the untraced timed rounds, one entry per round. Only
   these are kept of those rounds, so the process's memory does not grow
   with the number of rounds a run gets through. *)
type times = {
  setup : Buf.t;  (** CPU ns of set-up *)
  run : Buf.t;  (** CPU ns of the measured phases *)
  wall : Buf.t;  (** wall ns of the measured phases *)
  cal : Buf.t;  (** mean CPU ns of the calibration slices of the round *)
  mutable minor : float;  (** minor words allocated in the measured phases *)
}

type measurement = {
  warm : round;
  plain : times;  (** untraced timed rounds *)
  traced : round list;  (** traced timed rounds (trace mode only) *)
  gc_major : int;  (** major collections during the untraced timed rounds *)
  attempted : int;  (** units run, warm-up round included *)
  failed : int;
  shown : (string * string) list;  (** the first five failures *)
}

(* Run the warm-up round, then timed rounds until [seconds] of wall time
   have passed (at least two of each kind). In trace mode, rounds
   alternate between untraced and traced, so the two kinds come from the
   same stretch of host time. *)
let measure ?(traced = false) ~seconds wl =
  tracing := false;
  let warm = run_round wl in
  let reference = warm.digests in
  ignore (Calib.slice ());
  let cal = Calib.sampler () in
  let plain =
    { setup = Buf.create (); run = Buf.create (); wall = Buf.create (); cal = Buf.create ();
      minor = 0. }
  in
  let trc = ref [] and gc_major = ref 0 in
  let attempted = ref 0 and failed = ref 0 and shown = ref [] in
  let tally r =
    attempted := !attempted + Array.length r.digests;
    failed := !failed + List.length r.failures;
    List.iter (fun f -> if List.length !shown < 5 then shown := f :: !shown) r.failures
  in
  tally warm;
  let min_rounds = if traced then 4 else 2 in
  let deadline = wall_ns () + int_of_float (seconds *. 1e9) in
  let n = ref 0 in
  while !n < min_rounds || wall_ns () < deadline do
    if traced && !n land 1 = 1 then begin
      let r = traced_round ~reference wl in
      tally r;
      trc := r :: !trc
    end
    else begin
      let g0 = (Gc.quick_stat ()).major_collections in
      let r = run_round ~after_unit:(fun () -> Calib.after_unit cal) ~reference wl in
      gc_major := !gc_major + ((Gc.quick_stat ()).major_collections - g0);
      tally r;
      Buf.add plain.setup r.setup_ns;
      Buf.add plain.run r.run_ns;
      Buf.add plain.wall r.wall_ns;
      plain.minor <- plain.minor +. r.minor_words;
      Buf.add plain.cal (int_of_float (Calib.after_round cal))
    end;
    incr n
  done;
  { warm; plain; traced = List.rev !trc; gc_major = !gc_major; attempted = !attempted;
    failed = !failed; shown = List.rev !shown }

(* The workload digest: every unit's digest from the warm-up round. *)
let digest ms = Array.fold_left mix digest_init ms.warm.digests

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)
(* ------------------------------------------------------------------ *)

type metric = { name : string; unit : string; value : float; note : string }

let m ?(note = "") name unit value = { name; unit; value; note }
let arr l = Array.of_list l
let secs b = Array.map (fun ns -> ns *. 1e-9) (Buf.to_floats b)

(* Median over rounds of a per-round host time in ns, in seconds. *)
let median_s f rounds = median (arr (List.map (fun r -> seconds_of_ns (f r)) rounds))

let peak_rss_mb () =
  let from_status () =
    In_channel.with_open_text "/proc/self/status" (fun ic ->
        let rec go () =
          match In_channel.input_line ic with
          | None -> None
          | Some l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
            Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d kB" (fun kb ->
                Some (float_of_int kb /. 1024.))
          | Some _ -> go ()
        in
        go ())
  in
  match from_status () with
  | Some mb -> mb
  | None | (exception _) ->
    float_of_int ((Gc.quick_stat ()).top_heap_words * (Sys.word_size / 8))
    /. (1024. *. 1024.)

(* A per-round host time's sample count, p95 (a 20-second run leaves at
   least ten rounds beyond it) and the highest percentile this run
   supports. *)
let spread_note xs =
  let pct q = Printf.sprintf "p%g %.6g s" (q *. 100.) (quantile xs q) in
  let supported =
    match tail_level (Array.length xs) with
    | Some q -> "; highest supported " ^ pct q
    | None -> ""
  in
  Printf.sprintf "median of %d rounds; %s%s" (Array.length xs) (pct 0.95) supported

(* Host times are CPU times at the reference host speed, as medians over
   rounds. On a shared host the process waits for a CPU for stretches of
   seconds, which moved wall time by up to half from run to run, and while
   neighbours load the machine the CPU itself runs slower, which moved CPU
   time up to 2.6-fold for minutes at a stretch. CPU time leaves the wait
   out; scaling each round by the calibration slices taken during it
   takes the slowdown out ([Calib]); the median leaves out rounds that a
   collection or a burst of interference hit. Every round does the same
   simulated work (the digest check makes sure), so the rates are one
   round's work over [cpu_s]. *)
let scaled t b =
  Array.map2
    (fun ns cal -> ns *. 1e-9 *. Calib.reference_ns /. cal)
    (Buf.to_floats b) (Buf.to_floats t.cal)

let end_to_end ms =
  let t = ms.plain in
  let run = scaled t t.run in
  let cpu = median run in
  let per_round = ms.warm.totals in
  [ m "setup_s" "s" (median (scaled t t.setup))
      ~note:
        (Printf.sprintf
           "host CPU at reference speed: machines, make and prefill of one round; median of %d \
            rounds"
           (Array.length run));
    m "cpu_s" "s" cpu
      ~note:("host CPU at reference speed: measured phases of one round; " ^ spread_note run);
    m "vops_per_s" "1/s" (float_of_int per_round.vops /. cpu)
      ~note:(Printf.sprintf "%d simulated memory accesses per round / cpu_s" per_round.vops);
    m "ops_per_s" "1/s" (float_of_int per_round.ops /. cpu)
      ~note:(Printf.sprintf "%d completed simulated operations per round / cpu_s" per_round.ops);
    m "peak_rss_mb" "MB" (peak_rss_mb ()) ~note:"host: high-water mark of this process" ]

(* How fast the host ran, and the times before scaling, printed beside the
   metrics. *)
let speed_line ms =
  let t = ms.plain in
  let cal = median (Buf.to_floats t.cal) in
  m "host_speed" "ratio" (Calib.reference_ns /. cal)
    ~note:
      (Printf.sprintf
         "reference / calibration slice (median %.0f ns); unscaled medians: setup_s %.6g s, \
          cpu_s %.6g s"
         cal (median (secs t.setup)) (median (secs t.run)))

(* The measured phase in wall time, printed beside the metrics. *)
let wall_line ms =
  let walls = secs ms.plain.wall in
  m "wall_s" "s" (median walls)
    ~note:("host wall: measured phases of one round; " ^ spread_note walls)

let us buf = Array.map (fun x -> x *. 1e-3) (Buf.to_floats buf)

(* Traced stand-ins for layers the workload does not drive, so every
   host-time metric is measured on every workload: a 4-thread HTM queue
   cell when no queue call was timed, a 4-thread telescoping collect cell
   when no collect or update was. *)
let stand_ins () =
  let seed = 7 in
  let q =
    if Buf.length queue_op_ns > 0 then []
    else [ queue_cell Hqueue.Htm_queue.maker ~threads:4 ~prefill:16 ~duration:100_000 ~seed ]
  in
  let t =
    if Buf.length collect_ns > 0 && Buf.length update_ns > 0 then []
    else
      [ telescoping_cell Collect.Array_dyn_append_dereg.maker ~updaters:3 ~period:20_000
          ~duration:200_000 ~seed ]
  in
  match q @ t with
  | [] -> []
  | cells ->
    let wl = { name = "stand-in"; threads = 4; prepare = (fun () -> cells) } in
    List.init 3 (fun _ -> traced_round wl)

let per_layer ~size wl ms =
  let c = ms.warm.totals in
  let fi = float_of_int in
  let ratio a b = if b = 0 then 0. else fi a /. fi b in
  (* probes *)
  let n full = pick size ~full ~tiny:(full / 20) in
  let sw t = Probes.switch_ns ~threads:t ~switches:(n 50_000) in
  let sw4 = sw 4 and sw16 = sw 16 and sw256 = sw 256 in
  let sw_wl =
    match wl.threads with 4 -> sw4 | 16 -> sw16 | 256 -> sw256 | t -> sw t
  in
  let access = Probes.access_ns ~n:(n 200_000) in
  let mfree = Probes.malloc_free_ns ~n:(n 50_000) in
  let create_4k = Probes.create_ms ~words:4096 () in
  let create_1m = Probes.create_ms ~threads:256 ~words:(1 lsl 20) () in
  let htm_tx = Probes.htm_tx_ns ~access_ns:access ~n:(n 20_000) in
  let stm_tx = Probes.stm_tx_ns ~access_ns:access ~n:(n 2_000) in
  (* host spans: the workload's traced rounds, else stand-ins *)
  let stand_ins = stand_ins () in
  let samples f =
    arr (match List.concat_map f ms.traced with [] -> List.concat_map f stand_ins | l -> l)
  in
  let machine_ms = samples (fun r -> r.machine_ms) in
  let prefill_ms = samples (fun r -> r.prefill_ms) in
  let sched =
    let rounds =
      if c.schedules > 0 then ms.traced else [ traced_round (explore ~rounds:1 ~seed:7 ()) ]
    in
    arr (List.concat_map (fun r -> List.map (fun s -> s *. 1e3) r.unit_runs) rounds)
  in
  let q_us = us queue_op_ns and col_us = us collect_ns and upd_us = us update_ns in
  (* walls *)
  let plain_rounds = Buf.length ms.plain.run in
  let plain_cpu = median (secs ms.plain.run) in
  let traced_cpu = median_s (fun r -> r.run_ns) ms.traced in
  (* budget, per round *)
  let accesses = c.reads + c.writes + c.atomics in
  let b_sim = fi c.switches *. sw_wl *. 1e-9 in
  (* every explored schedule builds its own default-size machine *)
  let b_simmem =
    ((fi accesses *. access) +. (fi (c.allocs + c.frees) *. mfree /. 2.)) *. 1e-9
    +. (fi c.schedules *. create_4k *. 1e-3)
  in
  let b_htm = fi c.htm_attempts *. htm_tx *. 1e-9 in
  let b_stm = fi c.stm_attempts *. stm_tx *. 1e-9 in
  let b_setup = fi c.machines *. create_4k *. 1e-3 in
  let residual = (plain_cpu -. (b_sim +. b_simmem +. b_htm +. b_stm)) /. plain_cpu in
  [ m "sim.switches" "count" (fi c.switches) ~note:"Sim.yield_count delta per round";
    m "sim.decisions" "count" (fi (c.switches + c.threads))
      ~note:"scheduler picks per round: switches plus each thread's first pick";
    m "sim.switch_ns" "ns" sw_wl
      ~note:(Printf.sprintf "host: Sim.tick ping-pong at %d threads" wl.threads);
    m "sim.switch_ns_x4" "ns" sw4;
    m "sim.switch_ns_x16" "ns" sw16;
    m "sim.switch_ns_x256" "ns" sw256;
    m "sim.switch_share" "ratio" (b_sim /. plain_cpu) ~note:"switches x switch_ns / round CPU";
    m "simmem.reads" "count" (fi c.reads);
    m "simmem.read_misses" "count" (fi c.read_misses);
    m "simmem.writes" "count" (fi c.writes);
    m "simmem.write_misses" "count" (fi c.write_misses);
    m "simmem.atomics" "count" (fi c.atomics);
    m "simmem.allocs" "count" (fi c.allocs);
    m "simmem.frees" "count" (fi c.frees);
    m "simmem.miss_ratio" "ratio" (ratio (c.read_misses + c.write_misses) (c.reads + c.writes));
    m "simmem.queue_wait_cycles" "cycles" (fi c.queue_wait)
      ~note:"simulated; sum of mem.queue_wait log2 bucket floors";
    m "simmem.access_ns" "ns" access ~note:"host: read or write on a boot context";
    m "simmem.malloc_free_ns" "ns" mfree ~note:"host: one malloc and its free";
    m "simmem.create_ms_4k" "ms" create_4k ~note:"host: Simmem.create of 4096 words";
    m "simmem.create_ms_1m" "ms" create_1m ~note:"host: Simmem.create of 2^20 words, 256 threads";
    m "simmem.heap_extent" "words" (fi c.heap_extent);
    m "htm.attempts" "count" (fi c.htm_attempts);
    m "htm.commits" "count" (fi c.htm_commits);
    m "htm.aborts_conflict" "count" (fi c.aborts_conflict);
    m "htm.aborts_overflow" "count" (fi c.aborts_overflow);
    m "htm.aborts_other" "count" (fi c.aborts_other);
    m "htm.fallbacks" "count" (fi c.fallbacks) ~note:"escalations to STM plus TLE lock takes";
    m "htm.commit_ratio" "ratio" (ratio c.htm_commits c.htm_attempts);
    m "htm.tx_ns" "ns" htm_tx ~note:"host: 8-word hardware transaction, net of its accesses";
    m "stm.attempts" "count" (fi c.stm_attempts);
    m "stm.commits" "count" (fi c.stm_commits);
    m "stm.aborts" "count" (fi c.stm_aborts);
    m "stm.commit_ratio" "ratio" (ratio c.stm_commits c.stm_attempts);
    m "stm.tx_ns" "ns" stm_tx ~note:"host: 48-word TL2 transaction, net of its accesses";
    m "hqueue.ops" "count" (fi c.q_ops);
    m "hqueue.vcycles_per_op" "cycles" (ratio c.q_vcycles c.q_ops) ~note:"simulated";
    m "hqueue.op_us_p50" "us" (median q_us) ~note:(Printf.sprintf "host; %d samples" (Array.length q_us));
    m "hqueue.op_us_p99" "us" (quantile q_us 0.99);
    m "core.ops" "count" (fi c.core_ops);
    m "core.vcycles_per_collect" "cycles" (ratio c.collect_vcycles c.collects) ~note:"simulated";
    m "core.collect_us_p50" "us" (median col_us)
      ~note:(Printf.sprintf "host; %d samples" (Array.length col_us));
    m "core.collect_us_p99" "us" (quantile col_us 0.99);
    m "core.update_us_p50" "us" (median upd_us)
      ~note:(Printf.sprintf "host; %d samples" (Array.length upd_us));
    m "core.update_us_p99" "us" (quantile upd_us 0.99);
    m "workload.machine_ms" "ms" (median machine_ms) ~note:"host: Driver.machine";
    m "workload.prefill_ms" "ms" (median prefill_ms) ~note:"host: maker.make and prefill";
    m "explore.schedules" "count" (fi c.schedules);
    m "explore.schedule_ms_p50" "ms" (median sched)
      ~note:(Printf.sprintf "host; %d samples" (Array.length sched));
    m "explore.schedule_ms_p99" "ms" (quantile sched 0.99);
    m "obs.trace_overhead" "ratio" ((traced_cpu /. plain_cpu) -. 1.)
      ~note:"median traced round CPU / median untraced round CPU - 1";
    m "gc.minor_words_per_vop" "words"
      (ms.plain.minor /. fi (plain_rounds * c.vops));
    m "gc.major_collections" "count"
      (fi ms.gc_major /. fi plain_rounds)
      ~note:"per untraced round";
    m "budget.sim_s" "s" b_sim ~note:"switches x sim.switch_ns, per round";
    m "budget.simmem_s" "s" b_simmem
      ~note:"accesses x access_ns + allocator calls x malloc_free_ns / 2 + schedules x create_ms_4k";
    m "budget.htm_s" "s" b_htm ~note:"htm.attempts x htm.tx_ns";
    m "budget.stm_s" "s" b_stm ~note:"stm.attempts x stm.tx_ns";
    m "budget.setup_s" "s" b_setup
      ~note:(Printf.sprintf "machines x create_ms; measured set-up %.6g s"
               (median (secs ms.plain.setup)));
    m "budget.residual" "ratio" residual
      ~note:(Printf.sprintf "(round CPU %.6g s - sim - simmem - htm - stm) / round CPU" plain_cpu) ]

(* ------------------------------------------------------------------ *)
(* Report                                                              *)
(* ------------------------------------------------------------------ *)

(* The shortest rendering that reads back as the same float. *)
let json_number x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else if Float.is_finite x then
    let s15 = Printf.sprintf "%.15g" x in
    if float_of_string s15 = x then s15 else Printf.sprintf "%.17g" x
  else "0"

let json_line ~correct ~attempted ~failed metrics =
  let b = Buffer.create 1024 in
  Printf.bprintf b "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {" correct
    attempted failed;
  List.iteri
    (fun i x ->
      Printf.bprintf b "%s\"%s\": {\"value\": %s, \"unit\": \"%s\"}"
        (if i = 0 then "" else ", ")
        x.name (json_number x.value) x.unit)
    metrics;
  Buffer.add_string b "}}";
  Buffer.contents b

let run ~size ~seed ~seconds ~traced name =
  match find ~size ~seed name with
  | None -> Error (Printf.sprintf "unknown workload %S (one of: %s)" name (String.concat ", " names))
  | Some wl ->
    clear_spans ();
    let ms = measure ~traced ~seconds wl in
    let metrics = if traced then per_layer ~size wl ms else end_to_end ms in
    let printed = if traced then metrics else metrics @ [ speed_line ms; wall_line ms ] in
    let attempted = ms.attempted and failed = ms.failed in
    Printf.printf
      "workload %s  seed %d  %s run  (host: CPU unless marked wall; simulated: virtual cycles)\n"
      wl.name seed (if traced then "traced" else "untraced");
    Printf.printf "units per round %d: %s\n" (Array.length ms.warm.digests)
      (String.concat ", "
         (List.sort_uniq String.compare (List.map (fun c -> c.label) (wl.prepare ()))));
    Printf.printf "rounds %d timed + 1 warm-up\n" (Buf.length ms.plain.run + List.length ms.traced);
    Printf.printf "digest %016x\n" (digest ms);
    List.iter (fun (label, msg) -> Printf.printf "FAILED %s: %s\n" label msg) ms.shown;
    List.iter
      (fun x ->
        Printf.printf "%-26s %14.6g %-6s %s\n" x.name x.value x.unit x.note)
      printed;
    Printf.printf "%-26s %14.6g %-6s %d failed / %d attempted units\n" "fail_rate"
      (float_of_int failed /. float_of_int attempted) "ratio" failed attempted;
    Ok (json_line ~correct:(failed = 0) ~attempted ~failed metrics)
