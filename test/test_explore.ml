(* The explorer machinery: strategy determinism, the deviation/replay
   invariant, PCT change-point properties, and the end-to-end pipeline
   (find -> shrink -> artifact -> deterministic replay) on the two seeded
   known-bad scenarios. *)

module E = Explore

let run_recorded ~strategy ~seed (scn : E.Scenario.t) =
  let r = Sim.recorder () in
  let outcome =
    scn.scn_run ~strategy ~seed ~faults:None ~record:(Some r) ~trace:None
  in
  (outcome, r)

let racy = E.Scenario.racy_counter ~threads:3 ~ops:5 ()

(* Same seed and strategy => byte-identical decision strings. *)
let test_strategy_determinism () =
  List.iter
    (fun strategy ->
      let _, r1 = run_recorded ~strategy ~seed:7 racy in
      let _, r2 = run_recorded ~strategy ~seed:7 racy in
      Alcotest.(check string)
        (Format.asprintf "%a" Sim.pp_strategy strategy)
        (Sim.decision_string r1) (Sim.decision_string r2))
    [
      Sim.Min_clock;
      Sim.Random_walk { rw_seed = 42 };
      Sim.Pct { pct_seed = 42; pct_depth = 3; pct_length = 200 };
    ]

(* An empty deviation list IS the min-clock schedule. *)
let test_deviate_empty_is_min_clock () =
  let _, r1 = run_recorded ~strategy:Sim.Min_clock ~seed:7 racy in
  let _, r2 = run_recorded ~strategy:(Sim.Deviate []) ~seed:7 racy in
  Alcotest.(check string)
    "picks equal" (Sim.decision_string r1) (Sim.decision_string r2)

(* The replay invariant behind shrinking: re-running under Deviate
   (deviations r) reproduces the recorded schedule pick-for-pick. *)
let test_replay_invariant () =
  List.iter
    (fun strategy ->
      let _, r1 = run_recorded ~strategy ~seed:13 racy in
      let _, r2 =
        run_recorded ~strategy:(Sim.Deviate (Sim.deviations r1)) ~seed:13 racy
      in
      Alcotest.(check string)
        (Format.asprintf "replay of %a" Sim.pp_strategy strategy)
        (Sim.decision_string r1) (Sim.decision_string r2))
    [
      Sim.Random_walk { rw_seed = 99 };
      Sim.Pct { pct_seed = 99; pct_depth = 4; pct_length = 300 };
    ]

let prop_pct_change_points =
  QCheck.Test.make ~name:"pct_change_points: count, range, order, determinism"
    ~count:200
    QCheck.(triple small_int small_int small_int)
    (fun (seed, depth, length) ->
      let pts = Sim.pct_change_points ~seed ~depth ~length in
      let again = Sim.pct_change_points ~seed ~depth ~length in
      List.length pts = max 0 (depth - 1)
      && List.for_all (fun p -> p >= 0 && p < max 1 length) pts
      && List.sort compare pts = pts
      && pts = again)

let find_one ~budget scn =
  match E.Search.search ~base_seed:1 ~max_violations:1 ~budget [ scn ] with
  | { res_violations = [ v ]; _ } -> v
  | { res_violations = []; _ } ->
    Alcotest.failf "no violation found in %s within %d schedules" scn.E.Scenario.scn_key
      budget
  | _ -> assert false

let check_found_shrunk_replays ~budget scn =
  let v = find_one ~budget scn in
  let a = v.vio_artifact in
  Alcotest.(check bool) "recorded deviations reproduced the failure" true v.vio_replayed;
  if List.length a.art_deviations > 20 then
    Alcotest.failf "shrunken trace has %d deviations (> 20)"
      (List.length a.art_deviations);
  (* deterministic replay: twice, same failure *)
  let replay () =
    match E.Search.replay_artifact a with
    | Ok (E.Scenario.Fail msg) -> msg
    | Ok E.Scenario.Pass -> Alcotest.failf "artifact did not reproduce"
    | Error e -> Alcotest.failf "artifact did not resolve: %s" e
  in
  let m1 = replay () and m2 = replay () in
  Alcotest.(check string) "replay is deterministic" m1 m2

let test_racy_found () = check_found_shrunk_replays ~budget:60 racy

let broken_rop () = Result.get_ok (E.Scenario.build ~key:"broken-rop" ~threads:3 ~ops:5 ())

let test_broken_rop_found () = check_found_shrunk_replays ~budget:200 (broken_rop ())

(* The mutant's bug is schedule-dependent: the plain min-clock schedule
   must pass, or the queue tests themselves would have caught it. *)
let test_broken_rop_passes_min_clock () =
  let scn = broken_rop () in
  match scn.scn_run ~strategy:Sim.Min_clock ~seed:1 ~faults:None ~record:None ~trace:None with
  | E.Scenario.Pass -> ()
  | E.Scenario.Fail msg -> Alcotest.failf "failed under min-clock: %s" msg

let test_clean_queues () =
  let scns = E.Scenario.queues ~threads:3 ~ops:5 () in
  let s = E.Search.search ~base_seed:5 ~budget:60 scns in
  Alcotest.(check int) "violations" 0 (List.length s.res_violations);
  Alcotest.(check int) "runs" 60 s.res_runs

(* The explore trace of one small hybrid run, pinned line for line. Two
   threads increment a shared word through the full degradation lattice
   while a third overflows into the software path and is killed inside
   its STM commit, still holding the stripe locks: the survivors' STM
   attempts abort on the dead owner's lock, exhaust their budget into
   the TLE lock, and finally steal the stripes back. Every line kind the
   trace renders appears: the memory access kinds, commits on all three
   paths, aborts with conflict witnesses, escalations, the lock
   fallback, the steal, and stall and kill fault lines. *)
let golden_trace () =
  let mem = Simmem.create () in
  let config =
    { Htm.hybrid_config with
      stm_config = { Stm.default_config with clock_scheme = Stm.Gv1; lock_slots = 64; steal_timeout = 20_000 } }
  in
  let htm = Htm.create ~config mem in
  let boot = Sim.boot () in
  let a = Simmem.malloc mem boot 1 in
  let big = Simmem.malloc mem boot 40 in
  let tr = E.Trace.create () in
  let faults =
    Sim.Fault.make
      { Sim.Fault.none with
        fault_seed = 3;
        stall_rate = 0.01;
        stall_cycles = 400;
        spurious_abort_rate = 0.5;
        kills_at_point = [ (2, "stm.commit", 0) ] }
  in
  let incr ctx = Htm.atomic htm ctx (fun tx -> Htm.write tx a (Htm.read tx a + 1)) in
  Sim.run ~seed:5 ~faults ~observe:(E.Trace.observe tr)
    [|
      (fun ctx ->
        Sim.advance_to ctx 4000;
        for _ = 1 to 6 do incr ctx done);
      (fun ctx ->
        let b = Simmem.malloc mem ctx 2 in
        Simmem.free mem ctx b;
        Sim.advance_to ctx 4000;
        for _ = 1 to 6 do incr ctx done);
      (fun ctx ->
        Htm.atomic htm ctx (fun tx ->
            for i = 0 to 39 do Htm.write tx (big + i) i done;
            Htm.write tx a 100));
    |];
  E.Trace.lines tr

let golden_trace_expected = [
    "t2  @79        mem  read   0x8 -> 0";
    "t2  @79        htm  abort[hw]: overflow (attempt 0)";
    "t1  @84        mem  malloc 0x281 (2 words)";
    "t1  @144       mem  free   0x281 (2 words)";
    "t2  @179       htm  escalate to stm (attempt 1)";
    "t2  @259       mem  read   0x10 -> 0";
    "t2  @649       flt  stalled 294 cycles";
    "t2  @1023      mem  write  0x68 <- 964";
    "t2  @1073      mem  read   0x18 -> 0";
    "t2  @1096      mem  cas    0x18 0->3 ok";
    "t2  @1146      mem  read   0x30 -> 0";
    "t2  @1169      mem  cas    0x30 0->3 ok";
    "t2  @1177      mem  read   0x31 -> 0";
    "t2  @1200      mem  cas    0x31 0->3 ok";
    "t2  @1208      mem  read   0x32 -> 0";
    "t2  @1231      mem  cas    0x32 0->3 ok";
    "t2  @1239      mem  read   0x33 -> 0";
    "t2  @1262      mem  cas    0x33 0->3 ok";
    "t2  @1270      mem  read   0x34 -> 0";
    "t2  @1293      mem  cas    0x34 0->3 ok";
    "t2  @1301      mem  read   0x35 -> 0";
    "t2  @1324      mem  cas    0x35 0->3 ok";
    "t2  @1332      mem  read   0x36 -> 0";
    "t2  @1355      mem  cas    0x36 0->3 ok";
    "t2  @1363      mem  read   0x37 -> 0";
    "t2  @1386      mem  cas    0x37 0->3 ok";
    "t2  @1436      mem  read   0x38 -> 0";
    "t2  @1459      mem  cas    0x38 0->3 ok";
    "t2  @1467      mem  read   0x39 -> 0";
    "t2  @1490      mem  cas    0x39 0->3 ok";
    "t2  @1498      mem  read   0x3a -> 0";
    "t2  @1521      mem  cas    0x3a 0->3 ok";
    "t2  @1529      mem  read   0x3b -> 0";
    "t2  @1552      mem  cas    0x3b 0->3 ok";
    "t2  @1560      mem  read   0x3c -> 0";
    "t2  @1583      mem  cas    0x3c 0->3 ok";
    "t2  @1591      mem  read   0x3d -> 0";
    "t2  @1614      mem  cas    0x3d 0->3 ok";
    "t2  @1622      mem  read   0x3e -> 0";
    "t2  @1645      mem  cas    0x3e 0->3 ok";
    "t2  @1653      mem  read   0x3f -> 0";
    "t2  @1676      mem  cas    0x3f 0->3 ok";
    "t2  @1726      mem  read   0x40 -> 0";
    "t2  @1749      mem  cas    0x40 0->3 ok";
    "t2  @1757      mem  read   0x41 -> 0";
    "t2  @1780      mem  cas    0x41 0->3 ok";
    "t2  @1788      mem  read   0x42 -> 0";
    "t2  @1811      mem  cas    0x42 0->3 ok";
    "t2  @1819      mem  read   0x43 -> 0";
    "t2  @1842      mem  cas    0x43 0->3 ok";
    "t2  @1850      mem  read   0x44 -> 0";
    "t2  @1873      mem  cas    0x44 0->3 ok";
    "t2  @1881      mem  read   0x45 -> 0";
    "t2  @1904      mem  cas    0x45 0->3 ok";
    "t2  @1912      mem  read   0x46 -> 0";
    "t2  @1935      mem  cas    0x46 0->3 ok";
    "t2  @1943      mem  read   0x47 -> 0";
    "t2  @1966      mem  cas    0x47 0->3 ok";
    "t2  @2016      mem  read   0x48 -> 0";
    "t2  @2039      mem  cas    0x48 0->3 ok";
    "t2  @2047      mem  read   0x49 -> 0";
    "t2  @2070      mem  cas    0x49 0->3 ok";
    "t2  @2078      mem  read   0x4a -> 0";
    "t2  @2101      mem  cas    0x4a 0->3 ok";
    "t2  @2109      mem  read   0x4b -> 0";
    "t2  @2132      mem  cas    0x4b 0->3 ok";
    "t2  @2140      mem  read   0x4c -> 0";
    "t2  @2163      mem  cas    0x4c 0->3 ok";
    "t2  @2171      mem  read   0x4d -> 0";
    "t2  @2194      mem  cas    0x4d 0->3 ok";
    "t2  @2202      mem  read   0x4e -> 0";
    "t2  @2225      mem  cas    0x4e 0->3 ok";
    "t2  @2233      mem  read   0x4f -> 0";
    "t2  @2256      mem  cas    0x4f 0->3 ok";
    "t2  @2306      mem  read   0x50 -> 0";
    "t2  @2329      mem  cas    0x50 0->3 ok";
    "t2  @2337      mem  read   0x51 -> 0";
    "t2  @2360      flt  stalled 323 cycles";
    "t2  @2683      mem  cas    0x51 0->3 ok";
    "t2  @2691      mem  read   0x52 -> 0";
    "t2  @2714      mem  cas    0x52 0->3 ok";
    "t2  @2722      mem  read   0x53 -> 0";
    "t2  @2745      mem  cas    0x53 0->3 ok";
    "t2  @2753      mem  read   0x54 -> 0";
    "t2  @2776      mem  cas    0x54 0->3 ok";
    "t2  @2784      mem  read   0x55 -> 0";
    "t2  @2807      mem  cas    0x55 0->3 ok";
    "t2  @2815      flt  stalled 263 cycles";
    "t2  @3078      mem  read   0x56 -> 0";
    "t2  @3101      mem  cas    0x56 0->3 ok";
    "t2  @3109      mem  read   0x57 -> 0";
    "t2  @3132      mem  cas    0x57 0->3 ok";
    "t2  @3132      flt  killed at stm.commit";
    "t1  @4076      mem  read   0x8 -> 0";
    "t0  @4126      mem  read   0x8 -> 0";
    "t1  @4126      mem  read   0x258 -> 0";
    "t1  @4236      mem  write  0x258 <- 1";
    "t0  @4176      mem  read   0x258 -> 1";
    "t0  @4296      mem  write  0x258 <- 2";
    "t1  @4236      htm  commit[hw] (2 reads, 1 writes, attempt 0)";
    "t1  @4280      mem  read   0x8 -> 0";
    "t0  @4296      htm  commit[hw] (2 reads, 1 writes, attempt 0)";
    "t0  @4336      flt  spurious abort armed";
    "t0  @4336      htm  abort[hw]: spurious (attempt 0)";
    "t1  @4346      mem  read   0x258 -> 2";
    "t1  @4441      mem  write  0x258 <- 3";
    "t1  @4441      htm  commit[hw] (2 reads, 1 writes, attempt 0)";
    "t1  @4480      mem  read   0x8 -> 0";
    "t1  @4488      mem  read   0x258 -> 3";
    "t1  @4531      mem  write  0x258 <- 4";
    "t0  @4509      flt  spurious abort armed";
    "t0  @4509      htm  abort[hw]: spurious (attempt 1)";
    "t1  @4531      htm  commit[hw] (2 reads, 1 writes, attempt 0)";
    "t1  @4563      flt  spurious abort armed";
    "t1  @4563      htm  abort[hw]: spurious (attempt 0)";
    "t0  @4704      htm  escalate to stm (attempt 2)";
    "t1  @4761      mem  read   0x8 -> 0";
    "t1  @4769      mem  read   0x258 -> 4";
    "t1  @4812      mem  write  0x258 <- 5";
    "t0  @4773      mem  read   0x10 -> 0";
    "t1  @4812      htm  commit[hw] (2 reads, 1 writes, attempt 1)";
    "t0  @4835      mem  read   0x30 -> 3";
    "t1  @4845      flt  spurious abort armed";
    "t1  @4845      htm  abort[hw]: spurious (attempt 0)";
    "t0  @4885      mem  read   0x68 -> 964";
    "t0  @4885      htm  abort[stm]: lock-held (attempt 0) [t0<-t2 R/W 0x258 (atomic)]";
    "t1  @5028      mem  read   0x8 -> 0";
    "t1  @5036      mem  read   0x258 -> 5";
    "t1  @5079      mem  write  0x258 <- 6";
    "t0  @5045      mem  read   0x10 -> 0";
    "t0  @5065      mem  read   0x30 -> 3";
    "t0  @5073      mem  read   0x68 -> 964";
    "t0  @5073      htm  abort[stm]: lock-held (attempt 1) [t0<-t2 R/W 0x258 (atomic)]";
    "t1  @5079      htm  commit[hw] (2 reads, 1 writes, attempt 1)";
    "t1  @5108      flt  spurious abort armed";
    "t1  @5108      htm  abort[hw]: spurious (attempt 0)";
    "t0  @5268      mem  read   0x10 -> 0";
    "t1  @5273      mem  read   0x8 -> 0";
    "t1  @5281      mem  read   0x258 -> 6";
    "t1  @5324      mem  write  0x258 <- 7";
    "t0  @5288      mem  read   0x30 -> 3";
    "t0  @5296      mem  read   0x68 -> 964";
    "t0  @5296      htm  abort[stm]: lock-held (attempt 2) [t0<-t2 R/W 0x258 (atomic)]";
    "t1  @5324      htm  commit[hw] (2 reads, 1 writes, attempt 1)";
    "t0  @5527      mem  read   0x10 -> 0";
    "t0  @5547      mem  read   0x30 -> 3";
    "t0  @5555      mem  read   0x68 -> 964";
    "t0  @5555      htm  abort[stm]: lock-held (attempt 3) [t0<-t2 R/W 0x258 (atomic)]";
    "t0  @6008      mem  read   0x10 -> 0";
    "t0  @6028      mem  read   0x30 -> 3";
    "t0  @6036      mem  read   0x68 -> 964";
    "t0  @6036      htm  abort[stm]: lock-held (attempt 4) [t0<-t2 R/W 0x258 (atomic)]";
    "t0  @6709      mem  read   0x10 -> 0";
    "t0  @6729      mem  read   0x30 -> 3";
    "t0  @6737      mem  read   0x68 -> 964";
    "t0  @6737      htm  abort[stm]: lock-held (attempt 5) [t0<-t2 R/W 0x258 (atomic)]";
    "t0  @8664      mem  read   0x10 -> 0";
    "t0  @8684      mem  read   0x30 -> 3";
    "t0  @8692      mem  read   0x68 -> 964";
    "t0  @8692      htm  abort[stm]: lock-held (attempt 6) [t0<-t2 R/W 0x258 (atomic)]";
    "t0  @12172     mem  read   0x10 -> 0";
    "t0  @12192     mem  read   0x30 -> 3";
    "t0  @12200     mem  read   0x68 -> 964";
    "t0  @12200     htm  abort[stm]: lock-held (attempt 7) [t0<-t2 R/W 0x258 (atomic)]";
    "t0  @18536     htm  escalate to tle (attempt 2)";
    "t0  @18611     mem  cas    0x8 0->1 ok";
    "t0  @18611     htm  TLE lock fallback";
    "t0  @18661     mem  read   0x258 -> 7";
    "t0  @18721     mem  write  0x258 <- 8";
    "t0  @18729     mem  write  0x8 <- 0";
    "t0  @18729     htm  commit[tle] (0 reads, 0 writes, attempt 2)";
    "t0  @18760     flt  spurious abort armed";
    "t0  @18760     htm  abort[hw]: spurious (attempt 0)";
    "t0  @18931     mem  read   0x8 -> 0";
    "t0  @18939     flt  stalled 254 cycles";
    "t0  @19193     mem  read   0x258 -> 8";
    "t0  @19236     mem  write  0x258 <- 9";
    "t0  @19236     htm  commit[hw] (2 reads, 1 writes, attempt 1)";
    "t0  @19266     flt  spurious abort armed";
    "t0  @19266     htm  abort[hw]: spurious (attempt 0)";
    "t0  @19456     mem  read   0x8 -> 0";
    "t0  @19464     mem  read   0x258 -> 9";
    "t0  @19507     mem  write  0x258 <- 10";
    "t0  @19507     htm  commit[hw] (2 reads, 1 writes, attempt 1)";
    "t0  @19532     flt  spurious abort armed";
    "t0  @19532     htm  abort[hw]: spurious (attempt 0)";
    "t0  @19706     flt  spurious abort armed";
    "t0  @19706     htm  abort[hw]: spurious (attempt 1)";
    "t0  @19923     htm  escalate to stm (attempt 2)";
    "t0  @19952     mem  read   0x10 -> 0";
    "t0  @19972     mem  read   0x30 -> 3";
    "t0  @19980     mem  read   0x68 -> 964";
    "t0  @19980     htm  abort[stm]: lock-held (attempt 0) [t0<-t2 R/W 0x258 (atomic)]";
    "t0  @20124     flt  stalled 201 cycles";
    "t0  @20325     mem  read   0x10 -> 0";
    "t0  @20345     mem  read   0x30 -> 3";
    "t0  @20353     mem  read   0x68 -> 964";
    "t0  @20353     htm  abort[stm]: lock-held (attempt 1) [t0<-t2 R/W 0x258 (atomic)]";
    "t0  @20522     mem  read   0x10 -> 0";
    "t0  @20542     mem  read   0x30 -> 3";
    "t0  @20550     mem  read   0x68 -> 964";
    "t0  @20550     htm  abort[stm]: lock-held (attempt 2) [t0<-t2 R/W 0x258 (atomic)]";
    "t0  @20789     mem  read   0x10 -> 0";
    "t0  @20809     mem  read   0x30 -> 3";
    "t0  @20817     mem  read   0x68 -> 964";
    "t0  @20817     htm  abort[stm]: lock-held (attempt 3) [t0<-t2 R/W 0x258 (atomic)]";
    "t0  @21311     mem  read   0x10 -> 0";
    "t0  @21331     mem  read   0x30 -> 3";
    "t0  @21339     mem  read   0x68 -> 964";
    "t0  @21339     htm  abort[stm]: lock-held (attempt 4) [t0<-t2 R/W 0x258 (atomic)]";
    "t0  @22177     mem  read   0x10 -> 0";
    "t0  @22197     mem  read   0x30 -> 3";
    "t0  @22205     mem  read   0x68 -> 964";
    "t0  @22205     htm  abort[stm]: lock-held (attempt 5) [t0<-t2 R/W 0x258 (atomic)]";
    "t0  @23525     mem  read   0x10 -> 0";
    "t0  @23545     mem  read   0x30 -> 3";
    "t0  @23553     mem  read   0x68 -> 964";
    "t0  @23553     htm  abort[stm]: lock-held (attempt 6) [t0<-t2 R/W 0x258 (atomic)]";
    "t0  @25962     mem  read   0x10 -> 0";
    "t0  @25982     mem  read   0x30 -> 3";
    "t0  @25990     mem  read   0x68 -> 964";
    "t0  @26040     flt  stalled 262 cycles";
    "t0  @26302     mem  read   0x18 -> 3";
    "t0  @26377     mem  cas    0x18 3->0 ok";
    "t0  @26385     mem  read   0x19 -> 0";
    "t0  @26393     mem  read   0x1a -> 0";
    "t0  @26401     mem  read   0x1b -> 0";
    "t0  @26409     mem  read   0x1c -> 0";
    "t0  @26417     mem  read   0x1d -> 0";
    "t0  @26425     mem  read   0x1e -> 0";
    "t0  @26433     mem  read   0x1f -> 0";
    "t0  @26483     mem  read   0x20 -> 0";
    "t0  @26491     mem  read   0x21 -> 0";
    "t0  @26499     mem  read   0x22 -> 0";
    "t0  @26507     mem  read   0x23 -> 0";
    "t0  @26515     mem  read   0x24 -> 0";
    "t0  @26523     mem  read   0x25 -> 0";
    "t0  @26531     mem  read   0x26 -> 0";
    "t0  @26539     mem  read   0x27 -> 0";
    "t0  @26589     mem  read   0x28 -> 0";
    "t0  @26597     mem  read   0x29 -> 0";
    "t0  @26605     mem  read   0x2a -> 0";
    "t0  @26613     mem  read   0x2b -> 0";
    "t0  @26621     mem  read   0x2c -> 0";
    "t0  @26629     mem  read   0x2d -> 0";
    "t0  @26637     mem  read   0x2e -> 0";
    "t0  @26645     mem  read   0x2f -> 0";
    "t0  @26653     mem  read   0x30 -> 3";
    "t0  @26728     mem  cas    0x30 3->0 ok";
    "t0  @26736     mem  read   0x31 -> 3";
    "t0  @26759     mem  cas    0x31 3->0 ok";
    "t0  @26767     mem  read   0x32 -> 3";
    "t0  @26790     mem  cas    0x32 3->0 ok";
    "t0  @26798     mem  read   0x33 -> 3";
    "t0  @26821     mem  cas    0x33 3->0 ok";
    "t0  @26829     mem  read   0x34 -> 3";
    "t0  @26852     mem  cas    0x34 3->0 ok";
    "t0  @26860     mem  read   0x35 -> 3";
    "t0  @26883     mem  cas    0x35 3->0 ok";
    "t0  @26891     mem  read   0x36 -> 3";
    "t0  @26914     mem  cas    0x36 3->0 ok";
    "t0  @26922     mem  read   0x37 -> 3";
    "t0  @26945     mem  cas    0x37 3->0 ok";
    "t0  @26995     mem  read   0x38 -> 3";
    "t0  @27070     mem  cas    0x38 3->0 ok";
    "t0  @27078     mem  read   0x39 -> 3";
    "t0  @27101     mem  cas    0x39 3->0 ok";
    "t0  @27109     mem  read   0x3a -> 3";
    "t0  @27132     mem  cas    0x3a 3->0 ok";
    "t0  @27140     mem  read   0x3b -> 3";
    "t0  @27163     mem  cas    0x3b 3->0 ok";
    "t0  @27171     mem  read   0x3c -> 3";
    "t0  @27194     mem  cas    0x3c 3->0 ok";
    "t0  @27202     mem  read   0x3d -> 3";
    "t0  @27225     mem  cas    0x3d 3->0 ok";
    "t0  @27233     mem  read   0x3e -> 3";
    "t0  @27256     mem  cas    0x3e 3->0 ok";
    "t0  @27264     mem  read   0x3f -> 3";
    "t0  @27287     mem  cas    0x3f 3->0 ok";
    "t0  @27337     mem  read   0x40 -> 3";
    "t0  @27412     mem  cas    0x40 3->0 ok";
    "t0  @27420     mem  read   0x41 -> 3";
    "t0  @27443     mem  cas    0x41 3->0 ok";
    "t0  @27451     mem  read   0x42 -> 3";
    "t0  @27474     mem  cas    0x42 3->0 ok";
    "t0  @27482     mem  read   0x43 -> 3";
    "t0  @27505     mem  cas    0x43 3->0 ok";
    "t0  @27513     mem  read   0x44 -> 3";
    "t0  @27536     mem  cas    0x44 3->0 ok";
    "t0  @27544     mem  read   0x45 -> 3";
    "t0  @27567     mem  cas    0x45 3->0 ok";
    "t0  @27575     mem  read   0x46 -> 3";
    "t0  @27598     mem  cas    0x46 3->0 ok";
    "t0  @27606     mem  read   0x47 -> 3";
    "t0  @27629     mem  cas    0x47 3->0 ok";
    "t0  @27679     mem  read   0x48 -> 3";
    "t0  @27754     mem  cas    0x48 3->0 ok";
    "t0  @27762     mem  read   0x49 -> 3";
    "t0  @27785     mem  cas    0x49 3->0 ok";
    "t0  @27793     mem  read   0x4a -> 3";
    "t0  @27816     mem  cas    0x4a 3->0 ok";
    "t0  @27824     mem  read   0x4b -> 3";
    "t0  @27847     mem  cas    0x4b 3->0 ok";
    "t0  @27855     mem  read   0x4c -> 3";
    "t0  @27878     mem  cas    0x4c 3->0 ok";
    "t0  @27886     mem  read   0x4d -> 3";
    "t0  @27909     mem  cas    0x4d 3->0 ok";
    "t0  @27917     mem  read   0x4e -> 3";
    "t0  @27940     mem  cas    0x4e 3->0 ok";
    "t0  @27948     mem  read   0x4f -> 3";
    "t0  @27971     mem  cas    0x4f 3->0 ok";
    "t0  @28021     mem  read   0x50 -> 3";
    "t0  @28096     mem  cas    0x50 3->0 ok";
    "t0  @28104     mem  read   0x51 -> 3";
    "t0  @28127     mem  cas    0x51 3->0 ok";
    "t0  @28135     mem  read   0x52 -> 3";
    "t0  @28158     mem  cas    0x52 3->0 ok";
    "t0  @28166     mem  read   0x53 -> 3";
    "t0  @28189     mem  cas    0x53 3->0 ok";
    "t0  @28197     mem  read   0x54 -> 3";
    "t0  @28220     mem  cas    0x54 3->0 ok";
    "t0  @28228     mem  read   0x55 -> 3";
    "t0  @28251     mem  cas    0x55 3->0 ok";
    "t0  @28259     mem  read   0x56 -> 3";
    "t0  @28282     mem  cas    0x56 3->0 ok";
    "t0  @28290     mem  read   0x57 -> 3";
    "t0  @28313     mem  cas    0x57 3->0 ok";
    "t0  @28313     htm  stm lock stolen from t2";
    "t0  @28321     mem  read   0x30 -> 0";
    "t0  @28329     mem  read   0x258 -> 10";
    "t0  @28399     mem  write  0x58 <- 28340";
    "t0  @28407     mem  read   0x30 -> 0";
    "t0  @28430     mem  cas    0x30 0->1 ok";
    "t0  @28511     mem  fadd   0x10 +1 (was 0)";
    "t0  @28559     mem  write  0x258 <- 11";
    "t0  @28567     mem  write  0x30 <- 128";
    "t0  @28567     htm  commit[stm] (1 reads, 1 writes, attempt 7)";
    "t0  @28613     mem  read   0x8 -> 0";
    "t0  @28621     mem  read   0x258 -> 11";
    "t0  @28664     mem  write  0x258 <- 12";
    "t0  @28664     htm  commit[hw] (2 reads, 1 writes, attempt 0)";
]

let test_trace_golden () =
  let got = golden_trace () in
  if got <> golden_trace_expected then begin
    List.iter (fun l -> Printf.printf "    %S;\n" l) got;
    Alcotest.failf "explore trace drifted from the golden (%d lines, expected %d)"
      (List.length got) (List.length golden_trace_expected)
  end

let test_artifact_roundtrip () =
  let a =
    {
      E.Artifact.art_scenario = "queue:MichaelScott+ROP";
      art_threads = 3;
      art_ops = 5;
      art_seed = 12345;
      art_model = "sb";
      art_deviations = [ (3, 1); (17, 0); (29, 2) ];
      art_faults = Some (E.Search.light_faults 99);
      art_message = "memory fault: use-after-free at 0x2b\nsecond line";
      art_trace = [ "t0  @50  mem  read 0x8 -> 0"; "t1  @60  htm  commit" ];
    }
  in
  match E.Artifact.of_string (E.Artifact.to_string a) with
  | Ok b ->
    Alcotest.(check bool) "round-trips" true (a = b);
    let none = { a with art_faults = None; art_trace = []; art_deviations = [] } in
    (match E.Artifact.of_string (E.Artifact.to_string none) with
    | Ok c -> Alcotest.(check bool) "empty fields round-trip" true (none = c)
    | Error e -> Alcotest.failf "parse: %s" e)
  | Error e -> Alcotest.failf "parse: %s" e

let () =
  Alcotest.run "explore"
    [
      ( "strategies",
        [
          Alcotest.test_case "same seed, same decisions" `Quick test_strategy_determinism;
          Alcotest.test_case "Deviate [] is min-clock" `Quick test_deviate_empty_is_min_clock;
          Alcotest.test_case "deviations replay pick-for-pick" `Quick test_replay_invariant;
          QCheck_alcotest.to_alcotest prop_pct_change_points;
        ] );
      ( "pipeline",
        [
          Alcotest.test_case "racy counter: found, shrunk, replayed" `Quick test_racy_found;
          Alcotest.test_case "broken ROP: found, shrunk, replayed" `Quick test_broken_rop_found;
          Alcotest.test_case "broken ROP passes min-clock" `Quick test_broken_rop_passes_min_clock;
          Alcotest.test_case "clean queues: no violations" `Quick test_clean_queues;
          Alcotest.test_case "artifact round-trip" `Quick test_artifact_roundtrip;
          Alcotest.test_case "trace golden" `Quick test_trace_golden;
        ] );
    ]
