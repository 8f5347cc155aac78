(* Tests for the observability layer (lib/obs) and its wiring into the
   simulator: JSON printer/parser round-trips, the metrics registry
   (parent mirroring, local-only resets), the tracer ring buffer — and
   the two system-level guarantees: tracing is deterministic (same seed +
   strategy gives a byte-identical trace file) and free (a traced and
   observed run is cycle-for-cycle identical to a bare one). The heap
   observer's own tests live in test_forensics.ml. *)

let contains s affix = Astring.String.is_infix ~affix s

(* ------------------------------------------------------------------ *)
(* Json                                                                *)

let sample_json =
  Obs.Json.(
    Obj
      [
        ("name", Str "x\"y\n");
        ("n", Int (-42));
        ("f", Float 1.5);
        ("ok", Bool true);
        ("nothing", Null);
        ("xs", List [ Int 1; Int 2; Int 3 ]);
        ("empty", Obj []);
      ])

let test_json_roundtrip () =
  let s = Obs.Json.to_string sample_json in
  (match Obs.Json.parse s with
  | Ok v -> Alcotest.(check bool) "compact round-trips" true (v = sample_json)
  | Error e -> Alcotest.failf "parse of compact output failed: %s" e);
  let p = Obs.Json.pretty_to_string sample_json in
  match Obs.Json.parse p with
  | Ok v -> Alcotest.(check bool) "pretty round-trips" true (v = sample_json)
  | Error e -> Alcotest.failf "parse of pretty output failed: %s" e

let test_json_parse_errors () =
  List.iter
    (fun bad ->
      match Obs.Json.parse bad with
      | Ok _ -> Alcotest.failf "parser accepted %S" bad
      | Error _ -> ())
    [ "{"; "tru"; "[1,]"; "{\"a\":1} x"; ""; "\"unterminated"; "{'a':1}" ]

(* Property: print -> parse is the identity on arbitrary documents.
   Floats print through %.12g, so the generator sticks to dyadic
   rationals with few significant digits — the only floats whose decimal
   rendering is exact at that precision (BENCH artifacts only ever carry
   measured throughputs, where shape comparison tolerates the last-digit
   rounding; the *structural* round-trip is what must be exact). *)
let json_gen =
  let open QCheck.Gen in
  let exact_float =
    map2
      (fun m k -> float_of_int m /. float_of_int (1 lsl k))
      (int_range (-9999) 9999) (int_range 0 8)
  in
  let key = string_size ~gen:(char_range 'a' 'z') (int_range 1 6) in
  let scalar =
    oneof
      [
        return Obs.Json.Null;
        map (fun b -> Obs.Json.Bool b) bool;
        map (fun i -> Obs.Json.Int i) (int_range (-1_000_000) 1_000_000);
        map (fun f -> Obs.Json.Float f) exact_float;
        map (fun s -> Obs.Json.Str s) (string_size ~gen:printable (int_bound 10));
      ]
  in
  sized (fun n ->
      fix
        (fun self n ->
          if n <= 0 then scalar
          else
            oneof
              [
                scalar;
                map (fun l -> Obs.Json.List l)
                  (list_size (int_bound 4) (self (n / 2)));
                map (fun kvs -> Obs.Json.Obj kvs)
                  (list_size (int_bound 4) (pair key (self (n / 2))));
              ])
        (min n 6))

let test_json_roundtrip_prop =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:500 ~name:"print -> parse = id"
       (QCheck.make json_gen)
       (fun v ->
         match Obs.Json.parse (Obs.Json.to_string v) with
         | Ok v' -> v' = v
         | Error _ -> false))

(* ------------------------------------------------------------------ *)
(* Table rendering: golden outputs, pinned byte for byte.              *)

let golden_table : Obs.Table.table =
  {
    title = "Golden";
    xlabel = "x";
    unit = "ops/us";
    columns = [ "A"; "B" ];
    rows = [ ("1", [ Some 0.5; Some 1234.0 ]); ("2", [ Some 12.5; None ]) ];
  }

let test_table_print_golden () =
  let rendered = Format.asprintf "%a" Obs.Table.print golden_table in
  let expected =
    String.concat "\n"
      [
        "== Golden [ops/us] ==";
        "x  A      B     ";
        "1  0.500  1234  ";
        "2  12.5   -     ";
        "";
        "";
      ]
  in
  Alcotest.(check string) "aligned table renders exactly" expected rendered

let test_table_csv_golden () =
  let rendered = Format.asprintf "%a" Obs.Table.print_csv golden_table in
  let expected =
    String.concat "\n"
      [
        "# Golden [ops/us]"; "x,A,B"; "1,0.500000,1234.000000"; "2,12.500000,"; ""; "";
      ]
  in
  Alcotest.(check string) "CSV renders exactly" expected rendered

let test_table_json_roundtrip () =
  match Obs.Table.of_json (Obs.Table.to_json golden_table) with
  | Ok t -> Alcotest.(check bool) "table survives to_json/of_json" true (t = golden_table)
  | Error e -> Alcotest.failf "of_json rejected to_json output: %s" e

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)

let test_metrics_counter () =
  let r = Obs.Metrics.create () in
  let c = Obs.Metrics.counter ~per_thread:true r "ops" in
  Obs.Metrics.incr ~tid:0 c;
  Obs.Metrics.incr ~tid:2 ~by:5 c;
  Obs.Metrics.incr ~tid:0 c;
  Alcotest.(check int) "total" 7 (Obs.Metrics.value c);
  Alcotest.(check (list (pair int int)))
    "per-thread breakdown"
    [ (0, 2); (2, 5) ]
    (Obs.Metrics.per_thread c);
  let again = Obs.Metrics.counter r "ops" in
  Alcotest.(check int) "re-registration returns the same metric" 7
    (Obs.Metrics.value again)

let test_metrics_gauge_hist () =
  let r = Obs.Metrics.create () in
  let g = Obs.Metrics.gauge r "depth" in
  Obs.Metrics.set g 5;
  Obs.Metrics.add g (-2);
  Alcotest.(check int) "current" 3 (Obs.Metrics.gauge_value g);
  Alcotest.(check int) "high-water" 5 (Obs.Metrics.gauge_max g);
  let h = Obs.Metrics.hist r "lat" in
  List.iter (Obs.Metrics.observe h) [ 1; 2; 3; 1000 ];
  Alcotest.(check int) "hist count" 4 (Obs.Metrics.hist_count h);
  Alcotest.(check (list (pair int int)))
    "log2 buckets"
    [ (1, 1); (2, 2); (512, 1) ]
    (Obs.Metrics.buckets h)

let test_metrics_parent_and_reset () =
  let parent = Obs.Metrics.create () in
  let child = Obs.Metrics.create ~parent () in
  let c = Obs.Metrics.counter child "ops" in
  let pc = Obs.Metrics.counter parent "ops" in
  Obs.Metrics.incr ~by:3 c;
  Alcotest.(check int) "mirrored into parent" 3 (Obs.Metrics.value pc);
  Obs.Metrics.reset_counter c;
  Obs.Metrics.incr c;
  Alcotest.(check int) "child reset is local" 1 (Obs.Metrics.value c);
  Alcotest.(check int) "parent keeps the trajectory" 4 (Obs.Metrics.value pc);
  let g = Obs.Metrics.gauge child "live" in
  let pg = Obs.Metrics.gauge parent "live" in
  Obs.Metrics.add g 10;
  Obs.Metrics.add g (-4);
  Alcotest.(check int) "gauge deltas aggregate" 6 (Obs.Metrics.gauge_value pg)

let test_metrics_snapshot () =
  let r = Obs.Metrics.create () in
  ignore (Obs.Metrics.counter r "b");
  ignore (Obs.Metrics.gauge r "a");
  ignore (Obs.Metrics.hist r "c");
  let names = List.map fst (Obs.Metrics.snapshot r) in
  Alcotest.(check (list string))
    "first-registration order" [ "b"; "a"; "c" ] names;
  match Obs.Json.parse (Obs.Json.to_string (Obs.Metrics.to_json r)) with
  | Ok v ->
    Alcotest.(check bool)
      "schema tag" true
      (Obs.Json.member "schema" v = Some (Obs.Json.Str "metrics/1"))
  | Error e -> Alcotest.failf "metrics json unparseable: %s" e

(* The per-thread breakdown a machine run leaves in its registries: the
   boot context (tid 256) and runnable tids 0-2 touch the heap and the
   HTM domain, the local registries chain to one parent, and a second
   registry absorbs the parent's snapshot. The rendered snapshots are
   pinned byte for byte, so however the per-thread tables are laid out
   the listed (tid, n) pairs cannot move. *)
let metrics_per_thread_golden =
  String.concat "\n"
    [
      {|metric            kind     value  detail                 |};
      {|mem.write_misses  counter  10     t0:2 t1:3 t2:3 t256:2  |};
      {|mem.writes        counter  11     t0:2 t1:3 t2:4 t256:2  |};
      {|mem.read_misses   counter  8      t0:1 t1:2 t2:3 t256:2  |};
      {|mem.reads         counter  11     t0:2 t1:3 t2:4 t256:2  |};
      {|{"schema":"metrics/1","metrics":{"mem.queue_wait":{"buckets":[[8,2],[16,1],[64,3],[128,2],[256,1],[512,1]]},"mem.live_blocks":{"current":2,"high":2},"mem.live_words":{"current":24,"high":24},"mem.frees":{"total":0},"mem.allocs":{"total":2},"mem.atomics":{"total":0},"mem.write_misses":{"total":10,"per_thread":{"0":2,"1":3,"2":3,"256":2}},"mem.writes":{"total":11,"per_thread":{"0":2,"1":3,"2":4,"256":2}},"mem.read_misses":{"total":8,"per_thread":{"0":1,"1":2,"2":3,"256":2}},"mem.reads":{"total":11,"per_thread":{"0":2,"1":3,"2":4,"256":2}}}}|};
      {|--|};
      {|metric           kind     value  detail                 |};
      {|htm.attempts.hw  counter  4      t0:1 t1:1 t2:1 t256:1  |};
      {|htm.commits      counter  4      t0:1 t1:1 t2:1 t256:1  |};
      {|{"schema":"metrics/1","metrics":{"htm.stores_per_tx":{"buckets":[[1,4]]},"htm.commit_cycles":{"buckets":[[128,3],[512,1]]},"htm.max_consecutive_aborts":{"current":0,"high":0},"htm.escalations.stm":{"total":0},"htm.attempts.tle":{"total":0},"htm.attempts.stm":{"total":0},"htm.attempts.hw":{"total":4,"per_thread":{"0":1,"1":1,"2":1,"256":1}},"htm.commit_cycles_total":{"total":1183},"htm.fallbacks":{"total":0},"htm.aborts.spurious":{"total":0},"htm.aborts.lock_held":{"total":0},"htm.aborts.explicit":{"total":0},"htm.aborts.illegal":{"total":0},"htm.aborts.overflow":{"total":0},"htm.aborts.conflict":{"total":0},"htm.commits":{"total":4,"per_thread":{"0":1,"1":1,"2":1,"256":1}}}}|};
      {|--|};
      {|metric            kind     value  detail                 |};
      {|mem.write_misses  counter  10     t0:2 t1:3 t2:3 t256:2  |};
      {|mem.writes        counter  11     t0:2 t1:3 t2:4 t256:2  |};
      {|mem.read_misses   counter  8      t0:1 t1:2 t2:3 t256:2  |};
      {|mem.reads         counter  11     t0:2 t1:3 t2:4 t256:2  |};
      {|htm.attempts.hw   counter  4      t0:1 t1:1 t2:1 t256:1  |};
      {|htm.commits       counter  4      t0:1 t1:1 t2:1 t256:1  |};
      {|{"schema":"metrics/1","metrics":{"mem.queue_wait":{"buckets":[[8,2],[16,1],[64,3],[128,2],[256,1],[512,1]]},"mem.live_blocks":{"current":2,"high":2},"mem.live_words":{"current":24,"high":24},"mem.frees":{"total":0},"mem.allocs":{"total":2},"mem.atomics":{"total":0},"mem.write_misses":{"total":10,"per_thread":{"0":2,"1":3,"2":3,"256":2}},"mem.writes":{"total":11,"per_thread":{"0":2,"1":3,"2":4,"256":2}},"mem.read_misses":{"total":8,"per_thread":{"0":1,"1":2,"2":3,"256":2}},"mem.reads":{"total":11,"per_thread":{"0":2,"1":3,"2":4,"256":2}},"htm.stores_per_tx":{"buckets":[[1,4]]},"htm.commit_cycles":{"buckets":[[128,3],[512,1]]},"htm.max_consecutive_aborts":{"current":0,"high":0},"htm.escalations.stm":{"total":0},"htm.attempts.tle":{"total":0},"htm.attempts.stm":{"total":0},"htm.attempts.hw":{"total":4,"per_thread":{"0":1,"1":1,"2":1,"256":1}},"htm.commit_cycles_total":{"total":1183},"htm.fallbacks":{"total":0},"htm.aborts.spurious":{"total":0},"htm.aborts.lock_held":{"total":0},"htm.aborts.explicit":{"total":0},"htm.aborts.illegal":{"total":0},"htm.aborts.overflow":{"total":0},"htm.aborts.conflict":{"total":0},"htm.commits":{"total":4,"per_thread":{"0":1,"1":1,"2":1,"256":1}}}}|};
    ]

let test_metrics_per_thread_golden () =
  let parent = Obs.Metrics.create () in
  let mem = Simmem.create ~metrics:parent () in
  let htm = Htm.create ~metrics:parent mem in
  let boot = Sim.boot () in
  let a = Simmem.malloc mem boot 16 in
  Simmem.write mem boot a 1;
  ignore (Simmem.read mem boot (a + 8));
  Sim.run ~seed:3
    (Array.init 3 (fun i ->
         fun ctx ->
           for k = 0 to i do
             ignore (Simmem.read mem ctx (a + k));
             Simmem.write mem ctx (a + 8 + i) k
           done;
           Htm.atomic htm ctx (fun tx -> Htm.write tx (a + i) (Htm.read tx a + 1))));
  Htm.atomic htm boot (fun tx -> Htm.write tx a (Htm.read tx (a + 1)));
  let absorbed = Obs.Metrics.create () in
  Obs.Metrics.absorb absorbed (Obs.Metrics.snapshot parent);
  let render r =
    let per_thread (_, v) =
      match v with Obs.Metrics.Counter { per_tid; _ } -> per_tid <> [] | _ -> false
    in
    Format.asprintf "%a" Obs.Metrics.print (List.filter per_thread (Obs.Metrics.snapshot r))
    ^ Obs.Json.to_string (Obs.Metrics.to_json r)
  in
  let got =
    String.concat "\n--\n" (List.map render [ Simmem.metrics mem; Htm.metrics htm; absorbed ])
  in
  Alcotest.(check string) "per-thread snapshot" metrics_per_thread_golden got

(* ------------------------------------------------------------------ *)
(* Tracer                                                              *)

let test_tracer_ring () =
  let t = Obs.Tracer.create ~capacity:4 () in
  let s = Obs.Tracer.process t ~name:"m" in
  Obs.Tracer.thread_name s ~tid:0 "worker";
  Obs.Tracer.thread_name s ~tid:0 "worker";
  for i = 1 to 6 do
    Obs.Tracer.instant s ~tid:0 ~name:(Printf.sprintf "e%d" i) (i * 10)
  done;
  Alcotest.(check int) "recorded counts everything" 6 (Obs.Tracer.recorded t);
  Alcotest.(check int) "oldest two overwritten" 2 (Obs.Tracer.dropped t);
  let js = Obs.Json.to_string (Obs.Tracer.to_json t) in
  Alcotest.(check bool) "oldest event gone" false (contains js "\"e1\"");
  Alcotest.(check bool) "newest event kept" true (contains js "\"e6\"");
  (* thread_name metadata is deduplicated and survives the ring *)
  let count_substring hay needle =
    let ln = String.length needle in
    let rec go i acc =
      if i + ln > String.length hay then acc
      else if String.sub hay i ln = needle then go (i + 1) (acc + 1)
      else go (i + 1) acc
    in
    go 0 0
  in
  Alcotest.(check int) "one thread_name record" 1 (count_substring js "thread_name")

let test_tracer_span_args () =
  let t = Obs.Tracer.create () in
  let s = Obs.Tracer.process t ~name:"m" in
  Obs.Tracer.span s ~tid:3 ~name:"tx" ~cat:"tx"
    ~args:[ ("attempt", Obs.Json.Int 2) ]
    100 150;
  match Obs.Json.parse (Obs.Json.to_string (Obs.Tracer.to_json t)) with
  | Error e -> Alcotest.failf "trace json unparseable: %s" e
  | Ok v -> (
    match Obs.Json.member "traceEvents" v with
    | Some (Obs.Json.List evs) ->
      let ev =
        List.find
          (fun e -> Obs.Json.member "name" e = Some (Obs.Json.Str "tx"))
          evs
      in
      Alcotest.(check bool) "ph X" true
        (Obs.Json.member "ph" ev = Some (Obs.Json.Str "X"));
      Alcotest.(check bool) "dur 50" true
        (Obs.Json.member "dur" ev = Some (Obs.Json.Int 50));
      Alcotest.(check bool) "ts 100" true
        (Obs.Json.member "ts" ev = Some (Obs.Json.Int 100));
      Alcotest.(check bool) "tid 3" true
        (Obs.Json.member "tid" ev = Some (Obs.Json.Int 3))
    | _ -> Alcotest.fail "no traceEvents list")

(* ------------------------------------------------------------------ *)
(* System level: determinism and zero cost                              *)

(* A workload built to conflict: thread 0 runs long scanning
   transactions over a 16-word region while three writers hammer it with
   naked stores and a hardware-transactional counter. Strong atomicity
   dooms the scans mid-flight, so witnesses are captured at the
   transactional validation sites. Returns everything that would expose
   a virtual-time perturbation: the results, each thread's final clock
   and the next draw of each thread's RNG. *)
let run_workload ?observe ?metrics ~seed () =
  let mem = Simmem.create ?metrics () in
  let htm = Htm.create ?metrics mem in
  let boot = Sim.boot ~seed () in
  Sim.set_observer boot observe;
  let arr = Simmem.malloc mem boot 17 in
  Simmem.label mem boot ~name:"shared" ~base:arr ~words:17;
  let clocks = Array.make 4 0 and draws = Array.make 4 0 in
  let sum = ref 0 in
  Sim.run ~seed ?observe
    (Array.init 4 (fun i ->
         fun ctx ->
           (if i = 0 then
              for _ = 1 to 20 do
                sum :=
                  !sum
                  + Htm.atomic htm ctx (fun tx ->
                        let s = ref 0 in
                        for k = 0 to 15 do
                          s := !s + Htm.read tx (arr + k)
                        done;
                        Htm.write tx arr (!s land 0xff);
                        !s);
                Sim.tick ctx (1 + Sim.Rng.int (Sim.rng ctx) 16)
              done
            else
              for r = 1 to 15 do
                Simmem.write mem ctx (arr + ((i * 5 + r) land 15)) r;
                Htm.atomic htm ctx (fun tx ->
                    Htm.write tx (arr + 16) (Htm.read tx (arr + 16) + 1));
                Sim.tick ctx (1 + Sim.Rng.int (Sim.rng ctx) 40)
              done);
           clocks.(i) <- Sim.clock ctx;
           draws.(i) <- Sim.Rng.bits (Sim.rng ctx)));
  (arr, !sum, Simmem.peek mem (arr + 16), Array.to_list clocks, Array.to_list draws)

let trace_run ~seed =
  let t = Obs.Tracer.create () in
  let sink = Obs.Tracer.process t ~name:"machine" in
  ignore (run_workload ~observe:(Obs.Tracer.observe sink) ~seed ());
  Obs.Json.to_string (Obs.Tracer.to_json t)

let test_trace_determinism () =
  let a = trace_run ~seed:7 in
  Alcotest.(check bool) "trace has tx spans" true (contains a "\"tx\"");
  Alcotest.(check string) "same seed, byte-identical trace" a (trace_run ~seed:7)

(* Without a heap observer the tracer's own subscription journals the
   stores, so a trace-only run still resolves aggressors and draws its
   conflict arrows. *)
let test_conflict_flows_in_trace () =
  let js = trace_run ~seed:7 in
  Alcotest.(check bool) "flow tail events" true (contains js "\"ph\":\"s\"");
  Alcotest.(check bool) "flow head events" true (contains js "\"ph\":\"f\"");
  Alcotest.(check bool) "forensics category" true (contains js "\"cat\":\"forensics\"");
  Alcotest.(check bool) "named after the conflict" true (contains js "\"conflict\"")

(* Observation is free: every subscriber at once — the tracer, the heap
   observer and the explore trace, teed onto one stream, plus a metrics
   registry — leaves results, clocks and RNG streams exactly as in a
   bare run. *)
let test_zero_cost_prop =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:25 ~name:"observation never perturbs virtual time"
       QCheck.(int_range 1 10_000)
       (fun seed ->
         let bare = run_workload ~seed () in
         let t = Obs.Tracer.create () in
         let f = Obs.Forensics.create () in
         let tr = Explore.Trace.create () in
         let observe =
           Obs.Event.tee
             (Obs.Event.tee (Obs.Tracer.observe (Obs.Tracer.process t ~name:"m"))
                (Obs.Forensics.observe f))
             (Explore.Trace.observe tr)
         in
         let observed = run_workload ~observe ~metrics:(Obs.Metrics.create ()) ~seed () in
         Obs.Tracer.recorded t > 0
         && Obs.Forensics.count f > 0
         && Explore.Trace.lines tr <> []
         && bare = observed))

let test_fault_instants_in_trace () =
  let t = Obs.Tracer.create () in
  let sink = Obs.Tracer.process t ~name:"m" in
  let faults =
    Sim.Fault.make
      { Sim.Fault.none with
        kills_at = [ (1, 300) ];
        fault_seed = 5;
        stall_rate = 0.05;
        stall_cycles = 400
      }
  in
  let seen = ref [] in
  let on_fault ~tid:_ ~clock:_ = function
    | Obs.Event.Fault k -> seen := k :: !seen
    | _ -> ()
  in
  Sim.run ~seed:3 ~faults ~observe:(Obs.Event.tee (Obs.Tracer.observe sink) on_fault)
    (Array.init 2 (fun _ ->
         fun ctx ->
           for _ = 1 to 100 do
             Sim.tick ctx 10;
             Sim.note_progress ctx
           done));
  let js = Obs.Json.to_string (Obs.Tracer.to_json t) in
  Alcotest.(check bool) "kill instant traced" true (contains js "fault.kill");
  Alcotest.(check bool) "stall instant traced" true (contains js "fault.stall");
  Alcotest.(check bool) "fault subscriber saw the kill" true
    (List.mem Sim.Fault.Killed !seen);
  Alcotest.(check bool) "fault subscriber saw a stall" true
    (List.exists (function Sim.Fault.Stalled _ -> true | _ -> false) !seen)

(* The Chrome rendering of one tiny traced run, pinned event for event:
   run slices, committed tx spans, aborted attempts with their abort
   instants, coherence-miss instants, the conflict flow pair from an
   aggressor's commit to its victim's abort, and a fault instant. *)
let golden_chrome () =
  let t = Obs.Tracer.create () in
  let sink = Obs.Tracer.process t ~name:"golden" in
  let mem = Simmem.create () in
  let htm = Htm.create mem in
  let boot = Sim.boot () in
  let addr = Simmem.malloc mem boot 1 in
  let faults =
    Sim.Fault.make { Sim.Fault.none with fault_seed = 2; stall_rate = 0.1; stall_cycles = 300 }
  in
  Sim.run ~seed:4 ~observe:(Obs.Tracer.observe sink) ~faults
    (Array.init 2 (fun _ ->
         fun ctx ->
           for _ = 1 to 3 do
             Htm.atomic htm ctx (fun tx ->
                 let v = Htm.read tx addr in
                 Sim.tick ctx 40;
                 Htm.write tx addr (v + 1))
           done));
  match Obs.Json.member "traceEvents" (Obs.Tracer.to_json t) with
  | Some (Obs.Json.List evs) -> List.map Obs.Json.to_string evs
  | _ -> Alcotest.fail "no traceEvents list"

let golden_chrome_expected = [
    "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\"args\":{\"name\":\"golden\"}}";
    "{\"name\":\"fault.stall\",\"cat\":\"fault\",\"ph\":\"i\",\"ts\":32,\"pid\":1,\"tid\":1,\"s\":\"t\",\"args\":{\"cycles\":284}}";
    "{\"name\":\"run\",\"cat\":\"sched\",\"ph\":\"X\",\"ts\":0,\"pid\":1,\"tid\":1,\"dur\":316}";
    "{\"name\":\"miss.read\",\"cat\":\"mem\",\"ph\":\"i\",\"ts\":35,\"pid\":1,\"tid\":0,\"s\":\"t\",\"args\":{\"addr\":16,\"cost\":50,\"wait\":0,\"sharers\":0}}";
    "{\"name\":\"tx\",\"cat\":\"tx\",\"ph\":\"X\",\"ts\":35,\"pid\":1,\"tid\":0,\"dur\":133,\"args\":{\"attempt\":0,\"reads\":1,\"writes\":1}}";
    "{\"name\":\"tx\",\"cat\":\"tx\",\"ph\":\"X\",\"ts\":197,\"pid\":1,\"tid\":0,\"dur\":91,\"args\":{\"attempt\":0,\"reads\":1,\"writes\":1}}";
    "{\"name\":\"run\",\"cat\":\"sched\",\"ph\":\"X\",\"ts\":0,\"pid\":1,\"tid\":0,\"dur\":328}";
    "{\"name\":\"miss.read\",\"cat\":\"mem\",\"ph\":\"i\",\"ts\":316,\"pid\":1,\"tid\":1,\"s\":\"t\",\"args\":{\"addr\":16,\"cost\":50,\"wait\":0,\"sharers\":1}}";
    "{\"name\":\"run\",\"cat\":\"sched\",\"ph\":\"X\",\"ts\":316,\"pid\":1,\"tid\":1,\"dur\":50}";
    "{\"name\":\"run\",\"cat\":\"sched\",\"ph\":\"X\",\"ts\":328,\"pid\":1,\"tid\":0,\"dur\":48}";
    "{\"name\":\"run\",\"cat\":\"sched\",\"ph\":\"X\",\"ts\":366,\"pid\":1,\"tid\":1,\"dur\":40}";
    "{\"name\":\"miss.write\",\"cat\":\"mem\",\"ph\":\"i\",\"ts\":411,\"pid\":1,\"tid\":0,\"s\":\"t\",\"args\":{\"addr\":16,\"cost\":60,\"wait\":0,\"sharers\":2}}";
    "{\"name\":\"run\",\"cat\":\"sched\",\"ph\":\"X\",\"ts\":376,\"pid\":1,\"tid\":0,\"dur\":95}";
    "{\"name\":\"conflict\",\"cat\":\"forensics\",\"ph\":\"s\",\"ts\":471,\"pid\":1,\"tid\":0,\"id\":1,\"args\":{\"addr\":16,\"site\":\"htm.commit\"}}";
    "{\"name\":\"conflict\",\"cat\":\"forensics\",\"ph\":\"f\",\"ts\":406,\"pid\":1,\"tid\":1,\"id\":1,\"bp\":\"e\",\"args\":{\"addr\":16,\"site\":\"htm.commit\"}}";
    "{\"name\":\"tx.attempt\",\"cat\":\"tx\",\"ph\":\"X\",\"ts\":316,\"pid\":1,\"tid\":1,\"dur\":90,\"args\":{\"attempt\":0}}";
    "{\"name\":\"tx.abort\",\"cat\":\"tx\",\"ph\":\"i\",\"ts\":406,\"pid\":1,\"tid\":1,\"s\":\"t\",\"args\":{\"reason\":\"conflict\",\"attempt\":0}}";
    "{\"name\":\"run\",\"cat\":\"sched\",\"ph\":\"X\",\"ts\":406,\"pid\":1,\"tid\":1,\"dur\":100}";
    "{\"name\":\"tx\",\"cat\":\"tx\",\"ph\":\"X\",\"ts\":328,\"pid\":1,\"tid\":0,\"dur\":143,\"args\":{\"attempt\":0,\"reads\":1,\"writes\":1}}";
    "{\"name\":\"miss.read\",\"cat\":\"mem\",\"ph\":\"i\",\"ts\":576,\"pid\":1,\"tid\":1,\"s\":\"t\",\"args\":{\"addr\":16,\"cost\":50,\"wait\":0,\"sharers\":1}}";
    "{\"name\":\"miss.write\",\"cat\":\"mem\",\"ph\":\"i\",\"ts\":701,\"pid\":1,\"tid\":1,\"s\":\"t\",\"args\":{\"addr\":16,\"cost\":60,\"wait\":0,\"sharers\":2}}";
    "{\"name\":\"tx\",\"cat\":\"tx\",\"ph\":\"X\",\"ts\":576,\"pid\":1,\"tid\":1,\"dur\":185,\"args\":{\"attempt\":1,\"reads\":1,\"writes\":1}}";
    "{\"name\":\"tx\",\"cat\":\"tx\",\"ph\":\"X\",\"ts\":788,\"pid\":1,\"tid\":1,\"dur\":91,\"args\":{\"attempt\":0,\"reads\":1,\"writes\":1}}";
    "{\"name\":\"tx\",\"cat\":\"tx\",\"ph\":\"X\",\"ts\":904,\"pid\":1,\"tid\":1,\"dur\":91,\"args\":{\"attempt\":0,\"reads\":1,\"writes\":1}}";
    "{\"name\":\"run\",\"cat\":\"sched\",\"ph\":\"X\",\"ts\":506,\"pid\":1,\"tid\":1,\"dur\":489}";
]

let test_chrome_golden () =
  let got = golden_chrome () in
  if got <> golden_chrome_expected then begin
    List.iter (fun l -> Printf.printf "    %S;\n" l) got;
    Alcotest.failf "Chrome trace drifted from the golden (%d events, expected %d)"
      (List.length got) (List.length golden_chrome_expected)
  end

let () =
  Alcotest.run "obs"
    [
      ( "json",
        [
          Alcotest.test_case "roundtrip" `Quick test_json_roundtrip;
          Alcotest.test_case "parse errors" `Quick test_json_parse_errors;
          test_json_roundtrip_prop;
        ] );
      ( "table",
        [
          Alcotest.test_case "print golden" `Quick test_table_print_golden;
          Alcotest.test_case "csv golden" `Quick test_table_csv_golden;
          Alcotest.test_case "json roundtrip" `Quick test_table_json_roundtrip;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "counter" `Quick test_metrics_counter;
          Alcotest.test_case "gauge and hist" `Quick test_metrics_gauge_hist;
          Alcotest.test_case "parent chain and reset" `Quick test_metrics_parent_and_reset;
          Alcotest.test_case "snapshot" `Quick test_metrics_snapshot;
          Alcotest.test_case "per-thread golden" `Quick test_metrics_per_thread_golden;
        ] );
      ( "tracer",
        [
          Alcotest.test_case "ring overwrite" `Quick test_tracer_ring;
          Alcotest.test_case "span payload" `Quick test_tracer_span_args;
        ] );
      ( "system",
        [
          Alcotest.test_case "trace determinism" `Quick test_trace_determinism;
          Alcotest.test_case "conflict flows in trace" `Quick test_conflict_flows_in_trace;
          test_zero_cost_prop;
          Alcotest.test_case "fault instants" `Quick test_fault_instants_in_trace;
          Alcotest.test_case "chrome golden" `Quick test_chrome_golden;
        ] );
    ]
