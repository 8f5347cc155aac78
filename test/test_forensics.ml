(* Tests for the heap observer (lib/obs/forensics + lib/simmem capture):
   line-transfer and conflict aggregation over one line table, the
   contention and diagnosis renderings, attach/detach of the last-writer
   journal; the satellite observability additions: metrics percentiles,
   tracer drop accounting, conflict flow events — and the system-level
   guarantees the `bench doctor` pipeline rests on: witness capture is
   free (an instrumented run is cycle-identical to a bare one),
   aggregation is deterministic across worker counts, and the contend
   experiment's witnesses attribute HoHRC aborts to the header line while
   ROP's spread across payload lines. *)

let contains s affix = Astring.String.is_infix ~affix s

(* ------------------------------------------------------------------ *)
(* Metrics percentiles (log2 histograms)                               *)

let test_percentiles () =
  let m = Obs.Metrics.create () in
  let h = Obs.Metrics.hist m "lat" in
  Alcotest.(check int) "empty p50" 0 (Obs.Metrics.p50 h);
  Alcotest.(check int) "empty p999" 0 (Obs.Metrics.p999 h);
  (* 90 fast ops (bucket 4), 9 slow (bucket 64), 1 outlier (bucket 4096):
     the classic latency shape the shorthands exist for. *)
  for _ = 1 to 90 do
    Obs.Metrics.observe h 4
  done;
  for _ = 1 to 9 do
    Obs.Metrics.observe h 100
  done;
  Obs.Metrics.observe h 5000;
  Alcotest.(check int) "p50 in the body" 4 (Obs.Metrics.p50 h);
  Alcotest.(check int) "p99 at the knee" 64 (Obs.Metrics.p99 h);
  Alcotest.(check int) "p999 sees the outlier" 4096 (Obs.Metrics.p999 h);
  Alcotest.(check int) "quantile clamped below" 4
    (Obs.Metrics.percentile h (-1.0));
  Alcotest.(check int) "quantile clamped above" 4096
    (Obs.Metrics.percentile h 2.0)

let test_percentile_prop =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:200 ~name:"percentile is monotone and bracketed"
       QCheck.(pair (list_of_size Gen.(int_range 1 40) (int_range 0 100_000))
                 (pair (float_bound_inclusive 1.0) (float_bound_inclusive 1.0)))
       (fun (vs, (q1, q2)) ->
         let m = Obs.Metrics.create () in
         let h = Obs.Metrics.hist m "x" in
         List.iter (Obs.Metrics.observe h) vs;
         let lo = min q1 q2 and hi = max q1 q2 in
         let plo = Obs.Metrics.percentile h lo
         and phi = Obs.Metrics.percentile h hi in
         plo <= phi
         && phi <= Obs.Metrics.p999 h + 0
         && Obs.Metrics.p50 h <= Obs.Metrics.p99 h))

(* ------------------------------------------------------------------ *)
(* Tracer drop accounting                                              *)

let test_tracer_dropped_metadata () =
  let t = Obs.Tracer.create ~capacity:8 () in
  let sink = Obs.Tracer.process t ~name:"m" in
  for i = 1 to 20 do
    Obs.Tracer.instant sink ~tid:0 ~name:(Printf.sprintf "e%d" i) i
  done;
  Alcotest.(check int) "recorded counts everything" 20 (Obs.Tracer.recorded t);
  Alcotest.(check int) "dropped = recorded - capacity" 12 (Obs.Tracer.dropped t);
  let js = Obs.Json.to_string (Obs.Tracer.to_json t) in
  Alcotest.(check bool) "drop metadata record present" true
    (contains js "tracer.dropped");
  Alcotest.(check bool) "dropped count in metadata" true
    (contains js "\"droppedEvents\":12");
  (* The ring keeps the most recent window: the first events are gone,
     the last survive. *)
  Alcotest.(check bool) "oldest overwritten" false (contains js "\"e1\"");
  Alcotest.(check bool) "newest kept" true (contains js "\"e20\"")

let test_tracer_no_drops_no_metadata () =
  let t = Obs.Tracer.create ~capacity:64 () in
  let sink = Obs.Tracer.process t ~name:"m" in
  Obs.Tracer.instant sink ~tid:0 ~name:"only" 5;
  let js = Obs.Json.to_string (Obs.Tracer.to_json t) in
  Alcotest.(check bool) "no drop record when nothing dropped" false
    (contains js "tracer.dropped")

(* ------------------------------------------------------------------ *)
(* Forensics aggregation (pure, synthetic witnesses)                   *)

let w ?(victim = 3) ?(aggressor = 1) ?(addr = 0x128) ?(ww = false)
    ?(rs = true) ?(wset = false) ?(op = "commit") ?(agg_clock = 90)
    ?(clock = 100) ?(site = "htm.read") () : Obs.Forensics.witness =
  {
    w_victim = victim;
    w_aggressor = aggressor;
    w_addr = addr;
    w_line = addr lsr 3;
    w_victim_wrote = ww;
    w_read_set = rs;
    w_write_set = wset;
    w_op = op;
    w_aggressor_clock = agg_clock;
    w_clock = clock;
    w_site = site;
  }

(* The observer's one entry point is its event handler; these feed it
   the events the simulator emits. *)
let feed f ?(tid = 0) ?(clock = 0) ev = Obs.Forensics.observe f ~tid ~clock ev
let label f ~name ~base ~words = feed f (Obs.Event.Label { name; base; words })

let note_alloc f ~base ~words ~tid ~clock =
  feed f ~tid ~clock (Access (Malloc { base; words }))

let record f w = feed f (Witness w)

let record_transfer f ~line ~wait ~cost ~sharers =
  feed f (Miss { write = false; addr = line lsl 3; line; cost; wait; sharers })

let note_hop f ~tid ~clock ~from_path ~to_path ~reason witness =
  feed f ~tid ~clock (Escalate { from_path; to_path; attempt = 0; reason; witness })

let test_forensics_aggregates () =
  let f = Obs.Forensics.create () in
  label f ~name:"A" ~base:0x120 ~words:8;
  label f ~name:"B" ~base:0x128 ~words:8;
  (* false-shares A's second line? no: 0x128 starts line 0x25 *)
  label f ~name:"B2" ~base:0x12c ~words:2;
  note_alloc f ~base:0x120 ~words:16 ~tid:7 ~clock:50;
  record f (w ());
  record f (w ~ww:true ~wset:true ~site:"htm.commit" ());
  record f (w ~victim:2 ~aggressor:3 ~addr:0x400 ());
  Alcotest.(check int) "count" 3 (Obs.Forensics.count f);
  (match Obs.Forensics.edges f with
  | [ e1; e2 ] ->
    Alcotest.(check int) "edge sorted by victim" 2 e1.Obs.Forensics.es_victim;
    Alcotest.(check int) "edge aggressor" 3 e1.es_aggressor;
    Alcotest.(check int) "rw count" 1 e2.es_rw;
    Alcotest.(check int) "ww count" 1 e2.es_ww
  | es -> Alcotest.failf "expected 2 edges, got %d" (List.length es));
  (match Obs.Forensics.lines f with
  | top :: rest ->
    Alcotest.(check int) "hottest line first" (0x128 lsr 3)
      top.Obs.Forensics.fl_line;
    Alcotest.(check string) "false sharing joined" "B + B2" top.fl_region;
    Alcotest.(check int) "conflicts" 2 top.fl_conflicts;
    (match top.fl_prov with
    | Some (tid, clock, n) ->
      Alcotest.(check int) "prov tid" 7 tid;
      Alcotest.(check int) "prov clock" 50 clock;
      Alcotest.(check bool) "prov count positive" true (n >= 1)
    | None -> Alcotest.fail "provenance missing");
    (match rest with
    | [ cold ] -> Alcotest.(check string) "unlabeled region" "?" cold.fl_region
    | _ -> Alcotest.fail "expected exactly one cold line")
  | [] -> Alcotest.fail "no lines");
  (match Obs.Forensics.regions f with
  | (r, n) :: _ ->
    Alcotest.(check string) "hottest region" "B + B2" r;
    Alcotest.(check int) "hottest region conflicts" 2 n
  | [] -> Alcotest.fail "no regions");
  Alcotest.(check (list (pair string int)))
    "sites descending"
    [ ("htm.read", 2); ("htm.commit", 1) ]
    (Obs.Forensics.sites f);
  Alcotest.(check (list (pair int int)))
    "victims ascending tid"
    [ (2, 1); (3, 2) ]
    (Obs.Forensics.victims f);
  (* Coherence traffic into the same table, on lines no witness touched
     (8-word lines: words 0-7 are line 0, 8-15 line 1, ...). *)
  label f ~name:"A" ~base:0 ~words:8;
  label f ~name:"B" ~base:8 ~words:16;
  label f ~name:"A" ~base:0 ~words:8;
  (* relabelling is idempotent; C overlaps B's first line *)
  label f ~name:"C" ~base:12 ~words:2;
  record_transfer f ~line:0 ~wait:0 ~cost:40 ~sharers:2;
  record_transfer f ~line:1 ~wait:10 ~cost:50 ~sharers:3;
  record_transfer f ~line:1 ~wait:0 ~cost:40 ~sharers:1;
  record_transfer f ~line:9 ~wait:0 ~cost:40 ~sharers:1;
  Alcotest.(check int) "total transfers" 4 (Obs.Forensics.total_transfers f);
  let hot = Obs.Forensics.transfer_lines f in
  Alcotest.(check (list int))
    "hottest line first, ties by line index" [ 1; 0; 9 ]
    (List.map (fun (l : Obs.Forensics.line_stat) -> l.fl_line) hot);
  (match hot with
  | top :: _ ->
    Alcotest.(check string) "false sharing shown" "B + C" top.fl_region;
    Alcotest.(check int) "wait accumulated" 10 top.fl_wait;
    Alcotest.(check int) "peak sharers" 3 top.fl_max_sharers
  | [] -> Alcotest.fail "no transfer lines");
  Alcotest.(check (list (triple string int int)))
    "per-region transfers and cycles"
    [ ("B + C", 2, 90); ("?", 1, 40); ("A", 1, 40) ]
    (Obs.Forensics.transfer_regions f);
  Alcotest.(check int) "conflict view unchanged by traffic" 2
    (List.length (Obs.Forensics.lines f))

let test_forensics_hop_bound () =
  let f = Obs.Forensics.create ~max_hops:2 () in
  for i = 1 to 3 do
    note_hop f ~tid:i ~clock:(i * 10) ~from_path:Hw
      ~to_path:Stm ~reason:Conflict (Some (w ()))
  done;
  Alcotest.(check int) "total counted past bound" 3 (Obs.Forensics.hop_count f);
  let hops = Obs.Forensics.hops f in
  Alcotest.(check int) "stored bounded" 2 (List.length hops);
  (match hops with
  | h :: _ ->
    Alcotest.(check int) "oldest first" 1 h.Obs.Forensics.hp_tid;
    Alcotest.(check string) "from" "hw" h.hp_from;
    Alcotest.(check string) "to" "stm" h.hp_to;
    Alcotest.(check bool) "witness threaded" true (h.hp_witness <> None)
  | [] -> Alcotest.fail "no hops")

let test_forensics_absorb () =
  let mk wit =
    let f = Obs.Forensics.create () in
    label f ~name:"R" ~base:0x120 ~words:8;
    List.iter (record f) wit;
    f
  in
  let a = mk [ w (); w ~victim:2 () ] in
  let b = mk [ w (); w ~addr:0x200 ~site:"mem.cas" () ] in
  note_hop b ~tid:0 ~clock:9 ~from_path:Hw ~to_path:Tle
    ~reason:Overflow None;
  Obs.Forensics.absorb a b;
  Alcotest.(check int) "counts add" 4 (Obs.Forensics.count a);
  Alcotest.(check int) "hops concatenate" 1 (Obs.Forensics.hop_count a);
  (match Obs.Forensics.sites a with
  | (s, n) :: _ ->
    Alcotest.(check string) "merged hottest site" "htm.read" s;
    Alcotest.(check int) "merged site count" 3 n
  | [] -> Alcotest.fail "no sites");
  (* Absorb is count-preserving on edges too. *)
  let total_edges =
    List.fold_left
      (fun acc (e : Obs.Forensics.edge_stat) -> acc + e.es_rw + e.es_ww)
      0 (Obs.Forensics.edges a)
  in
  Alcotest.(check int) "edge totals add" 4 total_edges

(* Golden diagnosis rendering, pinned byte for byte — the table `bench
   doctor` prints. *)
let test_print_golden () =
  let f = Obs.Forensics.create () in
  label f ~name:"Hdr" ~base:0x128 ~words:8;
  note_alloc f ~base:0x128 ~words:8 ~tid:2 ~clock:40;
  record f (w ());
  record f (w ~ww:true ~wset:true ~site:"htm.commit" ());
  note_hop f ~tid:3 ~clock:120 ~from_path:Hw ~to_path:Stm
    ~reason:Conflict (Some (w ()));
  let rendered = Format.asprintf "%a" (Obs.Forensics.print ?top:None) f in
  let expected =
    String.concat "\n"
      [
        "witnesses: 2 conflict(s), 1 escalation hop(s)";
        "";
        "== conflict graph (victim <- aggressor) ==";
        "victim  aggressor  R/W  W/W  total  ";
        "t3      t1         1    1    2      ";
        "";
        "== hot lines (top 12 by conflicts) ==";
        "line   region  allocated by     conflicts  R/W  W/W  ";
        "0x128  Hdr     t2@40 (alloc 1)  2          1    1    ";
        "";
        "== abort attribution by site ==";
        "site        witnesses  ";
        "htm.commit  1          ";
        "htm.read    1          ";
        "";
        "== escalation timeline (first 1 of 1 hops) ==";
        "thread  clock  hop      reason    witness                       ";
        "t3      120    hw->stm  conflict  t3<-t1 R/W 0x128 (commit rs)  ";
        "";
      ]
  in
  Alcotest.(check string) "diagnosis renders exactly" expected rendered

(* Golden contention table, pinned byte for byte — what `bench contend`
   prints per machine. *)
let test_print_transfers_golden () =
  let f = Obs.Forensics.create () in
  label f ~name:"Hdr" ~base:0 ~words:8;
  label f ~name:"Node" ~base:8 ~words:8;
  label f ~name:"Slot" ~base:12 ~words:4;
  record_transfer f ~line:1 ~wait:30 ~cost:90 ~sharers:4;
  record_transfer f ~line:1 ~wait:0 ~cost:60 ~sharers:2;
  record_transfer f ~line:0 ~wait:0 ~cost:60 ~sharers:1;
  record_transfer f ~line:40 ~wait:5 ~cost:65 ~sharers:1;
  (* a conflict alone never enters the contention view *)
  record f (w ~addr:0x400 ());
  let rendered = Format.asprintf "%a" (Obs.Forensics.print_transfers ~top:2) f in
  let expected =
    String.concat "\n"
      [
        "== cache-line contention (top 2 by transfers) ==";
        "line  region       transfers  cycles  wait  sharers  ";
        "0x8   Node + Slot  2          150     30    4        ";
        "0x0   Hdr          1          60      0     1        ";
        "";
        "== per-region coherence traffic ==";
        "region       transfers  cycles  ";
        "Node + Slot  2          150     ";
        "?            1          65      ";
        "Hdr          1          60      ";
        "";
      ]
  in
  Alcotest.(check string) "contention table renders exactly" expected rendered

(* Property: to_json output survives print -> parse. *)
let witness_gen =
  QCheck.Gen.(
    let* victim = int_range 0 7 in
    let* aggressor = int_range (-1) 7 in
    let* addr = map (fun a -> a * 4) (int_range 0 200) in
    let* ww = bool in
    let* site = oneofl [ "htm.read"; "htm.commit"; "stm.read.stale"; "mem.cas" ] in
    return
      (w ~victim ~aggressor ~addr ~ww ~site
         ~agg_clock:(if aggressor < 0 then -1 else 10)
         ()))

let test_json_roundtrip_prop =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:100 ~name:"to_json -> print -> parse = id"
       QCheck.(make Gen.(list_size (int_range 0 40) witness_gen))
       (fun ws ->
         let f = Obs.Forensics.create () in
         label f ~name:"R" ~base:0 ~words:64;
         List.iter (record f) ws;
         (match ws with
         | wit :: _ ->
           note_hop f ~tid:0 ~clock:5 ~from_path:Hw
             ~to_path:Stm ~reason:Conflict (Some wit)
         | [] -> ());
         let j = Obs.Forensics.to_json f in
         match Obs.Json.parse (Obs.Json.to_string j) with
         | Ok j' -> j' = j
         | Error _ -> false))

(* ------------------------------------------------------------------ *)
(* Live capture on a real machine                                      *)

(* A workload built to conflict: thread 0 runs long scanning
   transactions over a 16-word region while three writers hammer it with
   naked stores. Strong atomicity dooms the scans mid-flight, so
   witnesses are captured at the transactional validation sites. Returns
   enough state (sums and per-thread clocks) to detect any virtual-time
   perturbation. *)
let run_workload f ~seed =
  let observe = Obs.Forensics.observe f in
  let mem = Simmem.create () in
  let htm = Htm.create mem in
  let boot = Sim.boot ~seed () in
  Sim.set_observer boot (Some observe);
  let arr = Simmem.malloc mem boot 16 in
  Simmem.label mem boot ~name:"shared" ~base:arr ~words:16;
  let clocks = Array.make 4 0 in
  let sum = ref 0 in
  Sim.run ~seed ~observe
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
              for r = 1 to 40 do
                Simmem.write mem ctx (arr + ((i * 5 + r) land 15)) r;
                Sim.tick ctx (1 + Sim.Rng.int (Sim.rng ctx) 16)
              done);
           clocks.(i) <- Sim.clock ctx));
  (arr, !sum, Array.to_list clocks)

let test_live_capture () =
  let f = Obs.Forensics.create () in
  let addr, _, _ = run_workload f ~seed:7 in
  Alcotest.(check bool) "witnesses captured" true (Obs.Forensics.count f > 0);
  (match Obs.Forensics.lines f with
  | top :: _ ->
    Alcotest.(check bool) "conflicts inside the scanned region" true
      (top.Obs.Forensics.fl_line >= addr lsr 3
      && top.fl_line <= (addr + 15) lsr 3);
    Alcotest.(check string) "region resolved" "shared" top.fl_region;
    (match top.fl_prov with
    | Some (tid, _, _) ->
      (* malloc ran on the boot context, which carries the reserved tid. *)
      Alcotest.(check bool) "provenance recorded" true (tid >= 0)
    | None -> Alcotest.fail "no allocation provenance")
  | [] -> Alcotest.fail "no hot lines");
  (* The journal resolves aggressors: every edge of this fully-tracked
     run names a real thread on both ends. *)
  Alcotest.(check bool) "aggressors resolved" true
    (List.for_all
       (fun (e : Obs.Forensics.edge_stat) -> e.es_aggressor >= 0)
       (Obs.Forensics.edges f));
  Alcotest.(check bool) "capture sites are transactional" true
    (List.for_all
       (fun (s, _) -> contains s "htm.")
       (Obs.Forensics.sites f))

let test_escalation_hop_capture () =
  let f = Obs.Forensics.create () in
  let mem = Simmem.create () in
  let htm =
    Htm.create ~config:{ Htm.default_config with tle = Htm.Tle_after 1 } mem
  in
  let boot = Sim.boot ~seed:3 () in
  let n = Htm.default_config.store_buffer + 1 in
  let addr = Simmem.malloc mem boot n in
  Sim.run ~seed:3 ~observe:(Obs.Forensics.observe f)
    [|
      (fun ctx ->
        Htm.atomic htm ctx (fun tx ->
            for i = 0 to n - 1 do
              Htm.write tx (addr + i) i
            done));
    |];
  Alcotest.(check int) "one hop recorded" 1 (Obs.Forensics.hop_count f);
  match Obs.Forensics.hops f with
  | [ h ] ->
    Alcotest.(check string) "left the hardware path" "hw" h.Obs.Forensics.hp_from;
    Alcotest.(check string) "into the lock" "tle" h.hp_to;
    Alcotest.(check string) "driven by the overflow" "overflow" h.hp_reason
  | hs -> Alcotest.failf "expected 1 hop, got %d" (List.length hs)

(* Only observed contexts journal their stores: a store by an
   unobserved context leaves no last writer, and the unobserved access
   path allocates within test_perf's budget (half a word per access; an
   observed store costs an event record). *)
let test_unobserved_no_journal () =
  let mem = Simmem.create () in
  let boot = Sim.boot ~seed:1 () in
  let a = Simmem.malloc mem boot 8 in
  Simmem.write mem boot a 1;
  Alcotest.(check bool) "unobserved: store not journalled" true
    (Simmem.last_writer mem a = None);
  let observed = Sim.boot ~seed:1 () in
  Sim.set_observer observed (Some (fun ~tid:_ ~clock:_ _ -> ()));
  Simmem.write mem observed (a + 1) 2;
  Alcotest.(check bool) "observed: store journalled" true
    (Simmem.last_writer mem (a + 1) <> None);
  Simmem.write mem boot (a + 2) 3;
  Alcotest.(check bool) "unobserved beside a journal: still not journalled" true
    (Simmem.last_writer mem (a + 2) = None);
  let accesses = 20_000 in
  let churn () =
    Sim.run ~seed:1
      [|
        (fun ctx ->
          for i = 1 to accesses / 2 do
            Simmem.write mem ctx (a + (i land 7)) i;
            ignore (Simmem.read mem ctx (a + (i land 7)))
          done);
      |]
  in
  churn ();
  churn ();
  let w0 = Gc.minor_words () in
  churn ();
  let words = Gc.minor_words () -. w0 in
  let budget = 20_000.0 +. (0.5 *. float_of_int accesses) in
  if words > budget then
    Alcotest.failf
      "unobserved accesses allocated %.0f minor words for %d accesses (budget %.0f)" words
      accesses budget

(* ------------------------------------------------------------------ *)
(* The doctor pipeline: determinism across jobs, and the contend        *)
(* experiment's attribution shape                                       *)

(* The contend experiment's cells, as bench/experiments.ml builds them
   (bench's default duration 300_000 and seed 1). bench/experiments is a
   private executable module, so the cells are reconstructed from the
   same workload entry points. *)
let contend_cells () =
  let hohrc = Option.get (Collect.find_maker "ListHoHRC") in
  let rop = Option.get (Hqueue.find_maker "MichaelScott+ROP") in
  let duration = 300_000 and seed = 1 in
  [
    Runner.Cell.v ~label:"contend/ListHoHRC" (fun () ->
        ignore
          (Workload.Collect_update.run_one hohrc ~updaters:15 ~period:1_000
             ~duration ~step:(Collect.Intf.Fixed 8) ~seed));
    Runner.Cell.v ~label:"contend/ListHoHRC-churn" (fun () ->
        ignore
          (Workload.Collect_update.churn_one hohrc ~threads:16
             ~duration:(duration / 2) ~seed));
    Runner.Cell.v ~label:"contend/MichaelScott+ROP" (fun () ->
        ignore
          (Workload.Queue_bench.run_one rop ~threads:4 ~duration:(duration / 12)
             ~prefill:64 ~seed));
    Runner.Cell.v ~label:"contend/MichaelScott+ROP-hot" (fun () ->
        ignore
          (Workload.Queue_bench.run_one rop ~threads:12
             ~duration:(duration / 12) ~prefill:64 ~seed));
  ]

let forensics_bytes outcomes =
  Runner.Sweep.observers outcomes
  |> List.map (fun (name, f) ->
         name ^ ":" ^ Obs.Json.to_string (Obs.Forensics.to_json f))
  |> String.concat "\n"

(* A traced run without the heap observer still journals (every observed
   context does), so the contention cell's failed CASes resolve their
   aggressors and the trace carries conflict flow pairs. *)
let test_trace_only_cell_arrows () =
  let t = Obs.Tracer.create () in
  let cell = List.nth (contend_cells ()) 3 (* MichaelScott+ROP-hot *) in
  ignore (Runner.Sweep.run ~tracer:t [ cell ]);
  let js = Obs.Json.to_string (Obs.Tracer.to_json t) in
  let has affix = contains js affix in
  Alcotest.(check bool) "flow tail" true
    (has {|"name":"conflict","cat":"forensics","ph":"s"|});
  Alcotest.(check bool) "flow head" true
    (has {|"name":"conflict","cat":"forensics","ph":"f"|});
  Alcotest.(check bool) "mem.cas witnesses drawn" true (has {|"site":"mem.cas"|})

let test_doctor_determinism_and_shape () =
  let serial = Runner.Sweep.run ~observe:true (contend_cells ()) in
  let parallel = Runner.Sweep.run ~jobs:8 ~observe:true (contend_cells ()) in
  Alcotest.(check string) "forensics byte-identical across jobs"
    (forensics_bytes serial) (forensics_bytes parallel);
  let fors = Runner.Sweep.observers serial in
  Alcotest.(check bool) "every machine reports" true (List.length fors >= 4);
  (* HoHRC attribution: the majority of its conflict witnesses must land
     on header-labelled lines — the experiment's known truth. *)
  let hohrc = List.filter (fun (n, _) -> contains n "ListHoHRC") fors in
  Alcotest.(check bool) "hohrc machines present" true (hohrc <> []);
  let header, other =
    List.fold_left
      (fun (h, o) (_, f) ->
        List.fold_left
          (fun (h, o) (region, n) ->
            if contains region "header" then (h + n, o) else (h, o + n))
          (h, o) (Obs.Forensics.regions f))
      (0, 0) hohrc
  in
  Alcotest.(check bool) "hohrc saw conflicts" true (header + other > 0);
  Alcotest.(check bool)
    (Printf.sprintf "header-attributed majority (%d header vs %d other)" header
       other)
    true
    (header > other);
  (* ROP attribution: its payload (node) witnesses spread across lines —
     no single node line dominates, and several are hit. *)
  let rop =
    List.filter (fun (n, _) -> contains n "MichaelScott+ROP") fors
  in
  Alcotest.(check bool) "rop machines present" true (rop <> []);
  let node_lines =
    List.concat_map
      (fun (_, f) ->
        List.filter
          (fun (l : Obs.Forensics.line_stat) -> contains l.fl_region "node")
          (Obs.Forensics.lines f))
      rop
  in
  let node_total =
    List.fold_left (fun acc (l : Obs.Forensics.line_stat) -> acc + l.fl_conflicts) 0 node_lines
  in
  Alcotest.(check bool)
    (Printf.sprintf "payload witnesses spread over %d lines"
       (List.length node_lines))
    true
    (List.length node_lines >= 3);
  List.iter
    (fun (l : Obs.Forensics.line_stat) ->
      Alcotest.(check bool)
        (Printf.sprintf "no node line dominates (line 0x%x: %d of %d)"
           l.fl_addr l.fl_conflicts node_total)
        true
        (2 * l.fl_conflicts <= node_total))
    node_lines

let () =
  Alcotest.run "forensics"
    [
      ( "metrics",
        [
          Alcotest.test_case "percentiles" `Quick test_percentiles;
          test_percentile_prop;
        ] );
      ( "tracer",
        [
          Alcotest.test_case "dropped metadata" `Quick test_tracer_dropped_metadata;
          Alcotest.test_case "no drops, no metadata" `Quick
            test_tracer_no_drops_no_metadata;
        ] );
      ( "aggregation",
        [
          Alcotest.test_case "aggregates" `Quick test_forensics_aggregates;
          Alcotest.test_case "hop bound" `Quick test_forensics_hop_bound;
          Alcotest.test_case "absorb" `Quick test_forensics_absorb;
          Alcotest.test_case "print golden" `Quick test_print_golden;
          Alcotest.test_case "contention table golden" `Quick
            test_print_transfers_golden;
          test_json_roundtrip_prop;
        ] );
      ( "capture",
        [
          Alcotest.test_case "live witnesses" `Quick test_live_capture;
          Alcotest.test_case "escalation hops" `Quick test_escalation_hop_capture;
          Alcotest.test_case "unobserved stores are not journalled" `Quick
            test_unobserved_no_journal;
          Alcotest.test_case "trace-only cell draws conflict arrows" `Quick
            test_trace_only_cell_arrows;
        ] );
      ( "doctor",
        [
          Alcotest.test_case "determinism and attribution shape" `Slow
            test_doctor_determinism_and_shape;
        ] );
    ]
