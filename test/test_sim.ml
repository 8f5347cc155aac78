(* Tests for the virtual-time cooperative scheduler. *)

let test_all_threads_finish () =
  let done_ = Array.make 8 false in
  Sim.run ~seed:1
    (Array.init 8 (fun i ->
         fun ctx ->
           Sim.tick ctx (10 * (i + 1));
           done_.(i) <- true));
  Array.iteri (fun i d -> Alcotest.(check bool) (Printf.sprintf "thread %d" i) true d) done_

let test_tids_and_clocks () =
  let tids = Array.make 4 (-1) in
  let clocks = Array.make 4 (-1) in
  Sim.run ~seed:2
    (Array.init 4 (fun i ->
         fun ctx ->
           tids.(i) <- Sim.tid ctx;
           Sim.tick ctx 100;
           clocks.(i) <- Sim.clock ctx));
  Array.iteri (fun i t -> Alcotest.(check int) "tid" i t) tids;
  Array.iter (fun c -> Alcotest.(check int) "clock advanced" 100 c) clocks

(* Events must execute in virtual-time order: with each access a yield
   point, a thread that ticks large costs cannot overtake one that ticks
   small costs. *)
let test_timestamp_order () =
  let log = ref [] in
  let worker cost ctx =
    for _ = 1 to 50 do
      Sim.tick ctx cost;
      log := (Sim.clock ctx, Sim.tid ctx) :: !log
    done
  in
  Sim.run ~seed:3 [| worker 3; worker 7; worker 11 |];
  let times = List.rev_map fst !log in
  let sorted = List.sort compare times in
  Alcotest.(check (list int)) "events logged in timestamp order" sorted times

let test_determinism () =
  let trace seed =
    let log = Buffer.create 256 in
    let worker ctx =
      for _ = 1 to 30 do
        Sim.tick ctx (1 + Sim.Rng.int (Sim.rng ctx) 10);
        Buffer.add_string log (Printf.sprintf "%d@%d;" (Sim.tid ctx) (Sim.clock ctx))
      done
    in
    Sim.run ~seed (Array.make 5 worker);
    Buffer.contents log
  in
  Alcotest.(check string) "same seed, same trace" (trace 42) (trace 42);
  Alcotest.(check bool) "different seed, different trace" true (trace 42 <> trace 43)

let test_advance_to () =
  let c = ref 0 in
  Sim.run ~seed:4
    [|
      (fun ctx ->
        Sim.advance_to ctx 5000;
        c := Sim.clock ctx;
        Sim.advance_to ctx 100 (* no-op going backwards *));
    |];
  Alcotest.(check int) "advanced" 5000 !c

let test_stop_thread () =
  let after = ref false in
  let other = ref false in
  Sim.run ~seed:5
    [|
      (fun ctx ->
        Sim.tick ctx 1;
        ignore (Sim.stop ());
        after := true);
      (fun ctx ->
        Sim.tick ctx 1000;
        other := true);
    |];
  Alcotest.(check bool) "code after stop not run" false !after;
  Alcotest.(check bool) "other thread unaffected" true !other

let test_exception_propagates () =
  Alcotest.check_raises "thread exception reaches run" (Failure "boom") (fun () ->
      Sim.run ~seed:6 [| (fun ctx -> Sim.tick ctx 1; failwith "boom") |])

let test_boot_ctx () =
  let ctx = Sim.boot () in
  Alcotest.(check int) "boot tid" Sim.boot_tid (Sim.tid ctx);
  Sim.tick ctx 500;
  Alcotest.(check int) "boot clock advances" 500 (Sim.clock ctx)

let test_thread_count_limits () =
  Alcotest.check_raises "zero threads" (Invalid_argument "Sim.run: need between 1 and 256 threads")
    (fun () -> Sim.run [||]);
  Alcotest.check_raises "too many threads"
    (Invalid_argument "Sim.run: need between 1 and 256 threads") (fun () ->
      Sim.run (Array.make 257 (fun _ -> ())));
  (* Exploring-mode features still encode runnable sets in one word. *)
  Alcotest.check_raises "recording caps at 61"
    (Invalid_argument "Sim.run: exploring strategies and recording support at most 61 threads")
    (fun () -> Sim.run ~record:(Sim.recorder ()) (Array.make 62 (fun _ -> ())))

let test_charge_no_yield () =
  (* charge advances the clock without a scheduling point: another thread
     cannot observe intermediate state even if its clock is earlier. *)
  let flag = ref 0 in
  let observed = ref (-1) in
  Sim.run ~seed:7
    [|
      (fun ctx ->
        Sim.tick ctx 100;
        flag := 1;
        Sim.charge ctx 1000;
        flag := 2;
        Sim.tick ctx 0);
      (fun ctx ->
        Sim.advance_to ctx 500;
        observed := !flag);
    |];
  Alcotest.(check bool) "atomic section not split" true (!observed = 0 || !observed = 2)

let test_backoff_grows_and_resets () =
  Sim.run ~seed:8
    [|
      (fun ctx ->
        let b = Sim.Backoff.create ~base:10 ~cap:100 ctx in
        let t0 = Sim.clock ctx in
        Sim.Backoff.once b;
        let d1 = Sim.clock ctx - t0 in
        Alcotest.(check bool) "first delay within base" true (d1 >= 5 && d1 <= 10);
        for _ = 1 to 10 do
          Sim.Backoff.once b
        done;
        let t1 = Sim.clock ctx in
        Sim.Backoff.once b;
        let dcap = Sim.clock ctx - t1 in
        Alcotest.(check bool) "capped" true (dcap <= 100);
        Sim.Backoff.reset b;
        let t2 = Sim.clock ctx in
        Sim.Backoff.once b;
        let d2 = Sim.clock ctx - t2 in
        Alcotest.(check bool) "reset restores base" true (d2 >= 5 && d2 <= 10));
    |]

(* Fairness: threads doing equal work end with similar clocks and none is
   starved. *)
let test_fairness () =
  let finish = Array.make 6 0 in
  Sim.run ~seed:9
    (Array.init 6 (fun i ->
         fun ctx ->
           for _ = 1 to 1000 do
             Sim.tick ctx 5
           done;
           finish.(i) <- Sim.clock ctx));
  Array.iter (fun c -> Alcotest.(check int) "equal work, equal clock" 5000 c) finish

(* The scheduler keeps a copy of every waiting thread's clock, exact
   because only the running thread moves its own clock. A layer that
   charged a waiting thread would make every later pick read a stale
   clock; the run must fail loudly at that thread's next resume instead
   of mis-scheduling. *)
let test_charged_waiter_trips_invariant () =
  let victim = ref None in
  let bodies =
    [|
      (fun ctx ->
        victim := Some ctx;
        Sim.tick ctx 10;
        Sim.tick ctx 10);
      (fun ctx ->
        Sim.tick ctx 5;
        Sim.charge (Option.get !victim) 1_000;
        Sim.tick ctx 100);
    |]
  in
  match Sim.run ~seed:1 bodies with
  | () -> Alcotest.fail "charging a waiting thread went unnoticed"
  | exception Assert_failure (file, _, _) ->
    Alcotest.(check string) "raised by the scheduler" "lib/sim/sim.ml" file

let prop_deterministic_final_clocks =
  QCheck.Test.make ~name:"run is deterministic for any seed" ~count:50 QCheck.small_int
    (fun seed ->
      let final () =
        let acc = Array.make 3 0 in
        Sim.run ~seed
          (Array.init 3 (fun i ->
               fun ctx ->
                 for _ = 1 to 20 do
                   Sim.tick ctx (1 + Sim.Rng.int (Sim.rng ctx) 5)
                 done;
                 acc.(i) <- Sim.clock ctx));
        Array.to_list acc
      in
      final () = final ())

(* Backoff obeys its contract for arbitrary base/cap: each delay lands in
   [bound/2, bound] where the bound doubles per call up to cap, and reset
   restores the initial bound. *)
let prop_backoff_bounds =
  QCheck.Test.make ~name:"backoff: delays track the doubling bound up to cap" ~count:200
    QCheck.(triple small_int small_int small_int)
    (fun (b0, c0, s) ->
      let base = 1 + (abs b0 mod 200) in
      let cap = base + (abs c0 mod 5_000) in
      let ok = ref true in
      let expect cond = if not cond then ok := false in
      Sim.run ~seed:s
        [|
          (fun ctx ->
            let b = Sim.Backoff.create ~base ~cap ctx in
            let bound = ref base in
            for _ = 1 to 14 do
              let t0 = Sim.clock ctx in
              Sim.Backoff.once b;
              let d = Sim.clock ctx - t0 in
              expect (d >= !bound / 2);
              expect (d <= !bound);
              expect (d <= cap);
              bound := min cap (!bound * 2)
            done;
            Sim.Backoff.reset b;
            let t0 = Sim.clock ctx in
            Sim.Backoff.once b;
            let d = Sim.clock ctx - t0 in
            expect (d >= base / 2 && d <= base));
        |];
      !ok)

(* ------------------------------------------------------------------ *)
(* Schedule golden                                                     *)

(* Exact schedules, pinned. The programs are tie-heavy: every cost comes
   from a small set, so clocks collide at most decisions and the tie-break
   draws of the scheduler RNG decide the order. Each thread logs
   (tid, clock) at every step, and an observer logs every run slice and
   injected fault into the same log; a case's golden is the digest of
   that log plus the number of scheduling points ([Sim.yield_count]
   delta), and, when recorded, the digests of the recorder's picks,
   choices and deviations. Any change to a decision, to the order or
   number of scheduler RNG draws, or to slice reporting moves a golden. *)

let digest s = String.sub (Digest.to_hex (Digest.string s)) 0 16

let costs = [| 0; 1; 2; 4 |]

(* The low half of the tids first ticks 10 and the high half 5, so once
   every thread has started, low tids sit tied at a higher clock than
   the high tids that follow them in the scan: the tie-break draws made
   for the higher clock are consumed and then discarded. After that each
   thread ticks [steps] times at costs drawn from [costs], sleeping to
   the next multiple of 8 at every fifth step instead. *)
let tie_program ~n ~steps log =
  Array.init n (fun tid ctx ->
      let note () = Buffer.add_string log (Printf.sprintf "%d@%d;" tid (Sim.clock ctx)) in
      Sim.tick ctx (if tid < n / 2 then 10 else 5);
      note ();
      for k = 1 to steps do
        if k mod 5 = 0 then Sim.advance_to ctx (((Sim.clock ctx / 8) + 1) * 8)
        else Sim.tick ctx costs.(Sim.Rng.int (Sim.rng ctx) (Array.length costs));
        note ()
      done)

let log_events log : Obs.Event.sink =
 fun ~tid ~clock ev ->
  let add = Buffer.add_string log in
  match ev with
  | Obs.Event.Run { start } -> add (Printf.sprintf "R%d:%d-%d;" tid start clock)
  | Obs.Event.Fault (Obs.Event.Stalled d) -> add (Printf.sprintf "S%d@%d+%d;" tid clock d)
  | Obs.Event.Fault _ -> add (Printf.sprintf "K%d@%d;" tid clock)
  | _ -> ()

let recorded r =
  let triples l = String.concat ";" (List.map (fun (a, b, c) -> Printf.sprintf "%d,%d,%d" a b c) l) in
  let pairs l = String.concat ";" (List.map (fun (a, b) -> Printf.sprintf "%d,%d" a b) l) in
  Printf.sprintf " picks=%s choices=%s devs=%s" (digest (Sim.decision_string r))
    (digest (triples (Sim.choices r)))
    (digest (pairs (Sim.deviations r)))

let golden_run ?strategy ?(record = false) ?faults ~n ~steps () =
  let log = Buffer.create 4096 in
  let r = if record then Some (Sim.recorder ()) else None in
  let y0 = !Sim.yield_count in
  Sim.run ~seed:(n + 1) ?strategy ?record:r ?faults ~observe:(log_events log)
    (tie_program ~n ~steps log);
  let yields = !Sim.yield_count - y0 in
  Printf.sprintf "%s/%d%s" (digest (Buffer.contents log)) yields
    (match r with Some r -> recorded r | None -> "")

let steps_for n = if n > 63 then 12 else 40

let fault_plan () =
  Sim.Fault.make
    { Sim.Fault.none with
      fault_seed = 5; stall_rate = 0.1; stall_cycles = 12; kill_rate = 0.01;
      max_random_kills = 2 }

let golden_cases =
  List.map
    (fun (n, expect) -> (Printf.sprintf "min-clock x%d" n, expect, fun () ->
         golden_run ~n ~steps:(steps_for n) ()))
    [ (2, "e03d4a86b7cf1f3f/44");
      (3, "ea4f92c0c8b4ca75/93");
      (16, "dadf37a214990417/630");
      (61, "13eb7e26cc0da770/2478");
      (62, "ee18b7cea30ad128/2518");
      (63, "1badbeab2b8d52bf/2566");
      (256, "efb796bacc41b963/3317") ]
  @ List.concat_map
      (fun (n, expects) ->
        let steps = steps_for n in
        List.map2
          (fun (name, strategy) expect ->
            (Printf.sprintf "%s x%d" name n, expect, fun () ->
                 golden_run ~strategy ~record:true ~n ~steps ()))
          [ ("recorded min-clock", Sim.Min_clock);
            ("random-walk", Sim.Random_walk { rw_seed = 11 });
            ("pct", Sim.Pct { pct_seed = 7; pct_depth = 3; pct_length = n * steps });
            ("deviate", Sim.Deviate [ (0, 1); (2, 0); (5, n - 1); (9, n + 3); (12, 0) ]) ]
          expects)
      [ (2,
         [ "8cfa28a2894a411e/82 picks=348474b275b20ece choices=95550ca659a892e7 devs=d41d8cd98f00b204";
           "71d5b613add077e5/82 picks=54fcf037fad9aefc choices=72bd0d00ad1b56eb devs=45264f99b72b6622";
           "d90addf005d35090/82 picks=0205b30596728bbf choices=699f11582724abf3 devs=037f113286d00aef";
           "3fd60bb8dd55fc60/82 picks=5144d43a1d10db40 choices=89ccd25a3174aae5 devs=3683a61bc81dfc38" ]);
        (3,
         [ "f7a74fd6bc7beffa/123 picks=821467d3ec4b04c2 choices=fa59f6051ca4c995 devs=d41d8cd98f00b204";
           "1762eb79c8e2c6f8/123 picks=3bfb8bad2e6ae2ff choices=72b46ff403d3faf4 devs=332a6f6bf69b160a";
           "30d8b94b60c1eb5a/123 picks=d7bf45373ef8a68f choices=e805792b2059d9ad devs=a1d2366cee2f7b6b";
           "4fafe32aae826da1/123 picks=c7f94866bf398578 choices=5ea847b0ae5bc613 devs=b1b583cbb0adcf8a" ]);
        (16,
         [ "eb032cd30e5a3794/656 picks=195a75ca4d1c16ef choices=120c5cd698835b38 devs=d41d8cd98f00b204";
           "7ac40d047d49c98e/656 picks=a0471a505c6f0450 choices=572cd4c32da002fe devs=e7cc12a03f00ca95";
           "8b65aa2f490209b9/656 picks=5102dfa3ac1d47e0 choices=7c1277fe2ea9afc7 devs=8f1a99f4ff28b16a";
           "e3940baf0a8ec85a/656 picks=f50ec46ef2a48c40 choices=d64aab7cd5b75ca0 devs=0c03cdfb04cef85a" ]);
        (61,
         [ "05182d8a63632959/2501 picks=7f10c9107b14202b choices=686da191e4d75d16 devs=d41d8cd98f00b204";
           "30bc23a06b097b82/2501 picks=78e851da07fb3bbf choices=8021684c9303cb6e devs=3cc61686ebddefa0";
           "c2c364d2bbc1e654/2501 picks=01c994d6ba2a3193 choices=6d301a50008f3dd2 devs=f2aa3b5a63a4ef0c";
           "25fa2bc528553e00/2501 picks=c1cddd81d691b18d choices=51a5718e79384651 devs=388e2c300f1d7cd9" ]) ]
  @ [ ("stalls and kills x16", "74dd929d30019f1a/560 faults=9699bfacec95e87a", fun () ->
        let faults = fault_plan () in
        let g = golden_run ~faults ~n:16 ~steps:40 () in
        g ^ " faults=" ^ digest (Sim.Fault.trace faults)) ]

let test_schedule_golden () =
  List.iter (fun (name, expect, run) -> Alcotest.(check string) name expect (run ())) golden_cases

(* A livelock the watchdog must catch, with its diagnostic pinned: thread
   0 notes progress once and finishes, the others spin without progress
   (two of them tied at the same cost). Recorded, every tick is a
   decision, so the watchdog also fires on a thread the decision handed
   straight back. *)
let watchdog_text ?strategy ?record () =
  let spin cost ctx =
    while true do
      Sim.tick ctx cost
    done
  in
  match
    Sim.run ~seed:3 ?strategy ?record ~watchdog:500
      ~diag:(fun () -> "  golden-diag\n")
      [| (fun ctx -> Sim.tick ctx 3; Sim.note_progress ctx); spin 7; spin 5; spin 5 |]
  with
  | () -> "no watchdog"
  | exception Sim.Watchdog msg -> msg

let test_watchdog_golden () =
  Alcotest.(check string) "min-clock"
    "no progress committed while the schedule advanced to cycle 504 (last progress at 3)\n  thread 0: finished    clock=3          last_progress=3\n  thread 1: ready       clock=504        last_progress=0\n  thread 2: ready       clock=505        last_progress=0\n  thread 3: ready       clock=505        last_progress=0\n  golden-diag\n"
    (watchdog_text ());
  let r = Sim.recorder () in
  let text = watchdog_text ~strategy:(Sim.Random_walk { rw_seed = 4 }) ~record:r () in
  Alcotest.(check string) "recorded random-walk"
    "no progress committed while the schedule advanced to cycle 505 (last progress at 3)\n  thread 0: finished    clock=3          last_progress=3\n  thread 1: ready       clock=504        last_progress=0\n  thread 2: ready       clock=345        last_progress=0\n  thread 3: ready       clock=505        last_progress=0\n  golden-diag\n picks=0ee29839c860c2a7 choices=ab83af230e560f36 devs=8332982b7bf77f8d"
    (text ^ recorded r)

let () =
  Alcotest.run "sim"
    [
      ( "scheduler",
        [
          Alcotest.test_case "all threads finish" `Quick test_all_threads_finish;
          Alcotest.test_case "tids and clocks" `Quick test_tids_and_clocks;
          Alcotest.test_case "timestamp order" `Quick test_timestamp_order;
          Alcotest.test_case "determinism" `Quick test_determinism;
          Alcotest.test_case "advance_to" `Quick test_advance_to;
          Alcotest.test_case "stop thread" `Quick test_stop_thread;
          Alcotest.test_case "exception propagates" `Quick test_exception_propagates;
          Alcotest.test_case "boot context" `Quick test_boot_ctx;
          Alcotest.test_case "thread count limits" `Quick test_thread_count_limits;
          Alcotest.test_case "charge is atomic" `Quick test_charge_no_yield;
          Alcotest.test_case "fairness" `Quick test_fairness;
          Alcotest.test_case "charged waiter trips the clock copy" `Quick
            test_charged_waiter_trips_invariant;
        ] );
      ( "schedule golden",
        [
          Alcotest.test_case "tie-heavy schedules" `Quick test_schedule_golden;
          Alcotest.test_case "watchdog diagnostic" `Quick test_watchdog_golden;
        ] );
      ("backoff", [ Alcotest.test_case "grow and reset" `Quick test_backoff_grows_and_resets ]);
      ( "property",
        [
          QCheck_alcotest.to_alcotest prop_deterministic_final_clocks;
          QCheck_alcotest.to_alcotest prop_backoff_bounds;
        ] );
    ]
