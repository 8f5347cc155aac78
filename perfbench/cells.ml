(* The benchmark's units of work: one cell builds a simulated machine and
   its structure (set-up), runs its threads under one [Sim.run] (the
   measured phase), then checks the simulated outputs. An explore unit
   runs one schedule of [Explore.Search.search].

   Every call into a layer goes through that layer's public functions;
   host time is taken here, around those calls: CPU time for set-up and
   the measured phase, wall time for the traced spans inside it. *)

open Stats
module Driver = Workload.Driver

(* Simulated counts of one unit, summed over a round. Everything here is
   deterministic in the seed. *)
type counts = {
  mutable threads : int;  (** threads started, one first pick each *)
  mutable switches : int;  (** [Sim.yield_count] delta *)
  mutable reads : int;
  mutable read_misses : int;
  mutable writes : int;
  mutable write_misses : int;
  mutable atomics : int;
  mutable allocs : int;
  mutable frees : int;
  mutable queue_wait : int;  (** cycles, from [mem.queue_wait] bucket floors *)
  mutable heap_extent : int;  (** the largest heap of the round, in words *)
  mutable htm_attempts : int;
  mutable htm_commits : int;
  mutable aborts_conflict : int;
  mutable aborts_overflow : int;
  mutable aborts_other : int;
  mutable fallbacks : int;
  mutable stm_attempts : int;
  mutable stm_commits : int;
  mutable stm_aborts : int;
  mutable q_ops : int;
  mutable q_vcycles : int;  (** simulated cycles spent inside queue calls *)
  mutable collects : int;
  mutable collect_vcycles : int;  (** simulated cycles spent inside collects *)
  mutable core_ops : int;
  mutable schedules : int;
  mutable ops : int;  (** completed simulated operations *)
  mutable vops : int;  (** simulated memory accesses (scheduler steps on explore) *)
  mutable machines : int;
}

let zero () =
  {
    threads = 0; switches = 0; reads = 0; read_misses = 0; writes = 0; write_misses = 0;
    atomics = 0; allocs = 0; frees = 0; queue_wait = 0; heap_extent = 0;
    htm_attempts = 0; htm_commits = 0; aborts_conflict = 0; aborts_overflow = 0;
    aborts_other = 0; fallbacks = 0; stm_attempts = 0; stm_commits = 0; stm_aborts = 0;
    q_ops = 0; q_vcycles = 0; collects = 0; collect_vcycles = 0; core_ops = 0;
    schedules = 0; ops = 0; vops = 0; machines = 0;
  }

let to_list c =
  [ c.threads; c.switches; c.reads; c.read_misses; c.writes; c.write_misses; c.atomics;
    c.allocs; c.frees; c.queue_wait; c.heap_extent; c.htm_attempts; c.htm_commits;
    c.aborts_conflict; c.aborts_overflow; c.aborts_other; c.fallbacks; c.stm_attempts;
    c.stm_commits; c.stm_aborts; c.q_ops; c.q_vcycles; c.collects; c.collect_vcycles;
    c.core_ops; c.schedules; c.ops; c.vops; c.machines ]

let add_into acc c =
  acc.threads <- acc.threads + c.threads;
  acc.switches <- acc.switches + c.switches;
  acc.reads <- acc.reads + c.reads;
  acc.read_misses <- acc.read_misses + c.read_misses;
  acc.writes <- acc.writes + c.writes;
  acc.write_misses <- acc.write_misses + c.write_misses;
  acc.atomics <- acc.atomics + c.atomics;
  acc.allocs <- acc.allocs + c.allocs;
  acc.frees <- acc.frees + c.frees;
  acc.queue_wait <- acc.queue_wait + c.queue_wait;
  acc.heap_extent <- max acc.heap_extent c.heap_extent;
  acc.htm_attempts <- acc.htm_attempts + c.htm_attempts;
  acc.htm_commits <- acc.htm_commits + c.htm_commits;
  acc.aborts_conflict <- acc.aborts_conflict + c.aborts_conflict;
  acc.aborts_overflow <- acc.aborts_overflow + c.aborts_overflow;
  acc.aborts_other <- acc.aborts_other + c.aborts_other;
  acc.fallbacks <- acc.fallbacks + c.fallbacks;
  acc.stm_attempts <- acc.stm_attempts + c.stm_attempts;
  acc.stm_commits <- acc.stm_commits + c.stm_commits;
  acc.stm_aborts <- acc.stm_aborts + c.stm_aborts;
  acc.q_ops <- acc.q_ops + c.q_ops;
  acc.q_vcycles <- acc.q_vcycles + c.q_vcycles;
  acc.collects <- acc.collects + c.collects;
  acc.collect_vcycles <- acc.collect_vcycles + c.collect_vcycles;
  acc.core_ops <- acc.core_ops + c.core_ops;
  acc.schedules <- acc.schedules + c.schedules;
  acc.ops <- acc.ops + c.ops;
  acc.vops <- acc.vops + c.vops;
  acc.machines <- acc.machines + c.machines

type result = {
  machine_ns : int;  (** [Driver.machine], CPU *)
  prefill_ns : int;  (** [maker.make] and prefill, CPU *)
  run_ns : int;  (** the measured phase, CPU *)
  run_wall_ns : int;  (** the measured phase, wall *)
  minor_words : float;  (** allocated during the measured phase *)
  counts : counts;
  digest : int;
  verdict : (unit, string) Stdlib.result;
}

type cell = { label : string; run : unit -> result }

(* Host wall spans recorded by traced thread bodies, in nanoseconds. A
   span is a few microseconds, too short for a CPU-clock system call.
   Thread bodies test [tracing] per call, so an untraced run reads no
   clock. *)
let tracing = ref false
let queue_op_ns = Buf.create ()
let collect_ns = Buf.create ()
let update_ns = Buf.create ()

let clear_spans () =
  Buf.clear queue_op_ns;
  Buf.clear collect_ns;
  Buf.clear update_ns

let span_start () = if !tracing then wall_ns () else 0
let span_end buf t0 = if !tracing then Buf.add buf (wall_ns () - t0)

let queue_wait_sum mem =
  List.fold_left
    (fun acc (lo, n) -> acc + (lo * n))
    0
    (Obs.Metrics.buckets (Obs.Metrics.hist (Simmem.metrics mem) "mem.queue_wait"))

(* Run the threads and add the deltas of every layer's counters into [c].
   Returns the host CPU and wall nanoseconds of [Sim.run] and the minor
   words it allocated. *)
let measure c (m : Driver.machine) ~seed bodies =
  let s0 = Simmem.stats m.mem and h0 = Htm.stats m.htm in
  let w0 = queue_wait_sum m.mem in
  let y0 = !Sim.yield_count in
  let g0 = Gc.minor_words () in
  let wall0 = wall_ns () in
  let t0 = cpu_ns () in
  Sim.run ~seed bodies;
  let t1 = cpu_ns () in
  let wall1 = wall_ns () in
  let g1 = Gc.minor_words () in
  let s1 = Simmem.stats m.mem and h1 = Htm.stats m.htm in
  c.threads <- c.threads + Array.length bodies;
  c.switches <- c.switches + (!Sim.yield_count - y0);
  c.reads <- c.reads + (s1.reads - s0.reads);
  c.read_misses <- c.read_misses + (s1.read_misses - s0.read_misses);
  c.writes <- c.writes + (s1.writes - s0.writes);
  c.write_misses <- c.write_misses + (s1.write_misses - s0.write_misses);
  c.atomics <- c.atomics + (s1.atomics - s0.atomics);
  c.allocs <- c.allocs + (s1.total_allocs - s0.total_allocs);
  c.frees <- c.frees + (s1.total_frees - s0.total_frees);
  c.vops <-
    c.vops
    + (s1.reads - s0.reads) + (s1.writes - s0.writes) + (s1.atomics - s0.atomics)
    + (s1.total_allocs - s0.total_allocs) + (s1.total_frees - s0.total_frees);
  c.queue_wait <- c.queue_wait + (queue_wait_sum m.mem - w0);
  c.heap_extent <- max c.heap_extent s1.heap_extent;
  let other (h : Htm.stats) =
    h.aborts_illegal + h.aborts_explicit + h.aborts_lock + h.aborts_spurious
  in
  c.htm_attempts <- c.htm_attempts + (h1.attempts_hw - h0.attempts_hw);
  c.htm_commits <- c.htm_commits + (h1.commits - h0.commits);
  c.aborts_conflict <- c.aborts_conflict + (h1.aborts_conflict - h0.aborts_conflict);
  c.aborts_overflow <- c.aborts_overflow + (h1.aborts_overflow - h0.aborts_overflow);
  c.aborts_other <- c.aborts_other + (other h1 - other h0);
  c.fallbacks <-
    c.fallbacks
    + (h1.lock_fallbacks - h0.lock_fallbacks)
    + (h1.escalations_stm - h0.escalations_stm);
  c.stm_attempts <- c.stm_attempts + (h1.attempts_stm - h0.attempts_stm);
  c.stm_commits <- c.stm_commits + (h1.stm_commits - h0.stm_commits);
  c.stm_aborts <- c.stm_aborts + (h1.stm_aborts - h0.stm_aborts);
  (t1 - t0, wall1 - wall0, g1 -. g0)

(* Build a machine of the default size, timed in CPU time. *)
let machine c ?htm_config ~label ~seed () =
  let t0 = cpu_ns () in
  let m = Driver.machine ?htm_config ~seed ~label () in
  let dt = cpu_ns () - t0 in
  c.machines <- c.machines + 1;
  (m, dt)

let sum = Array.fold_left ( + ) 0

let digest_of c ~extra = mix_list (mix_list digest_init (to_list c)) extra

(* ------------------------------------------------------------------ *)
(* Correctness checks                                                  *)
(* ------------------------------------------------------------------ *)

(* At quiescence every enqueued value is either dequeued or still queued. *)
let check_queue_count ~prefill ~enqueued ~dequeued ~drained =
  if prefill + enqueued - dequeued = drained then Ok ()
  else
    Error
      (Printf.sprintf "queue count: prefill %d + enqueued %d - dequeued %d <> drained %d"
         prefill enqueued dequeued drained)

(* A reclaiming queue returns every word it allocated once destroyed. *)
let check_reclaimed ~before ~after =
  if before = after then Ok ()
  else Error (Printf.sprintf "live words %d after destroy, %d before make" after before)

(* A quiescent collect returns exactly the registered values. *)
let check_collect ~expected ~got =
  let e = List.sort Int.compare expected and g = List.sort Int.compare got in
  if e = g then Ok ()
  else
    Error
      (Printf.sprintf "quiescent collect returned %d values, %d registered (%s)"
         (List.length g) (List.length e)
         (if List.length e = List.length g then "values differ" else "counts differ"))

(* No transactional block is torn: every word of the block holds
   [expect], the number of committed increments. *)
let check_block mem ~base ~span ~expect =
  let rec go j =
    if j = span then Ok ()
    else
      let v = Simmem.peek mem (base + j) in
      if v <> expect then
        Error (Printf.sprintf "torn block: word %d holds %d, expected %d" j v expect)
      else go (j + 1)
  in
  go 0

let ( >>= ) r f = match r with Ok () -> f () | Error _ as e -> e

(* ------------------------------------------------------------------ *)
(* Queue cells: the Fig. 1 loop (coin-flip enqueue/dequeue, prefilled)  *)
(* ------------------------------------------------------------------ *)

let queue_cell (mk : Hqueue.Intf.maker) ~threads ~prefill ~duration ~seed =
  let label = Printf.sprintf "queue/%s/x%d" mk.queue_name threads in
  let run () =
    let c = zero () in
    let m, machine_ns = machine c ~label ~seed () in
    let t0 = cpu_ns () in
    let live0 = (Simmem.stats m.mem).live_words in
    let q = mk.make m.htm m.boot ~num_threads:threads in
    for _ = 1 to prefill do
      q.enqueue m.boot (Driver.fresh_value ())
    done;
    let prefill_ns = cpu_ns () - t0 in
    let deadline = Driver.warmup + duration in
    let ops = Array.make threads 0 in
    let enq = Array.make threads 0 in
    let deq = Array.make threads 0 in
    let vcyc = Array.make threads 0 in
    let clocks = Array.make threads 0 in
    let bodies =
      Array.init threads (fun i ctx ->
          ops.(i) <-
            Driver.measured_loop ctx ~deadline (fun () ->
                let t0 = span_start () in
                let c0 = Sim.clock ctx in
                if Sim.Rng.bool (Sim.rng ctx) then begin
                  q.enqueue ctx (Driver.fresh_value ());
                  enq.(i) <- enq.(i) + 1
                end
                else if q.dequeue_drop ctx then deq.(i) <- deq.(i) + 1;
                vcyc.(i) <- vcyc.(i) + (Sim.clock ctx - c0);
                span_end queue_op_ns t0);
          clocks.(i) <- Sim.clock ctx)
    in
    let run_ns, run_wall_ns, minor_words = measure c m ~seed bodies in
    let drained = ref 0 in
    while q.dequeue_drop m.boot do
      incr drained
    done;
    let enqueued = sum enq and dequeued = sum deq in
    let verdict =
      check_queue_count ~prefill ~enqueued ~dequeued ~drained:!drained >>= fun () ->
      q.destroy m.boot;
      if mk.reclaims then
        check_reclaimed ~before:live0 ~after:(Simmem.stats m.mem).live_words
      else Ok ()
    in
    c.q_ops <- sum ops;
    c.q_vcycles <- sum vcyc;
    c.ops <- sum ops;
    let extra = [ enqueued; dequeued; !drained; (Simmem.stats m.mem).live_words ] in
    { machine_ns; prefill_ns; run_ns; run_wall_ns; minor_words; counts = c;
      digest = digest_of c ~extra:(extra @ Array.to_list clocks); verdict }
  in
  { label; run }

(* ------------------------------------------------------------------ *)
(* Collect cells                                                       *)
(* ------------------------------------------------------------------ *)

type slot = { h : Collect.Intf.handle; mutable v : int }

(* Collect into a fresh buffer from the boot context, once every thread
   has finished, and compare against the values the threads bound last. *)
let quiescent_collect (inst : Collect.Intf.instance) (m : Driver.machine) expected =
  let buf = Sim.Ibuf.create ~capacity:(2 * (List.length expected + 1)) () in
  inst.collect m.boot buf;
  let got = Sim.Ibuf.to_list buf in
  (check_collect ~expected ~got, List.length got)

let timed_collect (inst : Collect.Intf.instance) ctx buf vcyc =
  let t0 = span_start () in
  let c0 = Sim.clock ctx in
  Sim.Ibuf.clear buf;
  inst.collect ctx buf;
  vcyc := !vcyc + (Sim.clock ctx - c0);
  span_end collect_ns t0

let timed_update (inst : Collect.Intf.instance) ctx s =
  let t0 = span_start () in
  let v = Driver.fresh_value () in
  inst.update ctx s.h v;
  s.v <- v;
  span_end update_ns t0

(* The scaling study's collect-dominated mix (collect 90 %, update 8 %,
   register 1 %, deregister 1 %) with four slots of budget per thread,
   half registered before measurement. Handles stay registered at the end
   so the quiescent collect has something to return. *)
let mix_collect_cell (mk : Collect.Intf.maker) ~threads ~duration ~seed =
  let label = Printf.sprintf "collect/%s/x%d" mk.algo_name threads in
  let per_thread = 4 in
  let run () =
    let c = zero () in
    let m, machine_ns = machine c ~label ~seed () in
    let t0 = cpu_ns () in
    let cfg =
      { Collect.Intf.max_slots = per_thread * threads; num_threads = threads;
        step = Collect.Intf.Fixed 32; min_size = 4 }
    in
    let inst = mk.make m.htm m.boot cfg in
    let prefill_ns = cpu_ns () - t0 in
    let deadline = Driver.warmup + duration in
    let ops = Array.make threads 0 in
    let collects = Array.make threads 0 in
    let vcyc = ref 0 in
    let clocks = Array.make threads 0 in
    let slots = Array.init threads (fun _ -> Queue.create ()) in
    let bodies =
      Array.init threads (fun i ctx ->
          let mine = slots.(i) in
          for _ = 1 to per_thread / 2 do
            let v = Driver.fresh_value () in
            Queue.add { h = inst.register ctx v; v } mine
          done;
          let buf = Sim.Ibuf.create ~capacity:(per_thread * threads) () in
          let rng = Sim.rng ctx in
          Sim.advance_to ctx Driver.warmup;
          while Sim.clock ctx < deadline do
            let dice = Sim.Rng.int rng 100 in
            let performed =
              if dice < 90 then begin
                Driver.tick_dispatch ctx;
                timed_collect inst ctx buf vcyc;
                collects.(i) <- collects.(i) + 1;
                true
              end
              else if dice < 98 then begin
                if Queue.is_empty mine then false
                else begin
                  Driver.tick_dispatch ctx;
                  let s = Queue.pop mine in
                  timed_update inst ctx s;
                  Queue.add s mine;
                  true
                end
              end
              else if dice < 99 then begin
                if Queue.length mine >= per_thread then false
                else begin
                  Driver.tick_dispatch ctx;
                  let v = Driver.fresh_value () in
                  Queue.add { h = inst.register ctx v; v } mine;
                  true
                end
              end
              else if Queue.is_empty mine then false
              else begin
                Driver.tick_dispatch ctx;
                inst.deregister ctx (Queue.pop mine).h;
                true
              end
            in
            if performed then ops.(i) <- ops.(i) + 1 else Sim.tick ctx 20
          done;
          clocks.(i) <- Sim.clock ctx)
    in
    let run_ns, run_wall_ns, minor_words = measure c m ~seed bodies in
    let expected =
      Array.fold_left (fun acc q -> Queue.fold (fun acc s -> s.v :: acc) acc q) [] slots
    in
    let verdict, got = quiescent_collect inst m expected in
    c.collects <- sum collects;
    c.collect_vcycles <- !vcyc;
    c.core_ops <- sum ops;
    c.ops <- sum ops;
    { machine_ns; prefill_ns; run_ns; run_wall_ns; minor_words; counts = c;
      digest = digest_of c ~extra:(got :: Array.to_list clocks); verdict }
  in
  { label; run }

(* The Fig. 4 shape: one collector back to back, [updaters] threads that
   register 64 handles between them and each update its first handle
   every [period] cycles, with an adaptively telescoping collect. *)
let total_handles = 64

let telescoping_cell (mk : Collect.Intf.maker) ~updaters ~period ~duration ~seed =
  let threads = updaters + 1 in
  let label = Printf.sprintf "telescoping/%s/x%d" mk.algo_name threads in
  let run () =
    let c = zero () in
    let m, machine_ns = machine c ~label ~seed () in
    let t0 = cpu_ns () in
    let cfg =
      { Collect.Intf.max_slots = total_handles * 2; num_threads = threads;
        step = Collect.Intf.Adaptive; min_size = 4 }
    in
    let inst = mk.make m.htm m.boot cfg in
    let prefill_ns = cpu_ns () - t0 in
    let deadline = Driver.warmup + duration in
    let quotas = Array.of_list (Driver.split_evenly total_handles updaters) in
    let slots = Array.make updaters [||] in
    let collects = ref 0 in
    let updates = ref 0 in
    let vcyc = ref 0 in
    let clocks = Array.make threads 0 in
    let collector ctx =
      let buf = Sim.Ibuf.create ~capacity:(2 * total_handles) () in
      collects := Driver.measured_loop ctx ~deadline (fun () -> timed_collect inst ctx buf vcyc);
      clocks.(0) <- Sim.clock ctx
    in
    let updater i ctx =
      let mine =
        Array.init quotas.(i) (fun _ ->
            let v = Driver.fresh_value () in
            { h = inst.register ctx v; v })
      in
      slots.(i) <- mine;
      if Array.length mine > 0 then
        Driver.periodic_loop ctx ~deadline ~period (fun () ->
            timed_update inst ctx mine.(0);
            incr updates);
      clocks.(i + 1) <- Sim.clock ctx
    in
    let bodies = Array.init threads (fun i -> if i = 0 then collector else updater (i - 1)) in
    let run_ns, run_wall_ns, minor_words = measure c m ~seed bodies in
    let expected =
      Array.fold_left (fun acc a -> Array.fold_left (fun acc s -> s.v :: acc) acc a) [] slots
    in
    let verdict, got = quiescent_collect inst m expected in
    c.collects <- !collects;
    c.collect_vcycles <- !vcyc;
    c.core_ops <- !collects + !updates;
    c.ops <- !collects + !updates;
    { machine_ns; prefill_ns; run_ns; run_wall_ns; minor_words; counts = c;
      digest = digest_of c ~extra:(got :: Array.to_list clocks); verdict }
  in
  { label; run }

(* ------------------------------------------------------------------ *)
(* Long transactions on the software path                              *)
(* ------------------------------------------------------------------ *)

(* Stores per transaction: past Rock's 32-entry store buffer, so every
   transaction overflows the hardware (the fallback experiment's span). *)
let span = 48

(* Every thread increments all [span] words of one shared block per
   transaction, so at quiescence each word must equal the commit count. *)
let block_cell (pol : Workload.Fallback_bench.policy) ~threads ~duration ~seed =
  let label = Printf.sprintf "stm/%s/x%d" pol.pol_name threads in
  let run () =
    let c = zero () in
    let m, machine_ns = machine c ~htm_config:pol.pol_config ~label ~seed () in
    let t0 = cpu_ns () in
    let base = Simmem.malloc m.mem m.boot span in
    let prefill_ns = cpu_ns () - t0 in
    let deadline = Driver.warmup + duration in
    let ops = Array.make threads 0 in
    let clocks = Array.make threads 0 in
    let bodies =
      Array.init threads (fun i ctx ->
          ops.(i) <-
            Driver.measured_loop ctx ~deadline (fun () ->
                Htm.atomic m.htm ctx (fun tx ->
                    for j = 0 to span - 1 do
                      Htm.write tx (base + j) (Htm.read tx (base + j) + 1)
                    done));
          clocks.(i) <- Sim.clock ctx)
    in
    let run_ns, run_wall_ns, minor_words = measure c m ~seed bodies in
    let total = sum ops in
    let verdict = check_block m.mem ~base ~span ~expect:total in
    c.ops <- total;
    { machine_ns; prefill_ns; run_ns; run_wall_ns; minor_words; counts = c;
      digest = digest_of c ~extra:(total :: Array.to_list clocks); verdict }
  in
  { label; run }

(* ------------------------------------------------------------------ *)
(* Schedule exploration                                                *)
(* ------------------------------------------------------------------ *)

(* Schedule [index] of the search over [scenarios]: [Search.search] with a
   budget of one at that offset runs exactly the schedule the full search
   would run at that index. Explore builds its machines inside the
   scenario, out of reach of [Simmem.stats], so [vops] counts scheduler
   steps ([Sim.yield_count]): with a recorder on, every tick is one. *)
let schedule_cell (scenarios : Explore.Scenario.t list) ~base_seed index =
  let scn = List.nth scenarios (index mod List.length scenarios) in
  let label = "schedule/" ^ scn.scn_key in
  let run () =
    let c = zero () in
    let y0 = !Sim.yield_count in
    let g0 = Gc.minor_words () in
    let w0 = wall_ns () in
    let t0 = cpu_ns () in
    let s =
      Explore.Search.search ~offset:index ~base_seed ~with_faults:true ~max_violations:1
        ~budget:1 scenarios
    in
    let t1 = cpu_ns () in
    let w1 = wall_ns () in
    let g1 = Gc.minor_words () in
    c.threads <- scn.scn_threads;
    c.switches <- !Sim.yield_count - y0;
    c.vops <- c.switches;
    c.schedules <- 1;
    c.ops <- 1;
    let verdict =
      match s.res_violations with
      | [] when s.res_passed = s.res_runs -> Ok ()
      | v :: _ -> Error (scn.scn_key ^ ": " ^ v.vio_artifact.art_message)
      | [] -> Error (scn.scn_key ^ ": schedule did not pass")
    in
    { machine_ns = 0; prefill_ns = 0; run_ns = t1 - t0; run_wall_ns = w1 - w0;
      minor_words = g1 -. g0; counts = c; digest = digest_of c ~extra:[ s.res_passed ]; verdict }
  in
  { label; run }
