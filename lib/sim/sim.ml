module Rng = Rng
module Ibuf = Ibuf
module Fault = Fault

exception Stop_thread
exception Watchdog of string

(* The memory-consistency variant matrix (see docs/MEMORY_ORDERING.md).
   [Sim] owns the type so that layers above ([Simmem], the explorer, the
   CLI) agree on one vocabulary, but the semantics live entirely in
   [Simmem]'s store buffers; the scheduler itself is model-agnostic. *)
module Memmodel = struct
  type t = {
    buffered : bool;  (* per-thread FIFO store buffer active *)
    sb_depth : int;  (* buffer capacity; a full buffer drains its oldest entry *)
    forward_loads : bool;  (* loads see the newest own-buffer entry *)
    fence_drains : bool;  (* fences drain the buffer (off = bug-finding control) *)
  }

  let sc = { buffered = false; sb_depth = 0; forward_loads = false; fence_drains = true }
  let sb = { buffered = true; sb_depth = 8; forward_loads = true; fence_drains = true }
  let sb_bypass = { sb with forward_loads = false }
  let sb_fence_nop = { sb with fence_drains = false }

  let all =
    [ ("sc", sc); ("sb", sb); ("sb-bypass", sb_bypass); ("sb-fence-nop", sb_fence_nop) ]

  (* Field-wise equality: the polymorphic [=] this replaces walks the
     record generically on every [to_string]. *)
  let equal a b =
    a.buffered = b.buffered && a.sb_depth = b.sb_depth
    && a.forward_loads = b.forward_loads
    && a.fence_drains = b.fence_drains

  let to_string m =
    match List.find_opt (fun (_, v) -> equal v m) all with
    | Some (name, _) -> name
    | None ->
      Printf.sprintf "custom[depth=%d,forward=%b,fence=%b]" m.sb_depth m.forward_loads
        m.fence_drains

  let of_string = function
    | "sc" -> Some sc
    | "sb" -> Some sb
    | "sb-bypass" -> Some sb_bypass
    | "sb-fence-nop" -> Some sb_fence_nop
    | _ -> None
end

(* Simulated-thread ceiling. Sharer sets in Simmem are multi-word bitmasks
   sized to each heap's configured thread capacity (61 threads in one word
   for paper-scale runs, more words beyond that — see lib/simmem), so the
   scheduler itself no longer caps the thread count at a word's bits.
   Exploring-mode features ([record], non-min-clock strategies) still
   encode runnable sets as single-word masks and are guarded to 61. *)
let max_threads = 256
let boot_tid = max_threads

(* Threads a single-word bitmask can describe: the explore/recorder layer
   and default sharer sets use [1 lsl tid] directly. *)
let mask_threads = 61

type _ Effect.t += Yield : unit Effect.t

type status =
  | Not_started of (tctx -> unit)
  | Ready of (unit, unit) Effect.Deep.continuation
  | Running
  | Finished

and tctx = {
  ctx_tid : int;
  mutable clock : int;
  ctx_rng : Rng.t;
  mutable sched : sched option;
  mutable faults : Fault.t option;
  mutable shield_depth : int;
  mutable last_progress : int;
  (* The observation stream this thread reports to. Pure OCaml-side
     bookkeeping: emitting charges no virtual cycles, draws no simulator
     RNG and never forces exploring mode, so an observed run is
     cycle-identical to a bare one. *)
  mutable ctx_obs : Obs.Event.sink option;
  (* Drain hooks installed by memory layers with store buffers ({!Simmem}):
     [fence] runs them with [~terminal:false]; thread termination (normal
     return or a kill) runs them with [~terminal:true], where they must not
     tick or yield — the fiber is past its last scheduling point. Under the
     [sc] model no hook is ever registered, so [fence] degenerates to a
     plain [tick] and stays cycle-identical to the pre-weak-memory code. *)
  mutable ctx_drains : (terminal:bool -> unit) list;
}

and sched = {
  ctxs : tctx array;
  statuses : status array;
  (* The runnable set as a flat clock array, one entry per thread: a
     runnable thread's entry is a copy of its clock, every other entry is
     [max_int]. Written at the three transitions (start, yield, pick); the
     copy stays exact because a waiting thread's clock never changes —
     only the running thread ticks, stalls or charges, and terminal drains
     charge the finishing thread. A pick is one pass over this array. *)
  rclock : int array;
  srng : Rng.t;
  mutable live : int;
  (* Cached lower bound on the minimal clock among all other runnable
     threads; the running thread keeps going without yielding while its
     clock stays below this, which removes most continuation captures. *)
  mutable min_other : int;
  (* Scratch written by [pick_min]: the second-smallest runnable clock
     (with multiplicity), i.e. the minimum over the other runnable threads
     once the picked one is excluded. Saves the separate min_other scan. *)
  mutable pick_min2 : int;
  (* The thread a scheduling point already picked inside the yielding
     fiber, for the loop to resume without picking again; -1 when the loop
     must pick (thread start and finish, direct yields). *)
  mutable next : int;
  (* Clock at which the running thread's current run slice began. *)
  mutable slice_start : int;
  wd_budget : int;  (* max_int = no watchdog: one compare per switch, no option match *)
  wd_diag : (unit -> string) option;
  (* Clock of the most recent progress note; the watchdog fires when the
     schedule's frontier runs more than wd_budget past it. *)
  mutable wd_last : int;
  strat : strat_state;
  (* Exploring mode (any non-min-clock strategy, or a recorder installed)
     disables the min_other fast path so that every tick is a scheduling
     decision. That makes choice-point numbering identical between a
     recorded run and its deviation replay. *)
  explore : bool;
  recd : recorder option;
  mutable choice_idx : int;
}

and strat_state =
  | S_min
  | S_random of Rng.t
  | S_pct of pct_state
  | S_dev of (int, int) Hashtbl.t

and pct_state = {
  prio : int array; (* per-tid priority; higher runs first *)
  mutable changes : int list; (* ascending change points, in choice indices *)
  mutable demote_next : int; (* next (ever lower) priority handed out *)
}

and recorder = {
  mutable rev_picks : int list;
  mutable rev_devs : (int * int) list;
  (* Every counted decision as (choice index, runnable-tid bitmask, chosen
     tid): the raw material for exhaustive schedule enumeration — a DFS can
     branch on every runnable alternative at every index (lib/explore's
     litmus enumerator). *)
  mutable rev_choices : (int * int * int) list;
}

(* The ambient observer: consulted by [run] and [boot] when no explicit
   [?observe] is given. The benchmark driver points it at the current
   machine's subscribers so workloads that call [Sim.run] directly are
   observed without threading a sink through every signature.
   Domain-local: worker domains of the benchmark runner install their
   own sinks without racing the main domain (or each other). *)
let ambient_observer : Obs.Event.sink option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let set_default_observer s = Domain.DLS.set ambient_observer s

let boot ?(seed = 0) () =
  {
    ctx_tid = boot_tid;
    clock = 0;
    ctx_rng = Rng.create (seed lxor 0x6a09e667);
    sched = None;
    faults = None;
    shield_depth = 0;
    last_progress = 0;
    ctx_obs = Domain.DLS.get ambient_observer;
    ctx_drains = [];
  }

let tid ctx = ctx.ctx_tid
let clock ctx = ctx.clock
let rng ctx = ctx.ctx_rng
let set_observer ctx s = ctx.ctx_obs <- s

let emit ctx ev =
  match ctx.ctx_obs with None -> () | Some f -> f ~tid:ctx.ctx_tid ~clock:ctx.clock ev

let yield_count = ref 0

(* Fault injection happens at scheduling points only (tick/advance_to,
   never charge): a stall models preemption by jumping the thread's clock
   past the interval other threads get to run in, and a kill terminates
   the thread exactly as [stop] would — mid-operation, with whatever
   partial non-transactional effects it had already applied. *)
let observe_fault ctx kind = emit ctx (Obs.Event.Fault kind)

let inject ctx =
  match ctx.faults with
  | None -> ()
  | Some f ->
    if ctx.shield_depth = 0 then begin
      match Fault.decide f ~tid:ctx.ctx_tid ~clock:ctx.clock with
      | Fault.Nothing -> ()
      | Fault.Stall d ->
        observe_fault ctx (Fault.Stalled d);
        ctx.clock <- ctx.clock + d
      | Fault.Kill ->
        observe_fault ctx Fault.Killed;
        raise Stop_thread
    end

(* A named code point: layers mark semantically dangerous windows (e.g.
   the STM commit while versioned locks are held) and a fault plan's
   [kills_at_point] entries fire exactly there. Charges nothing and never
   yields — it is a kill point, not a scheduling point — so registering
   one cannot perturb a fault-free schedule. *)
let fault_point ctx name =
  match ctx.faults with
  | None -> ()
  | Some f ->
    if
      ctx.shield_depth = 0
      && Fault.at_point f ~tid:ctx.ctx_tid ~clock:ctx.clock ~point:name
    then begin
      observe_fault ctx (Fault.Killed_at name);
      raise Stop_thread
    end

let charge ctx cost = ctx.clock <- ctx.clock + cost

let register_drain ctx f = ctx.ctx_drains <- ctx.ctx_drains @ [ f ]

(* Thread teardown: flush what the dying thread already issued. Runs in
   terminal mode — hooks charge rather than tick, because the fiber has no
   further scheduling points. A TSO machine does not lose the contents of
   a store buffer when its core halts; a crash-kill flushing its buffer is
   the hardware-faithful reading of [Fault.Kill] (the buffered stores were
   executed instructions, only their visibility was pending). *)
let drain_terminal ctx = List.iter (fun f -> f ~terminal:true) ctx.ctx_drains

let stop () = raise Stop_thread

let shield ctx f =
  ctx.shield_depth <- ctx.shield_depth + 1;
  Fun.protect ~finally:(fun () -> ctx.shield_depth <- ctx.shield_depth - 1) f

let spurious_fires ctx =
  match ctx.faults with
  | None -> false
  | Some f ->
    let fires =
      ctx.shield_depth = 0 && Fault.spurious f ~tid:ctx.ctx_tid ~clock:ctx.clock
    in
    if fires then observe_fault ctx Fault.Spurious_abort;
    fires

let note_progress ctx =
  ctx.last_progress <- ctx.clock;
  match ctx.sched with
  | None -> ()
  | Some s -> if ctx.clock > s.wd_last then s.wd_last <- ctx.clock

(* Scheduling strategies (lib/explore drives these): [Min_clock] is the
   virtual-time-faithful default; the others deliberately break the
   clock/execution-order correspondence to explore interleavings that the
   default schedule can never produce. *)
type strategy =
  | Min_clock
  | Random_walk of { rw_seed : int }
  | Pct of { pct_seed : int; pct_depth : int; pct_length : int }
  | Deviate of (int * int) list

let pp_strategy ppf = function
  | Min_clock -> Format.pp_print_string ppf "min-clock"
  | Random_walk { rw_seed } -> Format.fprintf ppf "random-walk(seed=%d)" rw_seed
  | Pct { pct_seed; pct_depth; pct_length } ->
    Format.fprintf ppf "pct(seed=%d,d=%d,len=%d)" pct_seed pct_depth pct_length
  | Deviate devs -> Format.fprintf ppf "deviate(%d points)" (List.length devs)

(* The PCT change points: [depth - 1] priority-change positions drawn
   uniformly from [0, length) in choice-index space, sorted. Exposed as a
   pure function so its placement properties are testable in isolation;
   [run] derives the exact same list for a [Pct] strategy. *)
let pct_change_points ~seed ~depth ~length =
  let rng = Rng.create (seed lxor 0x3c6ef372) in
  let n = max 0 (depth - 1) in
  let l = max 1 length in
  let rec gen acc k = if k = 0 then acc else gen (Rng.int rng l :: acc) (k - 1) in
  List.sort Int.compare (gen [] n)

let recorder () = { rev_picks = []; rev_devs = []; rev_choices = [] }
let picks r = List.rev r.rev_picks
let deviations r = List.rev r.rev_devs
let choices r = List.rev r.rev_choices
let decision_string r = String.concat ";" (List.rev_map string_of_int r.rev_picks)

(* Pick a runnable thread with the minimal clock; break ties with the
   scheduler RNG so no thread is systematically favoured. One pass over
   [rclock] in ascending tid order computes the pick *and* the two
   smallest runnable clocks (with multiplicity): excluding the picked
   thread from the minimum leaves exactly the second-smallest, which
   lands in [s.pick_min2] so the min_other update needs no second scan.
   Every tie draws, including ties at a prefix minimum that a later,
   lower clock then discards: the draw sequence is part of the schedule.
   An entry above [m2] can change nothing, so the common case is one
   compare; [max_int] entries (not runnable) never tie. *)
let pick_min s =
  let rc = s.rclock in
  let best = ref (-1) and best_clock = ref max_int and ties = ref 0 in
  let m2 = ref max_int in
  for i = 0 to Array.length rc - 1 do
    let c = Array.unsafe_get rc i in
    if c <= !m2 then
      if c < !best_clock then begin
        m2 := !best_clock;
        best_clock := c;
        best := i;
        ties := 1
      end
      else begin
        m2 := c;
        if c = !best_clock && c <> max_int then begin
          incr ties;
          if Rng.int s.srng !ties = 0 then best := i
        end
      end
  done;
  s.pick_min2 <- !m2;
  !best

(* Exploring-mode decisions read [rclock] in ascending tid order, the
   order the strategies' choices and RNG draws are defined in. Exploring
   runs are guarded to [mask_threads] threads, so the runnable set is
   also the recorder's single-word tid mask. *)
let is_runnable s i = i >= 0 && i < Array.length s.rclock && s.rclock.(i) <> max_int

let runnable_mask s =
  let m = ref 0 in
  for i = 0 to Array.length s.rclock - 1 do
    if is_runnable s i then m := !m lor (1 lsl i)
  done;
  !m

let count_runnable s =
  let c = ref 0 in
  for i = 0 to Array.length s.rclock - 1 do
    if is_runnable s i then incr c
  done;
  !c

(* The [k]-th runnable tid in ascending order (0-based), -1 if none. *)
let nth_runnable s k =
  let rec go i seen =
    if i >= Array.length s.rclock then -1
    else if not (is_runnable s i) then go (i + 1) seen
    else if seen = k then i
    else go (i + 1) (seen + 1)
  in
  go 0 0

(* One scheduling decision. In exploring mode the min-clock pick (and its
   tie-break RNG draws) is computed at every decision even when another
   strategy overrides it: the replay of a recorded schedule as deviations
   from min-clock depends on both runs consuming the scheduler RNG
   identically. *)
let pick s =
  let d = pick_min s in
  if not s.explore then d
  else begin
    let nr = count_runnable s in
    let chosen =
      match s.strat with
      | S_min -> d
      | S_dev tbl ->
        (match Hashtbl.find_opt tbl s.choice_idx with
         | Some tid when is_runnable s tid -> tid
         | Some _ | None -> d)
      | S_random rng -> if nr <= 1 then d else nth_runnable s (Rng.int rng nr)
      | S_pct p ->
        let best = ref (-1) in
        for i = 0 to Array.length s.rclock - 1 do
          if is_runnable s i && (!best < 0 || p.prio.(i) > p.prio.(!best)) then best := i
        done;
        !best
    in
    (match s.strat with
     | S_pct p ->
       (* A change point demotes the thread chosen at that point below
          every priority handed out so far, PCT-style. *)
       let rec demote () =
         match p.changes with
         | c :: rest when c <= s.choice_idx ->
           p.changes <- rest;
           p.demote_next <- p.demote_next - 1;
           p.prio.(chosen) <- p.demote_next;
           demote ()
         | _ -> ()
       in
       demote ()
     | S_min | S_random _ | S_dev _ -> ());
    (match s.recd with
     | Some r ->
       r.rev_picks <- chosen :: r.rev_picks;
       if nr >= 2 then begin
         r.rev_choices <- (s.choice_idx, runnable_mask s, chosen) :: r.rev_choices;
         if chosen <> d then r.rev_devs <- (s.choice_idx, chosen) :: r.rev_devs
       end
     | None -> ());
    if nr >= 2 then s.choice_idx <- s.choice_idx + 1;
    chosen
  end

(* A scheduling point, decided inside the fiber that reached it: the
   thread marks itself runnable and makes the full decision the run loop
   would make. When that hands the turn straight back (and the watchdog
   would not fire), the thread marks itself running again, closes its run
   slice and keeps going with no effect performed; otherwise it leaves the
   chosen tid for the loop and yields. Either way this is one scheduling
   point, counted in [yield_count]. *)
let decide ctx s =
  incr yield_count;
  let me = ctx.ctx_tid in
  s.rclock.(me) <- ctx.clock;
  let i = pick s in
  if i = me && ctx.clock - s.wd_last <= s.wd_budget then begin
    s.rclock.(me) <- max_int;
    s.min_other <- (if s.explore then min_int else s.pick_min2);
    if ctx.clock > s.slice_start then begin
      emit ctx (Obs.Event.Run { start = s.slice_start });
      s.slice_start <- ctx.clock
    end
  end
  else begin
    s.next <- i;
    Effect.perform Yield
  end

let tick ctx cost =
  ctx.clock <- ctx.clock + cost;
  inject ctx;
  match ctx.sched with
  | None -> ()
  | Some s -> if ctx.clock >= s.min_other then decide ctx s

(* A full memory fence. Drain hooks run first (oldest registration first)
   so the fence cost is charged after the buffered stores have paid their
   own write costs; with no hooks registered (the [sc] model, or a thread
   that never buffered a store) this is exactly [tick ctx cost]. *)
let fence ?(cost = 60) ctx =
  List.iter (fun f -> f ~terminal:false) ctx.ctx_drains;
  tick ctx cost

let advance_to ctx t =
  if t > ctx.clock then ctx.clock <- t;
  inject ctx;
  match ctx.sched with
  | None -> ()
  | Some s -> if ctx.clock >= s.min_other then decide ctx s

(* Exit flush as a scheduler-visible step: a thread that buffered stores
   (has drain hooks) yields once between its last instruction and its
   terminal drain. Without this the flush is atomically glued to the last
   instruction, so no other thread could ever observe the window between
   a final load and the buffer drain — litmus SB's (0,0) would be
   unreachable even under [sb]. Runs inside the fiber and yields
   directly, leaving the pick to the loop; under [sc] no hooks are ever
   registered and this is a no-op, preserving schedules byte-for-byte.
   Kill paths skip it on purpose: a crash flushes immediately (see
   [drain_terminal]). *)
let exit_flush ctx s =
  if ctx.ctx_drains <> [] then begin
    incr yield_count;
    s.rclock.(ctx.ctx_tid) <- ctx.clock;
    Effect.perform Yield
  end

let handler s t : (unit, unit) Effect.Deep.handler =
  (* Hoisted out of [effc]: the yield handler and its [Some] wrapper are
     allocated once per thread, not once per [perform]. The scheduler
     switches on every contended memory access, so a per-perform closure
     here is a measurable share of the whole simulation's allocation. *)
  let on_yield (k : (unit, unit) Effect.Deep.continuation) = s.statuses.(t.ctx_tid) <- Ready k in
  let some_on_yield = Some on_yield in
  {
    retc =
      (fun () ->
        drain_terminal t;
        s.statuses.(t.ctx_tid) <- Finished;
        s.live <- s.live - 1);
    exnc =
      (fun e ->
        match e with
        | Stop_thread ->
          drain_terminal t;
          s.statuses.(t.ctx_tid) <- Finished;
          s.live <- s.live - 1
        | e -> raise e);
    effc =
      (fun (type a) (eff : a Effect.t) :
           ((a, unit) Effect.Deep.continuation -> unit) option ->
        match eff with Yield -> some_on_yield | _ -> None);
  }

(* Watchdog diagnostic: the full machine state a livelock post-mortem
   needs — per-thread clocks, run states, and progress recency. *)
let diagnose s frontier =
  let b = Buffer.create 256 in
  Buffer.add_string b
    (Printf.sprintf "no progress committed while the schedule advanced to cycle %d" frontier);
  Buffer.add_string b (Printf.sprintf " (last progress at %d)\n" s.wd_last);
  Array.iteri
    (fun i t ->
      let st =
        match s.statuses.(i) with
        | Not_started _ -> "not-started"
        | Ready _ -> "ready"
        | Running -> "running"
        | Finished -> "finished"
      in
      Buffer.add_string b
        (Printf.sprintf "  thread %d: %-11s clock=%-10d last_progress=%d\n" i st t.clock
           t.last_progress))
    s.ctxs;
  (match s.wd_diag with
   | None -> ()
   | Some f -> Buffer.add_string b (f ()));
  Buffer.contents b

let run ?(seed = 0) ?(strategy = Min_clock) ?record ?faults ?watchdog ?diag ?observe
    bodies =
  let n = Array.length bodies in
  if n = 0 || n > max_threads then
    invalid_arg "Sim.run: need between 1 and 256 threads";
  let exploring =
    (match strategy with Min_clock -> false | _ -> true) || Option.is_some record
  in
  if exploring && n > mask_threads then
    invalid_arg "Sim.run: exploring strategies and recording support at most 61 threads";
  let obs = match observe with Some _ -> observe | None -> Domain.DLS.get ambient_observer in
  let root = Rng.create seed in
  let ctxs =
    Array.init n (fun i ->
        {
          ctx_tid = i;
          clock = 0;
          ctx_rng = Rng.create (Rng.bits root lxor i);
          sched = None;
          faults;
          shield_depth = 0;
          last_progress = 0;
          ctx_obs = obs;
          ctx_drains = [];
        })
  in
  let statuses = Array.init n (fun i -> Not_started bodies.(i)) in
  let strat =
    match strategy with
    | Min_clock -> S_min
    | Random_walk { rw_seed } -> S_random (Rng.create (rw_seed lxor 0x1f83d9ab))
    | Pct { pct_seed; pct_depth; pct_length } ->
      let prng = Rng.create (pct_seed lxor 0x5be0cd19) in
      let prio = Array.init n (fun i -> i + 1) in
      for i = n - 1 downto 1 do
        let j = Rng.int prng (i + 1) in
        let tmp = prio.(i) in
        prio.(i) <- prio.(j);
        prio.(j) <- tmp
      done;
      S_pct
        { prio;
          changes = pct_change_points ~seed:pct_seed ~depth:pct_depth ~length:pct_length;
          demote_next = 0 }
    | Deviate devs ->
      let tbl = Hashtbl.create (List.length devs * 2) in
      List.iter (fun (k, tid) -> if not (Hashtbl.mem tbl k) then Hashtbl.add tbl k tid) devs;
      S_dev tbl
  in
  let explore = exploring in
  let s =
    { ctxs; statuses; rclock = Array.make n 0; srng = Rng.split root; live = n;
      min_other = 0; pick_min2 = max_int; next = -1; slice_start = 0;
      wd_budget = Option.value watchdog ~default:max_int; wd_diag = diag; wd_last = 0;
      strat; explore; recd = record; choice_idx = 0 }
  in
  Array.iter (fun c -> c.sched <- Some s) ctxs;
  let rec loop () =
    if s.live > 0 then begin
      let i = if s.next >= 0 then s.next else pick s in
      s.next <- -1;
      assert (i >= 0);
      let t = ctxs.(i) in
      (* The copied-clock invariant: a layer that charges a waiting thread
         would make every later pick read a stale clock. *)
      assert (s.rclock.(i) = t.clock);
      if t.clock - s.wd_last > s.wd_budget then begin
        Array.iter (fun c -> c.sched <- None) ctxs;
        raise (Watchdog (diagnose s t.clock))
      end;
      s.min_other <- (if s.explore then min_int else s.pick_min2);
      s.slice_start <- t.clock;
      s.rclock.(i) <- max_int;
      (match statuses.(i) with
       | Not_started f ->
         statuses.(i) <- Running;
         Effect.Deep.match_with
           (fun () ->
             f t;
             exit_flush t s)
           () (handler s t)
       | Ready k ->
         statuses.(i) <- Running;
         Effect.Deep.continue k ()
       | Running | Finished -> assert false);
      (match t.ctx_obs with
       | Some f when t.clock > s.slice_start ->
         f ~tid:i ~clock:t.clock (Obs.Event.Run { start = s.slice_start })
       | _ -> ());
      loop ()
    end
  in
  loop ();
  Array.iter (fun c -> c.sched <- None) ctxs

module Backoff = struct
  type bctx = tctx

  type t = { ctx : bctx; base : int; cap : int; mutable bound : int }

  let create ?(base = 50) ?(cap = 4096) ctx = { ctx; base; cap; bound = base }

  let once b =
    let d = (b.bound / 2) + Rng.int b.ctx.ctx_rng (max 1 (b.bound / 2)) in
    tick b.ctx d;
    b.bound <- min b.cap (b.bound * 2)

  let reset b = b.bound <- b.base

  (* The pure retry-backoff envelope shared by the transaction layers
     ({!Htm}, {!Stm}): exponential in the attempt number, clamped at [cap]
     (the shift itself saturates at 9 so the envelope is total for any
     [n]). Exposed as functions of their inputs so qcheck can state the
     monotone-until-cap property without driving a scheduler. *)
  let bound ~base ~cap n = min cap (base lsl min n 9)

  (* One randomized delay inside the envelope: uniform in
     [bound/2, bound). Deterministic in (rng state, base, cap, n). *)
  let delay ~base ~cap rng n =
    let hi = bound ~base ~cap n in
    (hi / 2) + Rng.int rng (max 1 (hi / 2))
end
