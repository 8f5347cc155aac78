(* Deterministic fault plans: seed-derived environmental adversity injected
   at the simulator's scheduling points. The plan decides, the scheduler
   applies — this module never touches thread state itself, so it stays
   free of any dependency on the scheduler and both directions remain
   testable in isolation.

   Every decision draws from per-thread SplitMix streams derived from the
   plan seed, so a fixed spec yields a bit-identical fault trace no matter
   how the victim code behaves between scheduling points. *)

type spec = {
  fault_seed : int;
  stall_rate : float;
  stall_cycles : int;
  kill_rate : float;
  max_random_kills : int;
  kills_at : (int * int) list;
  kills_at_point : (int * string * int) list;
  spurious_abort_rate : float;
}

let none =
  {
    fault_seed = 0;
    stall_rate = 0.0;
    stall_cycles = 0;
    kill_rate = 0.0;
    max_random_kills = 0;
    kills_at = [];
    kills_at_point = [];
    spurious_abort_rate = 0.0;
  }

type event_kind = Obs.Event.fault =
  | Stalled of int
  | Killed
  | Killed_at of string
  | Spurious_abort

type event = { ev_tid : int; ev_clock : int; ev_kind : event_kind }

let pp_event ppf e =
  match e.ev_kind with
  | Stalled d -> Format.fprintf ppf "t%d@%d stalled %d" e.ev_tid e.ev_clock d
  | Killed -> Format.fprintf ppf "t%d@%d killed" e.ev_tid e.ev_clock
  | Killed_at p -> Format.fprintf ppf "t%d@%d killed at %s" e.ev_tid e.ev_clock p
  | Spurious_abort -> Format.fprintf ppf "t%d@%d spurious" e.ev_tid e.ev_clock

type decision = Nothing | Stall of int | Kill

type thread_state = {
  point_rng : Rng.t; (* one draw per scheduling point *)
  spurious_rng : Rng.t; (* one draw per transaction attempt *)
  mutable kill_at : int option;
  mutable point_kills : (string * int) list; (* pending named-point kills *)
  mutable dead : bool;
}

(* Thread states cover every possible tid (including boot contexts), so a
   plan needs no advance knowledge of the thread count. *)
let n_states = 64

type t = {
  spec : spec;
  (* [kill_rate +. stall_rate], summed once: a sum made per decision
     would be boxed to pass it to [Rng.below]. *)
  stall_below : float;
  states : thread_state array;
  mutable random_kills : int;
  mutable rev_events : event list;
}

let make spec =
  let states =
    Array.init n_states (fun tid ->
        let kill_at =
          List.fold_left
            (fun acc (t, at) -> if t = tid then Some (match acc with None -> at | Some a -> min a at) else acc)
            None spec.kills_at
        in
        let point_kills =
          List.filter_map
            (fun (t, p, at) -> if t = tid then Some (p, at) else None)
            spec.kills_at_point
        in
        {
          point_rng = Rng.create (spec.fault_seed lxor (0x9e3779b9 * (tid + 1)));
          spurious_rng = Rng.create (spec.fault_seed lxor (0x85ebca6b * (tid + 1)));
          kill_at;
          point_kills;
          dead = false;
        })
  in
  {
    spec;
    stall_below = spec.kill_rate +. spec.stall_rate;
    states;
    random_kills = 0;
    rev_events = [];
  }

let spec t = t.spec

let log t tid clock kind =
  t.rev_events <- { ev_tid = tid; ev_clock = clock; ev_kind = kind } :: t.rev_events

let kill t st ~tid ~clock =
  st.dead <- true;
  log t tid clock Killed;
  Kill

let decide t ~tid ~clock =
  if tid < 0 || tid >= n_states then Nothing
  else begin
    let st = t.states.(tid) in
    if st.dead then Nothing
    else
      match st.kill_at with
      | Some at when clock >= at -> kill t st ~tid ~clock
      | _ ->
        let s = t.spec in
        if s.kill_rate <= 0.0 && s.stall_rate <= 0.0 then Nothing
        else begin
          let r = Rng.bits53 st.point_rng in
          if Rng.below r s.kill_rate && t.random_kills < s.max_random_kills then begin
            t.random_kills <- t.random_kills + 1;
            kill t st ~tid ~clock
          end
          else if Rng.below r t.stall_below && s.stall_cycles > 0 then begin
            let d = (s.stall_cycles / 2) + Rng.int st.point_rng (max 1 (s.stall_cycles / 2)) in
            log t tid clock (Stalled d);
            Stall d
          end
          else Nothing
        end
  end

(* Named code points ([Sim.fault_point]): layers register semantically
   interesting windows — e.g. the STM commit between lock acquisition and
   write-back — and a plan kills a thread at its first arrival there once
   its clock has passed the trigger time. Deterministic like [kills_at],
   but aimed at a code location instead of a raw virtual time. *)
let at_point t ~tid ~clock ~point =
  if tid < 0 || tid >= n_states then false
  else begin
    let st = t.states.(tid) in
    if st.dead then false
    else begin
      let fires, rest =
        List.partition (fun (p, at) -> p = point && clock >= at) st.point_kills
      in
      match fires with
      | [] -> false
      | _ :: _ ->
        st.point_kills <- rest;
        st.dead <- true;
        log t tid clock (Killed_at point);
        true
    end
  end

let spurious t ~tid ~clock =
  if t.spec.spurious_abort_rate <= 0.0 || tid < 0 || tid >= n_states then false
  else begin
    let st = t.states.(tid) in
    let fires =
      (not st.dead) && Rng.below (Rng.bits53 st.spurious_rng) t.spec.spurious_abort_rate
    in
    if fires then log t tid clock Spurious_abort;
    fires
  end

let events t = List.rev t.rev_events

let count kindp t = List.length (List.filter (fun e -> kindp e.ev_kind) t.rev_events)
let kills t = count (function Killed | Killed_at _ -> true | _ -> false) t
let stalls t = count (function Stalled _ -> true | _ -> false) t
let spurious_fired t = count (function Spurious_abort -> true | _ -> false) t

let trace t = String.concat ";" (List.map (Format.asprintf "%a" pp_event) (events t))
