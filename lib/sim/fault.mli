(** Deterministic fault injection plans.

    A {!spec} describes the environmental adversity a simulated run should
    face — Rock-style spurious transaction aborts (interrupts, TLB misses,
    register-window save/restore), thread preemption (stalls), and thread
    crashes — and {!make} instantiates it into a plan whose decisions are
    derived purely from the plan seed via per-thread SplitMix streams.
    The scheduler ({!Sim.run}'s [faults] argument) consults the plan at
    every {!Sim.tick} scheduling point; the HTM layer consults the
    per-thread spurious stream once per transaction attempt.

    Determinism: a fixed spec produces a bit-identical fault trace
    ({!events}) for the same program, independent of wall-clock anything.
    Faults never fire inside {!Sim.shield}ed sections (crash-cleanup
    paths) nor on a thread already killed. *)

type spec = {
  fault_seed : int;  (** seed of all fault streams (independent of the scheduler seed) *)
  stall_rate : float;  (** per-scheduling-point probability of a preemption stall *)
  stall_cycles : int;
      (** stall duration bound: actual stalls are uniform in
          [\[stall_cycles/2, stall_cycles)] virtual cycles *)
  kill_rate : float;  (** per-scheduling-point probability of a random thread crash *)
  max_random_kills : int;  (** budget for rate-driven kills (scheduled kills always fire) *)
  kills_at : (int * int) list;
      (** [(tid, t)]: crash thread [tid] at its first scheduling point with
          clock >= [t] — the deterministic way to kill mid-operation *)
  kills_at_point : (int * string * int) list;
      (** [(tid, point, t)]: crash thread [tid] at its first arrival at the
          named {!Sim.fault_point} once its clock is >= [t]. Layers register
          their semantically dangerous windows as named points — e.g.
          ["stm.commit"], the STM slow path between lock acquisition and
          write-back — so a plan can aim a crash at a code location rather
          than a raw virtual time. *)
  spurious_abort_rate : float;
      (** probability that a hardware transaction attempt is aborted for an
          environmental (non-data) reason, as on Rock *)
}

val none : spec
(** No faults at all; the identity plan. *)

type event_kind = Obs.Event.fault =
  | Stalled of int
  | Killed
  | Killed_at of string
  | Spurious_abort

type event = { ev_tid : int; ev_clock : int; ev_kind : event_kind }

val pp_event : Format.formatter -> event -> unit

type t
(** An instantiated plan: per-thread streams plus the injection log. *)

val make : spec -> t

val spec : t -> spec

type decision = Nothing | Stall of int | Kill

val decide : t -> tid:int -> clock:int -> decision
(** Called by the scheduler at each scheduling point; logs and returns the
    injection for this point. A thread that was killed never receives
    further faults. *)

val at_point : t -> tid:int -> clock:int -> point:string -> bool
(** Called by {!Sim.fault_point} when a thread passes a named code point:
    whether a pending [kills_at_point] entry for this thread and point has
    triggered (its clock condition met). Consumes the entry, marks the
    thread dead and logs a {!Killed_at} event when it fires. *)

val spurious : t -> tid:int -> clock:int -> bool
(** Called by {!Htm} once per hardware transaction attempt: whether this
    attempt suffers a spurious (environmental) abort. Draws from a stream
    separate from {!decide}'s so scheduling-point counts do not perturb
    the abort pattern. *)

val events : t -> event list
(** Everything injected so far, in injection order. *)

val kills : t -> int

val stalls : t -> int

val spurious_fired : t -> int

val trace : t -> string
(** The event log as one string — convenient for determinism assertions
    (same spec and program ⇒ equal traces). *)
