(** Runtime checker for the Dynamic Collect specification (paper §2.3).

    Wrap every operation on a collect instance through this module; each
    bound value is generated here and globally unique, and every
    operation's interval is logged in {e logical time} — a counter bumped
    at each wrapper entry and exit, recording execution order. In the
    cooperative simulator execution order {e is} the specification's
    real-time order, whatever scheduling strategy drives the run; virtual
    clocks, by contrast, stop reflecting execution order under the
    exploration strategies ([Sim.Random_walk], [Sim.Pct]), which is why
    they are not used here. After the run, {!check} verifies every logged
    collect against both conditions of the specification:

    - {e validity}: each returned value's bind either is the handle's last
      bind not superseded or deregistered before the collect began, or
      overlaps the collect;
    - {e completeness}: every handle whose registration completed before
      the collect began, and whose deregistration (if any) began after it
      ended, contributes at least one value.

    Duplicates are allowed, as the specification permits. The checker is
    single-process (the simulator is cooperative), so no synchronisation
    is needed around the log.

    {b Crash-awareness}: if an operation raises (e.g. an injected
    [Sim.Stop_thread] kill), the wrapper logs it as never-completed — the
    interval is extended to [max_int], so any bind the crashed thread may
    or may not have installed is {e allowed} by every later collect but
    {e required} by none, and a crashed deregistration permanently excuses
    the handle from completeness. A crashed collect's partial result set is
    discarded. The exception is re-raised, so the thread still dies; the
    surviving threads' operations are checked at full strength.

    This is the oracle behind the test suite's chaos tests; it is exported
    as a library so downstream users can validate their own usage or new
    algorithm implementations. *)

type t

val create : unit -> t

val register : t -> Collect.Intf.instance -> Sim.tctx -> Collect.Intf.handle
(** Register with a fresh unique value; logs the interval. *)

val update : t -> Collect.Intf.instance -> Sim.tctx -> Collect.Intf.handle -> unit
(** Update with a fresh unique value; logs the interval. *)

val deregister : t -> Collect.Intf.instance -> Sim.tctx -> Collect.Intf.handle -> unit

val collect : t -> Collect.Intf.instance -> Sim.tctx -> unit
(** Perform and log a collect (with its returned values). *)

type verdict = { checked_collects : int; checked_values : int }

exception Violation of string
(** Raised by {!check} with a human-readable description of the first
    specification violation found. *)

val check : t -> verdict
(** Verify every logged collect, in O(values returned + collects ×
    registrations): the log indexes each value's bind as it is written.
    @raise Violation on the first failure. *)
