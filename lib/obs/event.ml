(** The one observation stream.

    Every fact the simulator can report — a scheduler slice, an injected
    fault, a memory access, a coherence transfer, a region label, a
    conflict witness, a transaction's commit, abort or escalation — is
    one constructor of {!t}, delivered to the acting context's {!sink}
    together with its thread id and virtual clock. The simulator emits
    each fact once, behind one test of the acting context, and knows
    nothing of its consumers: the Chrome-trace renderer
    ({!Tracer.observe}), the heap observer ({!Forensics.observe}) and
    the schedule explorer's line trace are subscribers, and {!tee}
    feeds several from one context.

    Events carry facts, not renderings: two subscribers that show one
    fact differently each keep their own rendering.

    Observation is free in virtual time: emitting charges no cycles,
    draws no simulator RNG and never changes a schedule. *)

(** Which execution path a transaction event happened on. *)
type path = Hw | Stm | Tle

let path_label = function Hw -> "hw" | Stm -> "stm" | Tle -> "tle"

(** Why a transaction attempt aborted. The software path reports its
    locked-stripe aborts as [Lock_held]. *)
type abort_reason =
  | Conflict  (** read-set validation failed *)
  | Overflow  (** store-buffer capacity exceeded *)
  | Illegal  (** sandboxed access to freed/unmapped memory *)
  | Explicit  (** the block aborted itself *)
  | Lock_held  (** a TLE lock holder (or a live STM lock owner) was observed *)
  | Spurious  (** environmental abort injected by the fault plan *)

let reason_label = function
  | Conflict -> "conflict"
  | Overflow -> "overflow"
  | Illegal -> "illegal"
  | Explicit -> "explicit"
  | Lock_held -> "lock-held"
  | Spurious -> "spurious"

(** An injected fault. *)
type fault =
  | Stalled of int  (** preempted for this many cycles *)
  | Killed  (** crashed at a scheduling point *)
  | Killed_at of string  (** crashed at the named fault point *)
  | Spurious_abort  (** the next hardware attempt is doomed *)

(** A completed memory access, stamped after it completes: the clock
    includes its cost and values are the post-access state. The
    transactional plane's reads and committed stores are included. *)
type access =
  | Read of { addr : int; value : int }
  | Write of { addr : int; value : int }
  | Cas of { addr : int; expected : int; desired : int; success : bool }
  | Fetch_add of { addr : int; delta : int; old : int }
  | Malloc of { base : int; words : int }
  | Free of { base : int; words : int }

(** Who doomed a transaction (or a CAS): the victim, the aggressor whose
    committed store invalidated it, the address they collided on and the
    access kinds. *)
type witness = {
  w_victim : int;  (** aborting thread *)
  w_aggressor : int;  (** thread whose write invalidated it; -1 unknown *)
  w_addr : int;  (** conflicting word address *)
  w_line : int;  (** its 8-word cache line *)
  w_victim_wrote : bool;  (** true: W/W conflict; false: R/W *)
  w_read_set : bool;  (** address was in the victim's read-set *)
  w_write_set : bool;  (** address was in the victim's write-set *)
  w_op : string;  (** aggressor op: store/atomic/commit/malloc/free/lock/? *)
  w_aggressor_clock : int;  (** aggressor's clock at its write; -1 unknown *)
  w_clock : int;  (** victim's virtual clock at capture *)
  w_site : string;  (** capture site, e.g. "htm.read", "stm.commit" *)
}

type t =
  | Run of { start : int }  (** a scheduler slice that ran from [start] to now *)
  | Fault of fault
  | Access of access
  | Miss of { write : bool; addr : int; line : int; cost : int; wait : int; sharers : int }
      (** a coherence transfer, stamped before its cost is charged:
          [cost] cycles in total, of which [wait] queued behind earlier
          transfers of the line; [sharers] caches held it at request
          time *)
  | Label of { name : string; base : int; words : int }
      (** the allocation at [\[base, base+words)] belongs to region [name] *)
  | Witness of witness  (** a conflict lost outside any transaction (a failed CAS) *)
  | Commit of { path : path; attempt : int; start : int; reads : int; writes : int }
      (** the attempt that began at [start] committed *)
  | Abort of {
      path : path;
      attempt : int;
      start : int;
      reason : abort_reason;
      witness : witness option;
    }
  | Fallback of { attempt : int }  (** the TLE lock was acquired *)
  | Release of { attempt : int; start : int }
      (** the TLE lock acquired at [start] was released (on every exit
          path, a crash included) *)
  | Escalate of {
      from_path : path;
      to_path : path;
      attempt : int;
      reason : abort_reason;  (** the abort that drove the hop *)
      witness : witness option;
    }
  | Steal of { victim : int; locks : int }
      (** [locks] STM stripe locks were recovered from thread [victim] *)

type sink = tid:int -> clock:int -> t -> unit
(** A subscriber. It must not touch the simulated machine. *)

(** [tee a b] delivers every event to [a], then to [b]. *)
let tee (a : sink) (b : sink) : sink =
 fun ~tid ~clock ev ->
  a ~tid ~clock ev;
  b ~tid ~clock ev
