(** Pretty-printed interleaving capture.

    A trace is a bounded line buffer subscribed to the observation
    stream ({!Obs.Event}): one line per completed memory access,
    transaction event or injected fault, prefixed with the issuing
    thread and its virtual clock. Observe the run that replays a
    shrunken failure with {!observe} and the resulting lines are the
    per-thread timeline that goes into the artifact file. *)

type t

val create : ?limit:int -> unit -> t
(** Line buffer capped at [limit] (default 4000); further events are
    counted, not stored. *)

val observe : t -> Obs.Event.sink
(** This trace as a subscriber: pass it as [Sim.run]'s [?observe] (and
    to {!Sim.set_observer} for a boot context that acts on the machine
    afterwards) so accesses, transactions and the faults that perturb
    them land in one stream. *)

val lines : t -> string list
(** Captured lines in event order, with a final summary line when events
    were dropped. *)
