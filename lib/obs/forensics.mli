(** The per-machine heap observer: coherence traffic, conflict
    witnesses and abort attribution over one per-cache-line table.

    A subscriber of the observation stream ({!observe}): it aggregates
    every coherence transfer (a read or write miss that pulled the line
    from another core, plus the cycles the requester spent queued behind
    earlier transfers of the same line), every allocation and region
    label, every {e witness} — the moment a coherence invalidation (or
    version-check failure) dooms a transaction or a CAS: who was the
    victim, which thread's committed write was the aggressor, which
    address and line they collided on, and whether the victim had the
    line in its read- or write-set — and every escalation hop.
    Data-structure implementations label the address ranges they
    allocate ("ListHoHRC.header", "MSQueue+ROP.node", ...). Aggregating
    answers the questions raw abort counters cannot: {e which threads}
    fight, over {e which lines}, belonging to {e which} labelled region
    and produced by {e which} allocation — and which lines ping-pong.

    Lines are 8 words, the geometry of every simulated heap.

    Observation is pure OCaml-side bookkeeping: it charges zero virtual
    cycles, consumes no simulator RNG and never perturbs scheduling, so
    an instrumented run is cycle-for-cycle identical to a bare one.

    All accessors return canonically sorted data and {!to_json} is
    deterministic, so artifacts built from observers merged in a fixed
    (canonical) cell order are byte-identical regardless of host
    parallelism. *)

type witness = Event.witness

val access_label : witness -> string
(** ["W/W"] or ["R/W"]. *)

val pp_witness : Format.formatter -> witness -> unit
(** One-line rendering: [t3<-t1 W/W 0x128 (commit ws)]. *)

type hop = {
  hp_tid : int;
  hp_clock : int;
  hp_from : string;  (** path left: "hw" | "stm" *)
  hp_to : string;  (** path entered: "stm" | "tle" *)
  hp_reason : string;
  hp_witness : witness option;  (** the abort that drove the hop *)
}

type t

val create : ?max_hops:int -> unit -> t
(** [max_hops] bounds the stored escalation timeline (default 256) — the
    total is still counted past the bound. *)

val observe : t -> Event.sink
(** The observer's event handler. [Miss] events add a coherence
    transfer to their line; [Label] names the lines covering its range
    (labels accumulate per line and are deduplicated; a line used by
    several regions over its lifetime reports all their names, joined
    with [" + "] — a direct false-sharing indicator); [Malloc] accesses
    record allocation provenance (thread, clock, count) for the covered
    lines; every witness — of a [Witness] or an [Abort] — joins the
    conflict graph and the hot-line ranking; [Escalate] appends one hop
    to the escalation timeline. Other events are ignored. *)

(** {1 Aggregates}

    All lists are canonically sorted (counts descending, then key
    ascending — except {!edges} and {!victims}, which sort by id). *)

val count : t -> int
(** Witnesses recorded. *)

type edge_stat = {
  es_victim : int;
  es_aggressor : int;  (** -1 = unknown *)
  es_rw : int;
  es_ww : int;
}

val edges : t -> edge_stat list
(** The thread×thread conflict graph, sorted victim then aggressor. *)

type line_stat = {
  fl_line : int;
  fl_addr : int;  (** line base address *)
  fl_region : string;  (** label(s), " + "-joined; "?" if unlabelled *)
  fl_prov : (int * int * int) option;
      (** allocator provenance at last conflict: tid, clock, alloc count *)
  fl_conflicts : int;
  fl_rw : int;
  fl_ww : int;
  fl_transfers : int;  (** coherence transfers of this line *)
  fl_cycles : int;  (** total miss cycles charged on this line *)
  fl_wait : int;  (** of which: queueing behind other transfers *)
  fl_max_sharers : int;  (** peak sharer count seen at request time *)
}

val lines : ?top:int -> t -> line_stat list
(** Hot-line ranking of the conflicted lines: conflicts descending, line
    ascending. *)

val regions : t -> (string * int) list
(** Conflicts summed per region label, descending. *)

val transfer_lines : ?top:int -> t -> line_stat list
(** The lines with coherence transfers, by transfer count descending
    (ties by line ascending). *)

val transfer_regions : t -> (string * int * int) list
(** [(region, transfers, cycles)] summed over {!transfer_lines}, by
    transfers descending (ties by name). *)

val total_transfers : t -> int

val sites : t -> (string * int) list
(** Witnesses per capture site, descending. *)

val victims : t -> (int * int) list
(** Witnesses per victim thread, ascending tid. *)

val hops : t -> hop list
(** Stored escalation timeline, oldest first (at most [max_hops]). *)

val hop_count : t -> int
(** Total hops noted, including any past the storage bound. *)

(** {1 Merge and render} *)

val absorb : t -> t -> unit
(** [absorb dst src] folds [src]'s aggregates into [dst]: counts add
    (peak sharers take the maximum), labels union, provenance takes [src]'s when present, hop timelines
    concatenate under [dst]'s bound. Absorbing in canonical cell order
    makes the result independent of host scheduling. *)

val print : ?top:int -> Format.formatter -> t -> unit
(** Human-readable diagnosis: conflict graph, hot lines (with region and
    provenance), abort sites, escalation timeline — via {!Table}. *)

val print_transfers : ?top:int -> Format.formatter -> t -> unit
(** The contention table: line, region, transfers, cycles, wait, peak
    sharers of the top [top] (default 16) {!transfer_lines}; then the
    per-region rollup. *)

val to_json : ?top:int -> t -> Json.t
(** Deterministic [{schema: "forensics/1", ...}] object; [top] bounds
    the conflicted-line list (default 64). *)
