(** Michael-Scott with announcement-based reclamation (the paper's
    "Michael-Scott ROP"): hazard-pointer announce/validate/scan, real
    reclamation at the cost of a fence per traversal step.

    Instantiate through {!Queue_intf.maker}[.make]. *)

val maker : Queue_intf.maker
(** The correct configuration, registered as ["MichaelScott+ROP"]. *)

val mk_maker :
  ?fenced:bool -> ?eager_free:bool -> ?scan_threshold:int -> string -> Queue_intf.maker
(** Test/explorer constructor with the queue's mutation points, each off
    by default. Neither mutant is in the [Hqueue] registry.
    - [~eager_free:true] removes the reclamation {e wait}: a dequeued node
      is freed at once instead of retired until no announcement covers
      it. A preempted reader then hits a freed node ([Simmem.Fault]) or
      an ABA through eager block reuse (a non-linearizable history),
      under every memory model. The explorer's ["broken-rop"] scenario.
    - [~fenced:false] drops the membar #StoreLoad after each
      announcement. Correct under [sc]; under a buffered model ([sb]) a
      reclaimer's scan can miss an announcement still in the announcing
      thread's store buffer and free the node it covers. The explorer's
      ["ms-nofence"] scenario, with [~scan_threshold:1].
    - [scan_threshold] is the number of retired nodes that triggers a
      scan (default amortized over the thread count; [1] scans on every
      retire, so reclamation is reachable in a handful of operations). *)
