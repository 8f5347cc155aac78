(** The Michael-Scott lock-free queue (PODC '96), with counted pointers and
    per-thread node pools — the state of the art the paper compares
    against.

    Because a dequeued node may still be examined by concurrent operations,
    it can never be handed back to the allocator: it parks in the dequeuing
    thread's private pool and is recycled by that thread's later enqueues.
    Recycling makes the ABA problem real, hence the tag counters packed
    into every pointer word. The cost the paper emphasises: even at
    quiescence the memory footprint is proportional to the {e historical
    maximum} queue length (measured by the [space] benchmark).

    Pointer packing: address in bits 0–31, tag in bits 32–60. *)

let off_val = 0
let off_next = 1
let node_words = 2

(* head and tail words are padded to separate cache lines, as any
   practical implementation does *)
let hdr_head = 0
let hdr_tail = 8
let hdr_words = 16

let ptr_of w = w land 0xFFFFFFFF
let tag_of w = w lsr 32
let pack ~tag ~ptr = ((tag land 0x0FFFFFFF) lsl 32) lor ptr

type t = {
  htm : Htm.t;
  hdr : int;
  (* per-thread free node pools, as LIFO stacks in flat int arrays *)
  pools : int array array;
  pool_n : int array;
  deq_val : int array; (* per-thread value of the last successful dequeue *)
}

(* The acting thread's slot in the per-thread host tables. *)
let tslot t ctx = Simmem.thread_slot (Htm.mem t.htm) (Sim.tid ctx)

let alloc_node t ctx =
  let tid = tslot t ctx in
  let n = t.pool_n.(tid) in
  if n > 0 then begin
    t.pool_n.(tid) <- n - 1;
    t.pools.(tid).(n - 1)
  end
  else begin
    let mem = Htm.mem t.htm in
    let node = Simmem.malloc mem ctx node_words in
    Simmem.label mem ctx ~name:"MSQueue.node" ~base:node ~words:node_words;
    node
  end

let retire_node t ctx node =
  let tid = tslot t ctx in
  let n = t.pool_n.(tid) in
  let pool = t.pools.(tid) in
  if n = Array.length pool then begin
    let bigger = Array.make (max 8 (2 * n)) 0 in
    Array.blit pool 0 bigger 0 n;
    t.pools.(tid) <- bigger
  end;
  t.pools.(tid).(n) <- node;
  t.pool_n.(tid) <- n + 1

let create htm ctx =
  let mem = Htm.mem htm in
  let hdr = Simmem.malloc mem ctx hdr_words in
  let sentinel = Simmem.malloc mem ctx node_words in
  Simmem.label mem ctx ~name:"MSQueue.header" ~base:hdr ~words:hdr_words;
  Simmem.label mem ctx ~name:"MSQueue.node" ~base:sentinel ~words:node_words;
  Simmem.write mem ctx (hdr + hdr_head) (pack ~tag:0 ~ptr:sentinel);
  Simmem.write mem ctx (hdr + hdr_tail) (pack ~tag:0 ~ptr:sentinel);
  {
    htm;
    hdr;
    pools = Array.make (Simmem.thread_slots mem) [||];
    pool_n = Array.make (Simmem.thread_slots mem) 0;
    deq_val = Array.make (Simmem.thread_slots mem) 0;
  }

(* One randomized backoff delay, inlined from [Sim.Backoff.once] (same
   draw, same tick) so the retry loops below carry the bound as a plain
   argument instead of allocating a [Backoff.t] per operation. *)
let backoff_base = 50
let backoff_cap = 4096

let backoff_once ctx bound =
  Sim.tick ctx ((bound / 2) + Sim.Rng.int (Sim.rng ctx) (max 1 (bound / 2)));
  min backoff_cap (bound * 2)

let rec enq_loop t mem ctx node bound =
  let tail = Simmem.read mem ctx (t.hdr + hdr_tail) in
  let tptr = ptr_of tail in
  let next = Simmem.read mem ctx (tptr + off_next) in
  if Simmem.read mem ctx (t.hdr + hdr_tail) = tail then begin
    if ptr_of next = 0 then begin
      if
        Simmem.cas mem ctx (tptr + off_next) ~expected:next
          ~desired:(pack ~tag:(tag_of next + 1) ~ptr:node)
      then begin
        let (_ : bool) =
          Simmem.cas mem ctx (t.hdr + hdr_tail) ~expected:tail
            ~desired:(pack ~tag:(tag_of tail + 1) ~ptr:node)
        in
        ()
      end
      else enq_loop t mem ctx node (backoff_once ctx bound)
    end
    else begin
      (* Help swing the lagging tail forward. *)
      let (_ : bool) =
        Simmem.cas mem ctx (t.hdr + hdr_tail) ~expected:tail
          ~desired:(pack ~tag:(tag_of tail + 1) ~ptr:(ptr_of next))
      in
      enq_loop t mem ctx node (backoff_once ctx bound)
    end
  end
  else enq_loop t mem ctx node (backoff_once ctx bound)

let enqueue t ctx v =
  let mem = Htm.mem t.htm in
  let node = alloc_node t ctx in
  Simmem.write mem ctx (node + off_val) v;
  (* Recycled nodes keep their next-word tag monotonic across reuses. *)
  let old_next = Simmem.read mem ctx (node + off_next) in
  Simmem.write mem ctx (node + off_next) (pack ~tag:(tag_of old_next + 1) ~ptr:0);
  enq_loop t mem ctx node backoff_base

(* Returns whether an element was removed; the value parks in the caller's
   [deq_val] slot (read before the CAS — afterwards the node may already
   be recycled by another thread). *)
let rec deq_loop t mem ctx bound =
  let head = Simmem.read mem ctx (t.hdr + hdr_head) in
  let tail = Simmem.read mem ctx (t.hdr + hdr_tail) in
  let next = Simmem.read mem ctx (ptr_of head + off_next) in
  if Simmem.read mem ctx (t.hdr + hdr_head) = head then begin
    if ptr_of head = ptr_of tail then begin
      if ptr_of next = 0 then false
      else begin
        let (_ : bool) =
          Simmem.cas mem ctx (t.hdr + hdr_tail) ~expected:tail
            ~desired:(pack ~tag:(tag_of tail + 1) ~ptr:(ptr_of next))
        in
        deq_loop t mem ctx (backoff_once ctx bound)
      end
    end
    else begin
      let v = Simmem.read mem ctx (ptr_of next + off_val) in
      if
        Simmem.cas mem ctx (t.hdr + hdr_head) ~expected:head
          ~desired:(pack ~tag:(tag_of head + 1) ~ptr:(ptr_of next))
      then begin
        t.deq_val.(tslot t ctx) <- v;
        retire_node t ctx (ptr_of head);
        true
      end
      else deq_loop t mem ctx (backoff_once ctx bound)
    end
  end
  else deq_loop t mem ctx (backoff_once ctx bound)

let dequeue_drop t ctx = deq_loop t (Htm.mem t.htm) ctx backoff_base

let dequeue t ctx =
  if dequeue_drop t ctx then Some t.deq_val.(tslot t ctx) else None

let destroy t ctx =
  let mem = Htm.mem t.htm in
  Array.iteri
    (fun tid pool ->
      (* newest first: the order the former free-list representation used *)
      for i = t.pool_n.(tid) - 1 downto 0 do
        Simmem.free mem ctx pool.(i)
      done;
      t.pool_n.(tid) <- 0)
    t.pools;
  let rec free_from node =
    if node <> 0 then begin
      let next = ptr_of (Simmem.read mem ctx (node + off_next)) in
      Simmem.free mem ctx node;
      free_from next
    end
  in
  free_from (ptr_of (Simmem.read mem ctx (t.hdr + hdr_head)));
  Simmem.free mem ctx t.hdr

let maker : Queue_intf.maker =
  {
    queue_name = "MichaelScott";
    reclaims = false;
    make =
      (fun htm ctx ~num_threads:_ ->
        let t = create htm ctx in
        {
          Queue_intf.name = "MichaelScott";
          enqueue = enqueue t;
          dequeue = dequeue t;
          dequeue_drop = dequeue_drop t;
          destroy = destroy t;
        });
  }
