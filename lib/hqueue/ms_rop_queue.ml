(** Michael-Scott queue with announcement-based reclamation — the paper's
    "Michael-Scott ROP" configuration (§1.1, Figure 1).

    The Repeat Offender Problem mechanism and Michael's hazard pointers are
    the same announce-validate-scan discipline; we implement the
    hazard-pointer formulation (Michael, IEEE TPDS 2004): before
    dereferencing a node, a thread {e announces} it in a shared array and
    re-validates the source pointer; before freeing a node, the reclaimer
    {e scans} the announcements and defers any node still announced. This
    buys real reclamation (unlike the pooled Michael-Scott) at the price
    the paper measures: an announcement store plus a validation re-read on
    every traversal step, and periodic scans.

    Announced nodes cannot be recycled mid-operation, which also kills the
    ABA case, so pointers need no tags here. *)

let off_val = 0
let off_next = 1
let node_words = 2

(* head and tail words are padded to separate cache lines *)
let hdr_head = 0
let hdr_tail = 8
let hdr_words = 16

let hazards_per_thread = 2

type t = {
  htm : Htm.t;
  hdr : int;
  hz : int; (* announcement array: hazards_per_thread words per slot *)
  num_threads : int;
  fenced : bool; (* false: the announcement fence dropped (NoFenceROP) *)
  eager_free : bool; (* true: free on dequeue, no retirement (BrokenROP) *)
  (* per-thread retired-but-not-yet-free nodes, as stacks in flat arrays
     (index 0 oldest) *)
  retired : int array array;
  retired_count : int array;
  scan_threshold : int;
  (* per-thread scan scratch: snapshot of the hazard array. Must be
     per-thread: the snapshot reads yield, so two in-flight scans would
     clobber a shared buffer. *)
  announced : int array array;
  deq_val : int array; (* per-thread value of the last successful dequeue *)
}

(* The acting thread's slot in the per-thread host tables. *)
let tslot t ctx = Simmem.thread_slot (Htm.mem t.htm) (Sim.tid ctx)

let slot_index t ctx =
  let tid = Sim.tid ctx in
  if tid = Sim.boot_tid then t.num_threads
  else if tid < t.num_threads then tid
  else invalid_arg "Ms_rop_queue: thread id outside the declared range"

let hazard_addr t ctx i = t.hz + (hazards_per_thread * slot_index t ctx) + i

(* An announcement must be globally visible before the validating re-read,
   which requires a store-load fence (membar #StoreLoad on SPARC). This
   fence, paid on every traversal step, is the heart of the 35–75 %
   overhead the paper measures for ROP-style reclamation. [Sim.fence]
   drains the thread's store buffer under a weak memory model — without
   it, the announcement can sit invisible in the buffer while a reclaimer
   scans, misses it, and frees the node ([mk_maker ~fenced:false], the
   explorer's `ms-nofence` scenario, demonstrates exactly that). Under
   [sc] it is a pure [fence_cost] tick, as before. *)
let fence_cost = 60

let announce t ctx i node =
  Simmem.write (Htm.mem t.htm) ctx (hazard_addr t ctx i) node;
  if t.fenced then Sim.fence ~cost:fence_cost ctx

let clear_announcements t ctx =
  announce t ctx 0 0;
  announce t ctx 1 0

let create htm ctx ~num_threads ~fenced ~eager_free ~scan_threshold =
  let mem = Htm.mem htm in
  let hdr = Simmem.malloc mem ctx hdr_words in
  let hz = Simmem.malloc mem ctx (hazards_per_thread * (num_threads + 1)) in
  let sentinel = Simmem.malloc mem ctx node_words in
  Simmem.label mem ctx ~name:"MSQueue+ROP.header" ~base:hdr ~words:hdr_words;
  Simmem.label mem ctx ~name:"MSQueue+ROP.hazards" ~base:hz
    ~words:(hazards_per_thread * (num_threads + 1));
  Simmem.label mem ctx ~name:"MSQueue+ROP.node" ~base:sentinel ~words:node_words;
  Simmem.write mem ctx (hdr + hdr_head) sentinel;
  Simmem.write mem ctx (hdr + hdr_tail) sentinel;
  {
    htm;
    hdr;
    hz;
    num_threads;
    fenced;
    eager_free;
    retired = Array.make (Simmem.thread_slots mem) [||];
    retired_count = Array.make (Simmem.thread_slots mem) 0;
    scan_threshold =
      Option.value scan_threshold
        ~default:((2 * hazards_per_thread * (num_threads + 1)) + 2);
    announced = Array.make (Simmem.thread_slots mem) [||];
    deq_val = Array.make (Simmem.thread_slots mem) 0;
  }

let is_announced snap nslots node =
  let i = ref 0 in
  while !i < nslots && snap.(!i) <> node do incr i done;
  !i < nslots

(* Free every retired node not currently announced by anyone. One snapshot
   of the hazard array (each slot read once, paying its coherence cost),
   then pure membership scans: first free the doomed nodes newest-first,
   then compact the survivors in place. The snapshot lands in this
   thread's own scratch buffer (grown on first use): the snapshot reads
   and the frees both yield, so a concurrent scan by another thread must
   not share it. *)
let scan t ctx =
  let mem = Htm.mem t.htm in
  let nslots = hazards_per_thread * (t.num_threads + 1) in
  let tid = tslot t ctx in
  if Array.length t.announced.(tid) < nslots then
    t.announced.(tid) <- Array.make nslots 0;
  let snap = t.announced.(tid) in
  for i = 0 to nslots - 1 do
    snap.(i) <- Simmem.read mem ctx (t.hz + i)
  done;
  let r = t.retired.(tid) in
  let n = t.retired_count.(tid) in
  for i = n - 1 downto 0 do
    if not (is_announced snap nslots r.(i)) then Simmem.free mem ctx r.(i)
  done;
  let kept = ref 0 in
  for i = 0 to n - 1 do
    if is_announced snap nslots r.(i) then begin
      r.(!kept) <- r.(i);
      incr kept
    end
  done;
  t.retired_count.(tid) <- !kept

let retire t ctx node =
  let tid = tslot t ctx in
  let n = t.retired_count.(tid) in
  let r = t.retired.(tid) in
  if n = Array.length r then begin
    let bigger = Array.make (max 8 (2 * n)) 0 in
    Array.blit r 0 bigger 0 n;
    t.retired.(tid) <- bigger
  end;
  t.retired.(tid).(n) <- node;
  t.retired_count.(tid) <- n + 1;
  if t.retired_count.(tid) >= t.scan_threshold then scan t ctx

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
  announce t ctx 0 tail;
  if Simmem.read mem ctx (t.hdr + hdr_tail) <> tail then
    enq_loop t mem ctx node (backoff_once ctx bound)
  else begin
    let next = Simmem.read mem ctx (tail + off_next) in
    if Simmem.read mem ctx (t.hdr + hdr_tail) <> tail then
      enq_loop t mem ctx node (backoff_once ctx bound)
    else if next <> 0 then begin
      let (_ : bool) =
        Simmem.cas mem ctx (t.hdr + hdr_tail) ~expected:tail ~desired:next
      in
      enq_loop t mem ctx node (backoff_once ctx bound)
    end
    else if Simmem.cas mem ctx (tail + off_next) ~expected:0 ~desired:node then begin
      let (_ : bool) =
        Simmem.cas mem ctx (t.hdr + hdr_tail) ~expected:tail ~desired:node
      in
      ()
    end
    else enq_loop t mem ctx node (backoff_once ctx bound)
  end

let enqueue t ctx v =
  let mem = Htm.mem t.htm in
  let node = Simmem.malloc mem ctx node_words in
  Simmem.label mem ctx ~name:"MSQueue+ROP.node" ~base:node ~words:node_words;
  Simmem.write mem ctx (node + off_val) v;
  enq_loop t mem ctx node backoff_base;
  announce t ctx 0 0

(* Returns whether an element was removed; the value parks in the caller's
   [deq_val] slot. *)
let rec deq_loop t mem ctx bound =
  let head = Simmem.read mem ctx (t.hdr + hdr_head) in
  announce t ctx 0 head;
  if Simmem.read mem ctx (t.hdr + hdr_head) <> head then
    deq_loop t mem ctx (backoff_once ctx bound)
  else begin
    let tail = Simmem.read mem ctx (t.hdr + hdr_tail) in
    let next = Simmem.read mem ctx (head + off_next) in
    announce t ctx 1 next;
    if Simmem.read mem ctx (t.hdr + hdr_head) <> head then
      deq_loop t mem ctx (backoff_once ctx bound)
    else if head = tail then begin
      if next = 0 then false
      else begin
        let (_ : bool) =
          Simmem.cas mem ctx (t.hdr + hdr_tail) ~expected:tail ~desired:next
        in
        deq_loop t mem ctx (backoff_once ctx bound)
      end
    end
    else begin
      let v = Simmem.read mem ctx (next + off_val) in
      if Simmem.cas mem ctx (t.hdr + hdr_head) ~expected:head ~desired:next then begin
        t.deq_val.(tslot t ctx) <- v;
        if t.eager_free then Simmem.free mem ctx head else retire t ctx head;
        true
      end
      else deq_loop t mem ctx (backoff_once ctx bound)
    end
  end

let dequeue_drop t ctx =
  let r = deq_loop t (Htm.mem t.htm) ctx backoff_base in
  clear_announcements t ctx;
  r

let dequeue t ctx =
  if dequeue_drop t ctx then Some t.deq_val.(tslot t ctx) else None

let destroy t ctx =
  let mem = Htm.mem t.htm in
  Array.iteri
    (fun tid nodes ->
      (* newest first: the order the former list representation freed in *)
      for i = t.retired_count.(tid) - 1 downto 0 do
        Simmem.free mem ctx nodes.(i)
      done;
      t.retired_count.(tid) <- 0)
    t.retired;
  let rec free_from node =
    if node <> 0 then begin
      let next = Simmem.read mem ctx (node + off_next) in
      Simmem.free mem ctx node;
      free_from next
    end
  in
  free_from (Simmem.read mem ctx (t.hdr + hdr_head));
  Simmem.free mem ctx t.hz;
  Simmem.free mem ctx t.hdr

let mk_maker ?(fenced = true) ?(eager_free = false) ?scan_threshold name :
    Queue_intf.maker =
  {
    queue_name = name;
    reclaims = true;
    make =
      (fun htm ctx ~num_threads ->
        let t = create htm ctx ~num_threads ~fenced ~eager_free ~scan_threshold in
        {
          Queue_intf.name;
          enqueue = enqueue t;
          dequeue = dequeue t;
          dequeue_drop = dequeue_drop t;
          destroy = destroy t;
        });
  }

let maker = mk_maker "MichaelScott+ROP"
