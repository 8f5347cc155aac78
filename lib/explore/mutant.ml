(* Deliberately broken Michael-Scott + ROP queues: identical to
   [Hqueue.Ms_rop_queue] except for one seeded defect each. Two mutants
   share this core, selected by flags:

   - BrokenROP ([eager_free]): a dequeued node is freed immediately
     instead of being retired until no announcement covers it — the
     "wait" of announcement-based reclamation removed. A real
     use-after-free/ABA bug under any memory model, reachable only when a
     reader holding the old head is preempted across the dequeuer's free.

   - NoFenceROP (not [fenced]): the membar #StoreLoad after each
     announcement is dropped. Retirement and scanning stay intact, so the
     queue is correct under [sc] — but under a buffered model the
     announcement can sit invisible in the issuing thread's store buffer
     while a reclaimer scans, misses it, and frees the node the reader is
     about to dereference. The scan threshold is 1 (scan on every retire)
     so the bug is reachable inside small explorer scenarios; the correct
     queue's amortized threshold exceeds their total operation count.

   Test-only: neither is registered in [Hqueue]. *)

let off_val = 0
let off_next = 1
let node_words = 2
let hdr_head = 0
let hdr_tail = 8
let hdr_words = 16
let hazards_per_thread = 2

type t = {
  htm : Htm.t;
  hdr : int;
  hz : int;
  num_threads : int;
  fenced : bool; (* announcement followed by a real fence *)
  eager_free : bool; (* free on dequeue, no retirement (BrokenROP) *)
  retired : int list array;
  retired_count : int array;
  scan_threshold : int;
}

let slot_index t ctx =
  let tid = Sim.tid ctx in
  if tid = Sim.boot_tid then t.num_threads
  else if tid < t.num_threads then tid
  else invalid_arg "Mutant: thread id outside the declared range"

(* The acting thread's slot in the per-thread host tables. *)
let tslot t ctx = Simmem.thread_slot (Htm.mem t.htm) (Sim.tid ctx)

let hazard_addr t ctx i = t.hz + (hazards_per_thread * slot_index t ctx) + i

let fence_cost = 60

let announce t ctx i node =
  Simmem.write (Htm.mem t.htm) ctx (hazard_addr t ctx i) node;
  (* NoFenceROP's defect: the store is issued but nothing forces it out of
     the store buffer before the validating re-read. *)
  if t.fenced then Sim.fence ~cost:fence_cost ctx

let clear_announcements t ctx =
  announce t ctx 0 0;
  announce t ctx 1 0

let create htm ctx ~num_threads ~fenced ~eager_free ~scan_threshold =
  let mem = Htm.mem htm in
  let hdr = Simmem.malloc mem ctx hdr_words in
  let hz = Simmem.malloc mem ctx (hazards_per_thread * (num_threads + 1)) in
  let sentinel = Simmem.malloc mem ctx node_words in
  Simmem.write mem ctx (hdr + hdr_head) sentinel;
  Simmem.write mem ctx (hdr + hdr_tail) sentinel;
  {
    htm;
    hdr;
    hz;
    num_threads;
    fenced;
    eager_free;
    retired = Array.make (Simmem.thread_slots mem) [];
    retired_count = Array.make (Simmem.thread_slots mem) 0;
    scan_threshold;
  }

(* Free every retired node not currently announced by anyone (same scan as
   [Hqueue.Ms_rop_queue]). NoFenceROP's scan is itself correct — the bug
   is that a buffered announcement is not yet visible to it. *)
let scan t ctx =
  let mem = Htm.mem t.htm in
  let nslots = hazards_per_thread * (t.num_threads + 1) in
  let announced = Array.init nslots (fun i -> Simmem.read mem ctx (t.hz + i)) in
  let tid = tslot t ctx in
  let keep, free_list =
    List.partition (fun node -> Array.exists (Int.equal node) announced) t.retired.(tid)
  in
  List.iter (fun node -> Simmem.free mem ctx node) free_list;
  t.retired.(tid) <- keep;
  t.retired_count.(tid) <- List.length keep

let retire t ctx node =
  let tid = tslot t ctx in
  t.retired.(tid) <- node :: t.retired.(tid);
  t.retired_count.(tid) <- t.retired_count.(tid) + 1;
  if t.retired_count.(tid) >= t.scan_threshold then scan t ctx

let enqueue t ctx v =
  let mem = Htm.mem t.htm in
  let node = Simmem.malloc mem ctx node_words in
  Simmem.write mem ctx (node + off_val) v;
  let b = Sim.Backoff.create ctx in
  let retry loop =
    Sim.Backoff.once b;
    loop ()
  in
  let rec loop () =
    let tail = Simmem.read mem ctx (t.hdr + hdr_tail) in
    announce t ctx 0 tail;
    if Simmem.read mem ctx (t.hdr + hdr_tail) <> tail then retry loop
    else begin
      let next = Simmem.read mem ctx (tail + off_next) in
      if Simmem.read mem ctx (t.hdr + hdr_tail) <> tail then retry loop
      else if next <> 0 then begin
        let (_ : bool) =
          Simmem.cas mem ctx (t.hdr + hdr_tail) ~expected:tail ~desired:next
        in
        retry loop
      end
      else if Simmem.cas mem ctx (tail + off_next) ~expected:0 ~desired:node then begin
        let (_ : bool) =
          Simmem.cas mem ctx (t.hdr + hdr_tail) ~expected:tail ~desired:node
        in
        ()
      end
      else retry loop
    end
  in
  loop ();
  announce t ctx 0 0

let dequeue t ctx =
  let mem = Htm.mem t.htm in
  let b = Sim.Backoff.create ctx in
  let retry loop =
    Sim.Backoff.once b;
    loop ()
  in
  let rec loop () =
    let head = Simmem.read mem ctx (t.hdr + hdr_head) in
    announce t ctx 0 head;
    if Simmem.read mem ctx (t.hdr + hdr_head) <> head then retry loop
    else begin
      let tail = Simmem.read mem ctx (t.hdr + hdr_tail) in
      let next = Simmem.read mem ctx (head + off_next) in
      announce t ctx 1 next;
      if Simmem.read mem ctx (t.hdr + hdr_head) <> head then retry loop
      else if head = tail then begin
        if next = 0 then None
        else begin
          let (_ : bool) =
            Simmem.cas mem ctx (t.hdr + hdr_tail) ~expected:tail ~desired:next
          in
          retry loop
        end
      end
      else begin
        let v = Simmem.read mem ctx (next + off_val) in
        if Simmem.cas mem ctx (t.hdr + hdr_head) ~expected:head ~desired:next then begin
          (* BrokenROP's defect: no retirement, no scan of announcements *)
          if t.eager_free then Simmem.free mem ctx head else retire t ctx head;
          Some v
        end
        else retry loop
      end
    end
  in
  let r = loop () in
  clear_announcements t ctx;
  r

let destroy t ctx =
  let mem = Htm.mem t.htm in
  Array.iteri
    (fun tid nodes ->
      List.iter (fun node -> Simmem.free mem ctx node) nodes;
      t.retired.(tid) <- [];
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

let mk_maker name ~fenced ~eager_free ~scan_threshold : Hqueue.Intf.maker =
  {
    queue_name = name;
    reclaims = true;
    make =
      (fun htm ctx ~num_threads ->
        let t = create htm ctx ~num_threads ~fenced ~eager_free ~scan_threshold in
        {
          Hqueue.Intf.name = name;
          enqueue = enqueue t;
          dequeue = dequeue t;
          dequeue_drop = (fun ctx -> Option.is_some (dequeue t ctx));
          destroy = destroy t;
        });
  }

let maker = mk_maker "BrokenROP" ~fenced:true ~eager_free:true ~scan_threshold:max_int
let nofence_maker = mk_maker "NoFenceROP" ~fenced:false ~eager_free:false ~scan_threshold:1
