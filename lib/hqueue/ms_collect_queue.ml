(** Michael-Scott queue reclaimed through a {e Dynamic Collect} object —
    the connection the paper's §1.2 draws: announcement-based reclamation
    schemes (hazard pointers, ROP) {e are} Dynamic Collect clients, and a
    dynamic collect object lifts their one-slot-per-possible-thread
    limitation.

    Where {!Ms_rop_queue} announces into a fixed array sized for a known
    maximum thread count, this queue announces through handles of an
    {!Collect.Array_dyn_append_dereg} object, registered lazily on a
    thread's first operation. The announcement space therefore tracks the
    number of threads that actually use the queue — the space adaptivity
    §1.2 asks for — and the reclaimer's scan is a [collect].

    Announcement stores go through the collect object's [update] (a
    transaction), which also provides the store-load ordering a hazard
    write needs. The no-announcement marker is the value 1 (never a block
    address). *)

let off_val = 0
let off_next = 1
let node_words = 2

(* head and tail words are padded to separate cache lines *)
let hdr_head = 0
let hdr_tail = 8
let hdr_words = 16

let no_announcement = 1

type t = {
  htm : Htm.t;
  hdr : int;
  announcements : Collect.Intf.instance;
  handles : (int * int) option array; (* per-thread announcement handles *)
  retired : int list array;
  retired_count : int array;
  scan_threshold : int;
}

(* The acting thread's slot in the per-thread host tables. *)
let tslot t ctx = Simmem.thread_slot (Htm.mem t.htm) (Sim.tid ctx)

let create htm ctx ~num_threads =
  let mem = Htm.mem htm in
  let hdr = Simmem.malloc mem ctx hdr_words in
  let sentinel = Simmem.malloc mem ctx node_words in
  Simmem.label mem ctx ~name:"MSQueue+Collect.header" ~base:hdr ~words:hdr_words;
  Simmem.label mem ctx ~name:"MSQueue+Collect.node" ~base:sentinel ~words:node_words;
  Simmem.write mem ctx (hdr + hdr_head) sentinel;
  Simmem.write mem ctx (hdr + hdr_tail) sentinel;
  let announcements =
    Collect.Array_dyn_append_dereg.maker.make htm ctx
      { Collect.Intf.max_slots = 2 * (num_threads + 1); num_threads;
        step = Collect.Intf.Fixed 8; min_size = 4 }
  in
  {
    htm;
    hdr;
    announcements;
    handles = Array.make (Simmem.thread_slots mem) None;
    retired = Array.make (Simmem.thread_slots mem) [];
    retired_count = Array.make (Simmem.thread_slots mem) 0;
    scan_threshold = (4 * num_threads) + 4;
  }

(* Lazy per-thread registration: the first operation by a thread claims
   its two announcement handles; the object grows with actual users. *)
let my_handles t ctx =
  let tid = tslot t ctx in
  match t.handles.(tid) with
  | Some hs -> hs
  | None ->
    let h0 = t.announcements.register ctx no_announcement in
    let h1 = t.announcements.register ctx no_announcement in
    t.handles.(tid) <- Some (h0, h1);
    (h0, h1)

let announce t ctx i node =
  let h0, h1 = my_handles t ctx in
  t.announcements.update ctx (if i = 0 then h0 else h1) node

let clear_announcements t ctx =
  announce t ctx 0 no_announcement;
  announce t ctx 1 no_announcement

(* Free every retired node not currently announced by anyone: the scan is
   a Dynamic Collect. *)
let scan t ctx =
  let mem = Htm.mem t.htm in
  let buf = Sim.Ibuf.create () in
  t.announcements.collect ctx buf;
  let tid = tslot t ctx in
  let announced node = Sim.Ibuf.fold (fun acc v -> acc || v = node) false buf in
  let keep, free_list = List.partition announced t.retired.(tid) in
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
  Simmem.label mem ctx ~name:"MSQueue+Collect.node" ~base:node ~words:node_words;
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
        let (_ : bool) = Simmem.cas mem ctx (t.hdr + hdr_tail) ~expected:tail ~desired:next in
        retry loop
      end
      else if Simmem.cas mem ctx (tail + off_next) ~expected:0 ~desired:node then begin
        let (_ : bool) = Simmem.cas mem ctx (t.hdr + hdr_tail) ~expected:tail ~desired:node in
        ()
      end
      else retry loop
    end
  in
  loop ();
  announce t ctx 0 no_announcement

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
      if next <> 0 then announce t ctx 1 next;
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
          retire t ctx head;
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
  Array.iteri
    (fun tid -> function
      | None -> ()
      | Some (h0, h1) ->
        t.announcements.deregister ctx h0;
        t.announcements.deregister ctx h1;
        t.handles.(tid) <- None)
    t.handles;
  t.announcements.destroy ctx;
  let rec free_from node =
    if node <> 0 then begin
      let next = Simmem.read mem ctx (node + off_next) in
      Simmem.free mem ctx node;
      free_from next
    end
  in
  free_from (Simmem.read mem ctx (t.hdr + hdr_head));
  Simmem.free mem ctx t.hdr

let maker : Queue_intf.maker =
  {
    queue_name = "MichaelScott+Collect";
    reclaims = true;
    make =
      (fun htm ctx ~num_threads ->
        let t = create htm ctx ~num_threads in
        {
          Queue_intf.name = "MichaelScott+Collect";
          enqueue = enqueue t;
          dequeue = dequeue t;
          dequeue_drop = (fun ctx -> Option.is_some (dequeue t ctx));
          destroy = destroy t;
        });
  }
