(** Michael-Scott queue with epoch-based reclamation (EBR) — the modern
    quiescence-style competitor beside ROP/hazard pointers.

    Each operation {e enters} an epoch: it reads the global epoch counter
    and announces it in a per-thread slot (one store + one store-load
    fence per {e operation}, against ROP's fence per {e traversal step} —
    that amortization is EBR's selling point). Dequeued nodes are
    {e retired} into the owner's limbo bucket for the current epoch. The
    global epoch may advance only when every active thread has announced
    the current value, and a bucket is freed only once the global epoch
    is two ahead of it — two grace periods, so a reader that announced an
    epoch can never hold a pointer into anything freed while it is
    active.

    The price EBR pays, which the ROP scan never does: a single stalled
    (or killed) reader parks the epoch forever and limbo grows without
    bound — reclamation is only eventual. [mk_maker ~grace:1] builds the
    classic broken variant that frees after {e one} grace period; the
    schedule explorer's [broken-epoch] scenario catches its
    use-after-free. *)

let off_val = 0
let off_next = 1
let node_words = 2

(* head, tail and the global epoch each get their own cache line *)
let hdr_head = 0
let hdr_tail = 8
let hdr_epoch = 16
let hdr_words = 24

(* Limbo buckets per thread: with two grace periods, at most three epochs
   (current, current-1, current-2) can hold unreclaimed nodes at once. *)
let buckets = 3

type t = {
  htm : Htm.t;
  hdr : int;
  ann : int; (* announcement array: one word per slot, 0 = quiescent *)
  num_threads : int;
  grace : int; (* epochs a retired node must age; 2 = safe, 1 = the seeded bug *)
  advance_every : int; (* retires between epoch-advance attempts *)
  (* per-thread limbo: [buckets] stacks in flat arrays, tagged with the
     epoch their nodes were retired in (0 = empty/never used) *)
  limbo : int array array; (* [(slot * buckets) + b] -> node stack *)
  limbo_n : int array;
  limbo_epoch : int array;
  since_advance : int array; (* per-slot retires since the last attempt *)
  deq_val : int array; (* per-thread value of the last successful dequeue *)
}

let slot_index t ctx =
  let tid = Sim.tid ctx in
  if tid = Sim.boot_tid then t.num_threads
  else if tid < t.num_threads then tid
  else invalid_arg "Ms_epoch_queue: thread id outside the declared range"

let ann_addr t slot = t.ann + slot

(* The acting thread's slot in the per-thread host tables. *)
let tslot t ctx = Simmem.thread_slot (Htm.mem t.htm) (Sim.tid ctx)

(* The announcement must be globally visible before the thread starts
   traversing, or a reclaimer can scan past it and advance the epoch with
   this reader unaccounted — the same store-load fence ROP pays, but once
   per operation. *)
let fence_cost = 60

let create htm ctx ~num_threads ~grace ~advance_every =
  let mem = Htm.mem htm in
  let hdr = Simmem.malloc mem ctx hdr_words in
  let ann = Simmem.malloc mem ctx (num_threads + 1) in
  let sentinel = Simmem.malloc mem ctx node_words in
  Simmem.label mem ctx ~name:"MSQueue+EBR.header" ~base:hdr ~words:hdr_words;
  Simmem.label mem ctx ~name:"MSQueue+EBR.epochs" ~base:ann ~words:(num_threads + 1);
  Simmem.label mem ctx ~name:"MSQueue+EBR.node" ~base:sentinel ~words:node_words;
  Simmem.write mem ctx (hdr + hdr_head) sentinel;
  Simmem.write mem ctx (hdr + hdr_tail) sentinel;
  Simmem.write mem ctx (hdr + hdr_epoch) 1;
  (* Limbo is keyed by the announcement slot ([slot_index]), so it has
     one entry per announcement word. *)
  let slots = num_threads + 1 in
  {
    htm;
    hdr;
    ann;
    num_threads;
    grace;
    advance_every;
    limbo = Array.make (slots * buckets) [||];
    limbo_n = Array.make (slots * buckets) 0;
    limbo_epoch = Array.make (slots * buckets) 0;
    since_advance = Array.make slots 0;
    deq_val = Array.make (Simmem.thread_slots mem) 0;
  }

(* Free this thread's limbo buckets whose epoch has aged out: retired in
   epoch [tag], freeable once the global epoch is [grace] ahead. Frees
   newest-first within a bucket (the LIFO order the allocator's own free
   lists expect). *)
let free_eligible t ctx slot epoch =
  let mem = Htm.mem t.htm in
  for b = 0 to buckets - 1 do
    let k = (slot * buckets) + b in
    let tag = t.limbo_epoch.(k) in
    if tag > 0 && tag <= epoch - t.grace then begin
      let r = t.limbo.(k) in
      for i = t.limbo_n.(k) - 1 downto 0 do
        Simmem.free mem ctx r.(i)
      done;
      t.limbo_n.(k) <- 0;
      t.limbo_epoch.(k) <- 0
    end
  done

(* Try to move the global epoch forward: scan every announcement; if some
   active thread still sits in an older epoch the advance is off (that
   reader might hold pointers into the previous epoch's retirees). The
   CAS makes at most one step; losing it means someone else advanced,
   which is just as good. Either way, reclaim what aged out. *)
let try_advance t ctx =
  let mem = Htm.mem t.htm in
  let e = Simmem.read mem ctx (t.hdr + hdr_epoch) in
  let all_current = ref true in
  for s = 0 to t.num_threads do
    let a = Simmem.read mem ctx (ann_addr t s) in
    if a <> 0 && a <> e then all_current := false
  done;
  if !all_current then begin
    let (_ : bool) =
      Simmem.cas mem ctx (t.hdr + hdr_epoch) ~expected:e ~desired:(e + 1)
    in
    ()
  end;
  let e' = Simmem.read mem ctx (t.hdr + hdr_epoch) in
  free_eligible t ctx (slot_index t ctx) e'

let enter t ctx =
  let mem = Htm.mem t.htm in
  let e = Simmem.read mem ctx (t.hdr + hdr_epoch) in
  Simmem.write mem ctx (ann_addr t (slot_index t ctx)) e;
  Sim.fence ~cost:fence_cost ctx

(* Quiescing is a plain (possibly buffered) store: a scanner reading the
   stale announcement merely delays the advance — the conservative
   direction — so no fence is needed, and that asymmetry is most of
   EBR's performance advantage. *)
let exit_epoch t ctx =
  Simmem.write (Htm.mem t.htm) ctx (ann_addr t (slot_index t ctx)) 0

let retire t ctx node =
  let mem = Htm.mem t.htm in
  let slot = slot_index t ctx in
  let e = Simmem.read mem ctx (t.hdr + hdr_epoch) in
  let k = (slot * buckets) + (e mod buckets) in
  (* A stale bucket with this residue holds epoch [e - buckets] retirees
     or older — long past both grace periods; make room. *)
  if t.limbo_epoch.(k) <> 0 && t.limbo_epoch.(k) <> e then begin
    let r = t.limbo.(k) in
    for i = t.limbo_n.(k) - 1 downto 0 do
      Simmem.free mem ctx r.(i)
    done;
    t.limbo_n.(k) <- 0
  end;
  t.limbo_epoch.(k) <- e;
  let n = t.limbo_n.(k) in
  if n = Array.length t.limbo.(k) then begin
    let bigger = Array.make (max 8 (2 * n)) 0 in
    Array.blit t.limbo.(k) 0 bigger 0 n;
    t.limbo.(k) <- bigger
  end;
  t.limbo.(k).(n) <- node;
  t.limbo_n.(k) <- n + 1;
  t.since_advance.(slot) <- t.since_advance.(slot) + 1;
  if t.since_advance.(slot) >= t.advance_every then begin
    t.since_advance.(slot) <- 0;
    try_advance t ctx
  end

(* One randomized backoff delay, same scheme as the ROP queue. *)
let backoff_base = 50
let backoff_cap = 4096

let backoff_once ctx bound =
  Sim.tick ctx ((bound / 2) + Sim.Rng.int (Sim.rng ctx) (max 1 (bound / 2)));
  min backoff_cap (bound * 2)

(* The Michael-Scott protocol itself, stripped of ROP's per-step
   announce/validate pairs: inside an epoch every node reachable at entry
   stays allocated, so plain reads suffice. *)
let rec enq_loop t mem ctx node bound =
  let tail = Simmem.read mem ctx (t.hdr + hdr_tail) in
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

let enqueue t ctx v =
  let mem = Htm.mem t.htm in
  let node = Simmem.malloc mem ctx node_words in
  Simmem.label mem ctx ~name:"MSQueue+EBR.node" ~base:node ~words:node_words;
  Simmem.write mem ctx (node + off_val) v;
  enter t ctx;
  enq_loop t mem ctx node backoff_base;
  exit_epoch t ctx

let rec deq_loop t mem ctx bound =
  let head = Simmem.read mem ctx (t.hdr + hdr_head) in
  let tail = Simmem.read mem ctx (t.hdr + hdr_tail) in
  let next = Simmem.read mem ctx (head + off_next) in
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
      retire t ctx head;
      true
    end
    else deq_loop t mem ctx (backoff_once ctx bound)
  end

let dequeue_drop t ctx =
  enter t ctx;
  let r = deq_loop t (Htm.mem t.htm) ctx backoff_base in
  exit_epoch t ctx;
  r

let dequeue t ctx =
  if dequeue_drop t ctx then Some t.deq_val.(tslot t ctx) else None

let destroy t ctx =
  let mem = Htm.mem t.htm in
  for k = 0 to Array.length t.limbo - 1 do
    let r = t.limbo.(k) in
    for i = t.limbo_n.(k) - 1 downto 0 do
      Simmem.free mem ctx r.(i)
    done;
    t.limbo_n.(k) <- 0;
    t.limbo_epoch.(k) <- 0
  done;
  let rec free_from node =
    if node <> 0 then begin
      let next = Simmem.read mem ctx (node + off_next) in
      Simmem.free mem ctx node;
      free_from next
    end
  in
  free_from (Simmem.read mem ctx (t.hdr + hdr_head));
  Simmem.free mem ctx t.ann;
  Simmem.free mem ctx t.hdr

let mk_maker ?(grace = 2) ?advance_every name : Queue_intf.maker =
  {
    queue_name = name;
    reclaims = true;
    make =
      (fun htm ctx ~num_threads ->
        let advance_every =
          match advance_every with Some n -> n | None -> (2 * (num_threads + 1)) + 2
        in
        let t = create htm ctx ~num_threads ~grace ~advance_every in
        {
          Queue_intf.name;
          enqueue = enqueue t;
          dequeue = dequeue t;
          dequeue_drop = dequeue_drop t;
          destroy = destroy t;
        });
  }

let maker = mk_maker "MichaelScott+EBR"
