(** Dynamic baseline (paper §3.3): a CAS-based linked list with traversal
    reference counts, after Algorithm 2 of Herlihy-Luchangco-Moir (ENTCS
    2003).

    Registration traverses the list looking for an unclaimed node to claim
    (CAS), appending a new node at the tail if none is free. Collect
    traverses the list forwards, incrementing each node's counter with a
    CAS, and walks back decrementing them — every traversal {e writes every
    node twice}, which is exactly the cache-coherence behaviour that makes
    this baseline (and HOHRC) collapse in Figure 3.

    Reclamation substitution: safe CAS-based deallocation of refcounted
    nodes (Valois-style) is notoriously delicate; like most practical
    non-HTM schemes, we make nodes {e type-stable} — deregistered nodes are
    recycled by later registrations but never returned to the allocator, so
    the list's footprint is its historical maximum. This keeps the paper's
    criticism of non-HTM approaches (more space, more coherence traffic)
    measurably true while the per-operation cost profile matches the
    description. See DESIGN.md §6.

    Node states: 1 = claimed (registered), 2 = free for claiming,
    3 = mid-claim (value being written). Claiming writes the value before
    publishing state 1, so a collect that reads state 1 always reads a
    value bound by the current or a concurrent registration. *)

let off_val = 0
let off_next = 1
let off_count = 2
let off_state = 3

let node_words = 4

let st_claimed = 1
let st_free = 2
let st_claiming = 3

type t = { htm : Htm.t; sentinel : int }

let create htm ctx (_cfg : Collect_intf.cfg) =
  let mem = Htm.mem htm in
  let sentinel = Simmem.malloc mem ctx node_words in
  Simmem.label mem ctx ~name:"ListBaseline.header" ~base:sentinel ~words:node_words;
  { htm; sentinel }

let bump t ctx node d =
  let mem = Htm.mem t.htm in
  let rec go () =
    let old = Simmem.read mem ctx (node + off_count) in
    if not (Simmem.cas mem ctx (node + off_count) ~expected:old ~desired:(old + d)) then go ()
  in
  go ()

let pin t ctx node = bump t ctx node 1
let unpin t ctx node = bump t ctx node (-1)

let register t ctx v =
  let mem = Htm.mem t.htm in
  (* Hand-over-hand traversal: hold a pin on the current node while
     pinning the next, so the counter protocol's cost is paid on every
     step exactly as in the real algorithm. *)
  let rec walk prev =
    let next = Simmem.read mem ctx (prev + off_next) in
    if next = 0 then begin
      let node = Simmem.malloc mem ctx node_words in
      Simmem.label mem ctx ~name:"ListBaseline.node" ~base:node ~words:node_words;
      Simmem.write mem ctx (node + off_val) v;
      Simmem.write mem ctx (node + off_state) st_claimed;
      if Simmem.cas mem ctx (prev + off_next) ~expected:0 ~desired:node then begin
        if prev <> t.sentinel then unpin t ctx prev;
        node
      end
      else begin
        (* Lost the append race; recycle our tentative node by linking it
           never — just free it (it was never published). *)
        Simmem.free mem ctx node;
        walk prev
      end
    end
    else begin
      pin t ctx next;
      if prev <> t.sentinel then unpin t ctx prev;
      if
        Simmem.read mem ctx (next + off_state) = st_free
        && Simmem.cas mem ctx (next + off_state) ~expected:st_free ~desired:st_claiming
      then begin
        Simmem.write mem ctx (next + off_val) v;
        Simmem.write mem ctx (next + off_state) st_claimed;
        unpin t ctx next;
        next
      end
      else walk next
    end
  in
  walk t.sentinel

let update t ctx node v = Simmem.write (Htm.mem t.htm) ctx (node + off_val) v

let deregister t ctx node =
  let ok =
    Simmem.cas (Htm.mem t.htm) ctx (node + off_state) ~expected:st_claimed ~desired:st_free
  in
  assert ok

let collect t ctx buf =
  let mem = Htm.mem t.htm in
  let visited = Sim.Ibuf.create () in
  (* Forward pass: pin every node, recording claimed values. *)
  let rec forward node =
    let next = Simmem.read mem ctx (node + off_next) in
    if next <> 0 then begin
      pin t ctx next;
      Sim.Ibuf.add visited next;
      if Simmem.read mem ctx (next + off_state) = st_claimed then
        Sim.Ibuf.add buf (Simmem.read mem ctx (next + off_val));
      forward next
    end
  in
  forward t.sentinel;
  (* Backward pass: release every pin. *)
  for i = Sim.Ibuf.length visited - 1 downto 0 do
    unpin t ctx (Sim.Ibuf.get visited i)
  done

(* Destroy frees only nodes whose traversal count is zero: a nonzero count
   means some traverser still holds a pin (a crashed thread's pin is never
   released), so the node may be dereferenced at any moment and cannot be
   returned to the allocator. The resulting permanent leak is the paper's
   argument against counter-based recycling, made measurable via
   [Simmem.live_words]. *)
let destroy t ctx =
  let mem = Htm.mem t.htm in
  let rec free_from node =
    if node <> 0 then begin
      let next = Simmem.read mem ctx (node + off_next) in
      if Simmem.read mem ctx (node + off_count) = 0 then Simmem.free mem ctx node;
      free_from next
    end
  in
  free_from (Simmem.read mem ctx (t.sentinel + off_next));
  Simmem.free mem ctx t.sentinel

let maker : Collect_intf.maker =
  {
    algo_name = "DynamicBaseline";
    solves_dynamic = true;
    uses_htm = false;
    direct_update = true;
    make =
      (fun htm ctx cfg ->
        let t = create htm ctx cfg in
        {
          Collect_intf.name = "DynamicBaseline";
          register = register t;
          update = update t;
          deregister = deregister t;
          collect = (fun ctx buf -> collect t ctx buf);
          destroy = destroy t;
          step_histogram = (fun () -> []);
        });
  }
