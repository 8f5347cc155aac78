(** FastCollect with deferred frees — the variant sketched in §3.1.2.

    Plain FastCollect restarts a collect whenever the deregister counter
    changes, so frequent deregisters can starve collects entirely
    (Figure 7). The paper suggests "adding a mode in which DeRegister
    operations add nodes to a to-be-freed list that is freed by a Collect
    operation after it completes", noting that HTM makes such variants
    straightforward. This module implements that mode:

    - [deregister] unlinks the node, tombstones it (its [prev] field
      becomes a marker) and pushes it onto a shared to-be-freed list —
      {e without} bumping any counter that in-flight collects watch;
    - a collect restarts only if (a) the node its unpinned cursor rests on
      was itself deregistered (the tombstone check), or (b) a reclaim has
      freed memory since its previous chunk (the epoch check, which is
      what keeps an unlinked-but-parked cursor dereferenceable);
    - after completing, [collect] detaches the to-be-freed list in one
      transaction, bumps the reclaim epoch, and frees the nodes.

    Restarts thus require a deregister to hit the collect's cursor node
    exactly, or a whole collect to complete elsewhere — orders of
    magnitude rarer than "any deregister anywhere", which is the starvation
    fix. The price is that reclamation waits for the next completed
    collect. *)

let off_val = 0
let off_next = 1
let off_prev = 2

let node_words = 3

let tombstone = -1 (* prev-field marker for unlinked nodes *)

let hdr_epoch = 0 (* bumped by every reclaim *)
let hdr_free_list = 1

type t = {
  htm : Htm.t;
  hdr : int;
  sentinel : int;
  stepper : Stepper.t;
}

let create htm ctx (cfg : Collect_intf.cfg) =
  let mem = Htm.mem htm in
  let hdr = Simmem.malloc mem ctx 2 in
  let sentinel = Simmem.malloc mem ctx node_words in
  Simmem.label mem ctx ~name:"ListFastDeferred.header" ~base:hdr ~words:2;
  Simmem.label mem ctx ~name:"ListFastDeferred.header" ~base:sentinel ~words:node_words;
  { htm; hdr; sentinel; stepper = Stepper.make mem cfg.step ~max_step:(Htm.config htm).store_buffer }

let register t ctx v =
  let mem = Htm.mem t.htm in
  let node = Simmem.malloc mem ctx node_words in
  Simmem.label mem ctx ~name:"ListFastDeferred.node" ~base:node ~words:node_words;
  Simmem.write mem ctx (node + off_val) v;
  Htm.atomic t.htm ctx (fun tx ->
      let first = Htm.read tx (t.sentinel + off_next) in
      Htm.write tx (node + off_next) first;
      Htm.write tx (node + off_prev) t.sentinel;
      Htm.write tx (t.sentinel + off_next) node;
      if first <> 0 then Htm.write tx (first + off_prev) node);
  node

let update t ctx node v = Simmem.write (Htm.mem t.htm) ctx (node + off_val) v

let deregister t ctx node =
  Htm.atomic t.htm ctx (fun tx ->
      let prev = Htm.read tx (node + off_prev) in
      let next = Htm.read tx (node + off_next) in
      Htm.write tx (prev + off_next) next;
      if next <> 0 then Htm.write tx (next + off_prev) prev;
      Htm.write tx (node + off_prev) tombstone;
      (* push onto the to-be-freed list, reusing the next field (safe: the
         node is unlinked, and parked cursors check the tombstone before
         following it) *)
      Htm.write tx (node + off_next) (Htm.read tx (t.hdr + hdr_free_list));
      Htm.write tx (t.hdr + hdr_free_list) node)

(* Detach the to-be-freed list, bump the epoch, and free the nodes (which
   are private once detached). *)
let reclaim t ctx =
  let mem = Htm.mem t.htm in
  let head =
    Htm.atomic t.htm ctx (fun tx ->
        let head = Htm.read tx (t.hdr + hdr_free_list) in
        if head <> 0 then begin
          Htm.write tx (t.hdr + hdr_free_list) 0;
          Htm.write tx (t.hdr + hdr_epoch) (Htm.read tx (t.hdr + hdr_epoch) + 1)
        end;
        head)
  in
  let rec free_from node =
    if node <> 0 then begin
      let next = Simmem.read mem ctx (node + off_next) in
      Simmem.free mem ctx node;
      free_from next
    end
  in
  free_from head

let collect t ctx buf =
  let len0 = Sim.Ibuf.length buf in
  let rec whole () =
    Sim.Ibuf.reset_to buf len0;
    let rec chunk ~epoch0 cur =
      let chunk_len = Sim.Ibuf.length buf in
      let res =
        Htm.atomic t.htm ctx
          ~on_abort:(fun _ -> Stepper.on_abort t.stepper ctx)
          (fun tx ->
            Sim.Ibuf.reset_to buf chunk_len;
            (* epoch first: unchanged means nothing was freed since the
               previous chunk, so the cursor is still dereferenceable. *)
            let e = Htm.read tx (t.hdr + hdr_epoch) in
            if epoch0 >= 0 && e <> epoch0 then `Restart
            else if cur <> t.sentinel && Htm.read tx (cur + off_prev) = tombstone then
              (* our cursor's node was deregistered under us *)
              `Restart
            else begin
              let step = Stepper.get t.stepper ctx in
              let node = ref (Htm.read tx (cur + off_next)) in
              let last = ref 0 in
              let k = ref 0 in
              while !node <> 0 && !k < step do
                Sim.Ibuf.add buf (Htm.read tx (!node + off_val));
                Htm.record tx;
                last := !node;
                incr k;
                node := Htm.read tx (!node + off_next)
              done;
              if !node = 0 then `Finished e else `More (e, !last)
            end)
      in
      Stepper.on_commit t.stepper ctx;
      (match res with
       | `Restart -> ()
       | `Finished _ | `More _ ->
         Stepper.record_collected t.stepper ctx (Sim.Ibuf.length buf - chunk_len));
      match res with
      | `Restart -> whole ()
      | `Finished _ -> ()
      | `More (e, last) -> chunk ~epoch0:e last
    in
    chunk ~epoch0:(-1) t.sentinel
  in
  whole ();
  reclaim t ctx

let destroy t ctx =
  let mem = Htm.mem t.htm in
  let rec free_from node =
    if node <> 0 then begin
      let next = Simmem.read mem ctx (node + off_next) in
      Simmem.free mem ctx node;
      free_from next
    end
  in
  free_from (Simmem.read mem ctx (t.sentinel + off_next));
  free_from (Simmem.read mem ctx (t.hdr + hdr_free_list));
  Simmem.free mem ctx t.sentinel;
  Simmem.free mem ctx t.hdr

let maker : Collect_intf.maker =
  {
    algo_name = "ListFastCollectDeferred";
    solves_dynamic = true;
    uses_htm = true;
    direct_update = true;
    make =
      (fun htm ctx cfg ->
        let t = create htm ctx cfg in
        {
          Collect_intf.name = "ListFastCollectDeferred";
          register = register t;
          update = update t;
          deregister = deregister t;
          collect = (fun ctx buf -> collect t ctx buf);
          destroy = destroy t;
          step_histogram = (fun () -> Stepper.histogram t.stepper);
        });
  }
