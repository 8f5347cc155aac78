(** FastCollect (paper §3.1.2): doubly-linked list plus a shared deregister
    counter [dc].

    Deregister atomically unlinks the node and increments [dc], then frees
    the node immediately — no reference counts, so collects write nothing
    while traversing. A collect reads [dc] in its first transaction; every
    later transaction re-reads [dc] before touching its cursor and restarts
    the whole collect if it changed. The cursor is not pinned, so it may
    point to freed memory after a deregister — the [dc] check (plus HTM
    sandboxing for the in-flight window) is what makes that safe, and it is
    why this algorithm is essentially impossible without HTM.

    The disadvantage (§3.1.2, Figure 7): frequent deregisters starve
    collects through endless restarts. *)

let off_val = 0
let off_next = 1
let off_prev = 2

let node_words = 3

type t = {
  htm : Htm.t;
  hdr : int;  (** one word: the deregister counter [dc] *)
  sentinel : int;
  stepper : Stepper.t;
}

let create htm ctx (cfg : Collect_intf.cfg) =
  let mem = Htm.mem htm in
  let hdr = Simmem.malloc mem ctx 1 in
  let sentinel = Simmem.malloc mem ctx node_words in
  Simmem.label mem ctx ~name:"ListFast.header" ~base:hdr ~words:1;
  Simmem.label mem ctx ~name:"ListFast.header" ~base:sentinel ~words:node_words;
  { htm; hdr; sentinel; stepper = Stepper.make mem cfg.step ~max_step:(Htm.config htm).store_buffer }

let register t ctx v =
  let mem = Htm.mem t.htm in
  let node = Simmem.malloc mem ctx node_words in
  Simmem.label mem ctx ~name:"ListFast.node" ~base:node ~words:node_words;
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
      Htm.write tx t.hdr (Htm.read tx t.hdr + 1);
      let prev = Htm.read tx (node + off_prev) in
      let next = Htm.read tx (node + off_next) in
      Htm.write tx (prev + off_next) next;
      if next <> 0 then Htm.write tx (next + off_prev) prev;
      Htm.defer_free tx node)

let collect t ctx buf =
  let len0 = Sim.Ibuf.length buf in
  let rec whole () =
    Sim.Ibuf.reset_to buf len0;
    let rec chunk ~dc0 cur =
      let chunk_len = Sim.Ibuf.length buf in
      let res =
        Htm.atomic t.htm ctx
          ~on_abort:(fun _ -> Stepper.on_abort t.stepper ctx)
          (fun tx ->
            Sim.Ibuf.reset_to buf chunk_len;
            (* Read dc before touching the unpinned cursor: if no
               deregister committed since the previous chunk, the cursor is
               still linked and live. *)
            let d = Htm.read tx t.hdr in
            if dc0 >= 0 && d <> dc0 then `Restart
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
              if !node = 0 then `Finished d else `More (d, !last)
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
      | `More (d, last) -> chunk ~dc0:d last
    in
    chunk ~dc0:(-1) t.sentinel
  in
  whole ()

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
  Simmem.free mem ctx t.sentinel;
  Simmem.free mem ctx t.hdr

let maker : Collect_intf.maker =
  {
    algo_name = "ListFastCollect";
    solves_dynamic = true;
    uses_htm = true;
    direct_update = true;
    make =
      (fun htm ctx cfg ->
        let t = create htm ctx cfg in
        {
          Collect_intf.name = "ListFastCollect";
          register = register t;
          update = update t;
          deregister = deregister t;
          collect = (fun ctx buf -> collect t ctx buf);
          destroy = destroy t;
          step_histogram = (fun () -> Stepper.histogram t.stepper);
        });
  }
