(** ArrayDynSearchResize (paper §3.2.4): dynamic array, search-based
    registration, compaction only on resize.

    Slots are 3 words ([+0] occupancy flag, [+1] value, [+2] back-pointer
    to the slot reference); handles are slot references as in the other
    moving-slot algorithms, because resizing compacts occupied slots into
    the new array. Between resizes, deregistered holes are not reused by
    compaction — registration must search for them — so collects
    "frequently traverse more slots than are registered" (§5.4), which is
    this algorithm's characteristic weakness. *)

let hdr_array = 0
let hdr_capacity = 1
let hdr_count = 2
let hdr_array_new = 3
let hdr_capacity_new = 4
let hdr_copied = 5 (* old-array scan cursor during a resize *)
let hdr_ncopied = 6 (* occupied slots placed into the new array *)

let slot_words = 3

type t = {
  htm : Htm.t;
  hdr : int;
  min_size : int;
  stepper : Stepper.t;
}

let copying tx hdr = Htm.read tx (hdr + hdr_array_new) <> 0

let create htm ctx (cfg : Collect_intf.cfg) =
  let mem = Htm.mem htm in
  let min_size = max 1 cfg.min_size in
  let hdr = Simmem.malloc mem ctx 7 in
  let arr = Simmem.malloc mem ctx (slot_words * min_size) in
  Simmem.write mem ctx (hdr + hdr_array) arr;
  Simmem.write mem ctx (hdr + hdr_capacity) min_size;
  { htm; hdr; min_size; stepper = Stepper.make mem cfg.step ~max_step:(Htm.config htm).store_buffer }

let help_copy_one t ctx =
  let hdr = t.hdr in
  let to_free =
    Htm.atomic t.htm ctx (fun tx ->
        if not (copying tx hdr) then 0
        else begin
          let copied = Htm.read tx (hdr + hdr_copied) in
          let capacity = Htm.read tx (hdr + hdr_capacity) in
          if copied < capacity then begin
            let arr = Htm.read tx (hdr + hdr_array) in
            let slot = arr + (slot_words * copied) in
            if Htm.read tx slot = 1 then begin
              (* Compact: occupied slots go to consecutive new positions. *)
              let anew = Htm.read tx (hdr + hdr_array_new) in
              let ncopied = Htm.read tx (hdr + hdr_ncopied) in
              let ns = anew + (slot_words * ncopied) in
              Htm.write tx ns 1;
              Htm.write tx (ns + 1) (Htm.read tx (slot + 1));
              let sref = Htm.read tx (slot + 2) in
              Htm.write tx (ns + 2) sref;
              Htm.write tx sref ns;
              Htm.write tx (hdr + hdr_ncopied) (ncopied + 1)
            end;
            Htm.write tx (hdr + hdr_copied) (copied + 1);
            0
          end
          else begin
            let old_arr = Htm.read tx (hdr + hdr_array) in
            Htm.write tx (hdr + hdr_array) (Htm.read tx (hdr + hdr_array_new));
            Htm.write tx (hdr + hdr_capacity) (Htm.read tx (hdr + hdr_capacity_new));
            Htm.write tx (hdr + hdr_array_new) 0;
            old_arr
          end
        end)
  in
  if to_free <> 0 then Simmem.free (Htm.mem t.htm) ctx to_free

let help_copy t ctx =
  while Simmem.read (Htm.mem t.htm) ctx (t.hdr + hdr_array_new) <> 0 do
    help_copy_one t ctx
  done

let attempt_resize t ctx ~count_l ~capacity_l =
  let mem = Htm.mem t.htm in
  let hdr = t.hdr in
  let new_capacity = max t.min_size (2 * count_l) in
  let array_tmp = Simmem.malloc mem ctx (slot_words * new_capacity) in
  let free_tmp =
    Htm.atomic t.htm ctx (fun tx ->
        if
          (not (copying tx hdr))
          && Htm.read tx (hdr + hdr_count) = count_l
          && Htm.read tx (hdr + hdr_capacity) = capacity_l
        then begin
          Htm.write tx (hdr + hdr_array_new) array_tmp;
          Htm.write tx (hdr + hdr_capacity_new) new_capacity;
          Htm.write tx (hdr + hdr_copied) 0;
          Htm.write tx (hdr + hdr_ncopied) 0;
          false
        end
        else true)
  in
  if free_tmp then Simmem.free mem ctx array_tmp;
  help_copy t ctx

let search_chunk = 16

let register t ctx v =
  let mem = Htm.mem t.htm in
  let hdr = t.hdr in
  let slot_ref = Simmem.malloc mem ctx 1 in
  (* The search runs in chunked transactions: a plain-load probe could
     dereference an old array freed by a concurrent resize. Sandboxing
     would save a transaction there, a segfault saves nobody — this is
     precisely the simplification HTM buys (§4.3). A free slot found by a
     probe is claimed within the same transaction. *)
  let rec outer j =
    let res =
      Htm.atomic t.htm ctx (fun tx ->
          if copying tx hdr then `Help
          else begin
            let arr = Htm.read tx (hdr + hdr_array) in
            let capacity = Htm.read tx (hdr + hdr_capacity) in
            let start = if j >= capacity then 0 else j in
            let rec probe i k =
              if i >= capacity then begin
                let count = Htm.read tx (hdr + hdr_count) in
                if count < capacity then `Wrapped (* a hole is behind us *)
                else `Full (count, capacity)
              end
              else if k >= search_chunk then `More i
              else if Htm.read tx (arr + (slot_words * i)) = 0 then begin
                let slot = arr + (slot_words * i) in
                Htm.write tx slot 1;
                Htm.write tx (slot + 1) v;
                Htm.write tx (slot + 2) slot_ref;
                Htm.write tx slot_ref slot;
                Htm.write tx (hdr + hdr_count) (Htm.read tx (hdr + hdr_count) + 1);
                `Claimed
              end
              else probe (i + 1) (k + 1)
            in
            probe start 0
          end)
    in
    match res with
    | `Claimed -> ()
    | `More i -> outer i
    | `Wrapped -> outer 0
    | `Full (count_l, capacity_l) ->
      attempt_resize t ctx ~count_l ~capacity_l;
      outer 0
    | `Help ->
      help_copy t ctx;
      outer 0
  in
  outer 0;
  slot_ref

let deregister t ctx slot_ref =
  let mem = Htm.mem t.htm in
  let hdr = t.hdr in
  let rec loop () =
    let action =
      Htm.atomic t.htm ctx (fun tx ->
          if copying tx hdr then `Help
          else begin
            let count_l = Htm.read tx (hdr + hdr_count) in
            let capacity_l = Htm.read tx (hdr + hdr_capacity) in
            let slot = Htm.read tx slot_ref in
            Htm.write tx slot 0;
            Htm.write tx (hdr + hdr_count) (count_l - 1);
            if (count_l - 1) * 4 = capacity_l && (count_l - 1) * 2 >= t.min_size then
              `Shrink (count_l - 1, capacity_l)
            else `Done
          end)
    in
    match action with
    | `Help ->
      help_copy t ctx;
      loop ()
    | `Done -> ()
    | `Shrink (count_l, capacity_l) -> attempt_resize t ctx ~count_l ~capacity_l
  in
  loop ();
  Simmem.free mem ctx slot_ref

let update t ctx slot_ref v =
  Htm.atomic t.htm ctx (fun tx -> Htm.write tx (Htm.read tx slot_ref + 1) v)

let collect t ctx buf =
  help_copy t ctx;
  let mem = Htm.mem t.htm in
  let i = ref (Simmem.read mem ctx (t.hdr + hdr_capacity) - 1) in
  while !i >= 0 do
    let len0 = Sim.Ibuf.length buf in
    let committed =
      Htm.atomic t.htm ctx
        ~on_abort:(fun _ -> Stepper.on_abort t.stepper ctx)
        (fun tx ->
          Sim.Ibuf.reset_to buf len0;
          let step = Stepper.get t.stepper ctx in
          let arr = Htm.read tx (t.hdr + hdr_array) in
          let capacity = Htm.read tx (t.hdr + hdr_capacity) in
          let j = ref (if !i >= capacity then capacity - 1 else !i) in
          let k = ref 0 in
          while !k < step && !j >= 0 do
            let slot = arr + (slot_words * !j) in
            if Htm.read tx slot = 1 then begin
              Sim.Ibuf.add buf (Htm.read tx (slot + 1));
              Htm.record tx
            end;
            decr j;
            incr k
          done;
          !j)
    in
    Stepper.on_commit t.stepper ctx;
    Stepper.record_collected t.stepper ctx (Sim.Ibuf.length buf - len0);
    i := committed
  done

let destroy t ctx =
  let mem = Htm.mem t.htm in
  let anew = Simmem.read mem ctx (t.hdr + hdr_array_new) in
  if anew <> 0 then Simmem.free mem ctx anew;
  Simmem.free mem ctx (Simmem.read mem ctx (t.hdr + hdr_array));
  Simmem.free mem ctx t.hdr

let maker : Collect_intf.maker =
  {
    algo_name = "ArrayDynSearchResize";
    solves_dynamic = true;
    uses_htm = true;
    direct_update = false;
    make =
      (fun htm ctx cfg ->
        let t = create htm ctx cfg in
        {
          Collect_intf.name = "ArrayDynSearchResize";
          register = register t;
          update = update t;
          deregister = deregister t;
          collect = (fun ctx buf -> collect t ctx buf);
          destroy = destroy t;
          step_histogram = (fun () -> Stepper.histogram t.stepper);
        });
  }
