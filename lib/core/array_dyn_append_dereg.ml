(** ArrayDynAppendDereg — the paper's flagship algorithm (§4, Figure 2).

    Dynamic array, append-based registration, compaction on every
    deregister. The array grows to [2·count] when full and shrinks to
    [2·count] when only a quarter full, maintaining
    [max(count, MIN_SIZE) <= capacity <= 4·count]. Resizing installs a new
    array and copies slots cooperatively ([help_copy]); registration can
    complete during a resize when both arrays have room (§4.2's
    optimisation). This module is a line-for-line port of the Figure 2
    pseudocode onto the simulated HTM. *)

open Array_common

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
  let hdr = Simmem.malloc mem ctx 6 in
  let arr = Simmem.malloc mem ctx (slot_words * min_size) in
  Simmem.write mem ctx (hdr + hdr_array) arr;
  Simmem.write mem ctx (hdr + hdr_capacity) min_size;
  { htm; hdr; min_size; stepper = Stepper.make mem cfg.step ~max_step:(Htm.config htm).store_buffer }

let help_copy_one t ctx =
  let hdr = t.hdr in
  let to_free =
    Htm.atomic t.htm ctx (fun tx ->
        let anew = Htm.read tx (hdr + hdr_array_new) in
        if anew = 0 then 0
        else begin
          let copied = Htm.read tx (hdr + hdr_copied) in
          let count = Htm.read tx (hdr + hdr_count) in
          if copied < count then begin
            (* Copy one slot and redirect its handle's slot reference in
               the same transaction, so updates can never be lost. *)
            let arr = Htm.read tx (hdr + hdr_array) in
            let old_slot = arr + (slot_words * copied) in
            let new_slot = anew + (slot_words * copied) in
            Htm.write tx new_slot (Htm.read tx old_slot);
            let sref = Htm.read tx (old_slot + 1) in
            Htm.write tx (new_slot + 1) sref;
            Htm.write tx sref new_slot;
            Htm.write tx (hdr + hdr_copied) (copied + 1);
            0
          end
          else begin
            (* The same transaction that finds everything copied makes the
               new array current (§4.2: this is why registration during
               copying is safe). *)
            let old_arr = Htm.read tx (hdr + hdr_array) in
            Htm.write tx (hdr + hdr_array) anew;
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
  let new_capacity = 2 * count_l in
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
          false
        end
        else true)
  in
  if free_tmp then Simmem.free mem ctx array_tmp;
  help_copy t ctx

type action = Done | Grow of int | Help

let register t ctx v =
  let mem = Htm.mem t.htm in
  let hdr = t.hdr in
  let slot_ref = Simmem.malloc mem ctx 1 in
  let rec loop () =
    let action =
      Htm.atomic t.htm ctx (fun tx ->
          if not (copying tx hdr) then begin
            let count = Htm.read tx (hdr + hdr_count) in
            if count < Htm.read tx (hdr + hdr_capacity) then begin
              append tx ~hdr ~count slot_ref v;
              Done
            end
            else Grow count
          end
          else begin
            let count = Htm.read tx (hdr + hdr_count) in
            if
              count < Htm.read tx (hdr + hdr_capacity)
              && count < Htm.read tx (hdr + hdr_capacity_new)
            then begin
              append tx ~hdr ~count slot_ref v;
              Done
            end
            else Help
          end)
    in
    match action with
    | Done -> ()
    | Grow count_l ->
      (* When the array is full, count = capacity, so Figure 2 passes
         count_l for both expected values (line 39). *)
      attempt_resize t ctx ~count_l ~capacity_l:count_l;
      loop ()
    | Help ->
      help_copy t ctx;
      loop ()
  in
  loop ();
  slot_ref

type dereg_action = DDone | DShrink of int * int | DHelp

let deregister t ctx slot_ref =
  let mem = Htm.mem t.htm in
  let hdr = t.hdr in
  let action = ref DHelp in
  while !action <> DDone do
    let r =
      Htm.atomic t.htm ctx (fun tx ->
          let count_l = Htm.read tx (hdr + hdr_count) in
          let capacity_l = Htm.read tx (hdr + hdr_capacity) in
          if count_l * 4 = capacity_l && count_l * 2 >= t.min_size then
            DShrink (count_l, capacity_l)
          else if not (copying tx hdr) then begin
            (* Move the last used slot into the hole (compaction on every
               deregister), redirecting the moved handle's slot reference. *)
            Htm.write tx (hdr + hdr_count) (count_l - 1);
            let arr = Htm.read tx (hdr + hdr_array) in
            let last = arr + (slot_words * (count_l - 1)) in
            let mine = Htm.read tx slot_ref in
            let moved_ref = Htm.read tx (last + 1) in
            Htm.write tx mine (Htm.read tx last);
            Htm.write tx (mine + 1) moved_ref;
            Htm.write tx moved_ref mine;
            DDone
          end
          else DHelp)
    in
    action := r;
    (match !action with
     | DShrink (count_l, capacity_l) ->
       attempt_resize t ctx ~count_l ~capacity_l;
       action := DHelp
     | DHelp -> help_copy t ctx
     | DDone -> ())
  done;
  Simmem.free mem ctx slot_ref

let update t ctx slot_ref v = update_indirect t.htm ctx slot_ref v

let collect t ctx buf =
  (* §4.2: ensure no copy is in progress when the scan starts; otherwise an
     update already redirected to the new array could be missed even though
     it completed before this collect began. *)
  help_copy t ctx;
  reverse_collect t.htm ctx ~hdr:t.hdr ~stepper:t.stepper buf

let destroy t ctx =
  let mem = Htm.mem t.htm in
  let anew = Simmem.read mem ctx (t.hdr + hdr_array_new) in
  if anew <> 0 then Simmem.free mem ctx anew;
  Simmem.free mem ctx (Simmem.read mem ctx (t.hdr + hdr_array));
  Simmem.free mem ctx t.hdr

let maker : Collect_intf.maker =
  {
    algo_name = "ArrayDynAppendDereg";
    solves_dynamic = true;
    uses_htm = true;
    direct_update = false;
    make =
      (fun htm ctx cfg ->
        let t = create htm ctx cfg in
        {
          Collect_intf.name = "ArrayDynAppendDereg";
          register = register t;
          update = update t;
          deregister = deregister t;
          collect = (fun ctx buf -> collect t ctx buf);
          destroy = destroy t;
          step_histogram = (fun () -> Stepper.histogram t.stepper);
        });
  }
