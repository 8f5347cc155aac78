(** ArrayDynAppendDereg optimised for Update — the §4.1 variant the paper
    describes but did not implement.

    The value lives {e with the slot reference} instead of in the array
    slot: a handle is a two-word block [+0: current slot address,
    +1: value], and array slots hold only the back-pointer to the handle.
    Because the handle block never moves, [update] is a naked single-word
    store (the fast ≈135 ns class) even though slots still compact and
    resize. The price moves to [collect], which must dereference each
    slot's handle pointer inside its transaction — two dependent loads per
    element instead of one.

    Everything else — the resize invariant, cooperative [help_copy],
    registration during copying, compaction on deregister — mirrors
    Figure 2 with one-word slots. *)

let hdr_array = 0
let hdr_capacity = 1
let hdr_count = 2
let hdr_array_new = 3
let hdr_capacity_new = 4
let hdr_copied = 5

let ref_slot = 0 (* handle word: current array slot *)
let ref_val = 1 (* handle word: the bound value *)

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
  let arr = Simmem.malloc mem ctx min_size in
  Simmem.write mem ctx (hdr + hdr_array) arr;
  Simmem.write mem ctx (hdr + hdr_capacity) min_size;
  (* Collect costs two loads per element, so keep full-width steps. *)
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
            let arr = Htm.read tx (hdr + hdr_array) in
            let handle = Htm.read tx (arr + copied) in
            Htm.write tx (anew + copied) handle;
            Htm.write tx (handle + ref_slot) (anew + copied);
            Htm.write tx (hdr + hdr_copied) (copied + 1);
            0
          end
          else begin
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
  let array_tmp = Simmem.malloc mem ctx new_capacity in
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

let append tx ~hdr ~count handle =
  let arr = Htm.read tx (hdr + hdr_array) in
  Htm.write tx (arr + count) handle;
  Htm.write tx (handle + ref_slot) (arr + count);
  Htm.write tx (hdr + hdr_count) (count + 1)

type action = Done | Grow of int | Help

let register t ctx v =
  let mem = Htm.mem t.htm in
  let hdr = t.hdr in
  let handle = Simmem.malloc mem ctx 2 in
  Simmem.write mem ctx (handle + ref_val) v;
  let rec loop () =
    let action =
      Htm.atomic t.htm ctx (fun tx ->
          if not (copying tx hdr) then begin
            let count = Htm.read tx (hdr + hdr_count) in
            if count < Htm.read tx (hdr + hdr_capacity) then begin
              append tx ~hdr ~count handle;
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
              append tx ~hdr ~count handle;
              Done
            end
            else Help
          end)
    in
    match action with
    | Done -> ()
    | Grow count_l ->
      attempt_resize t ctx ~count_l ~capacity_l:count_l;
      loop ()
    | Help ->
      help_copy t ctx;
      loop ()
  in
  loop ();
  handle

let update t ctx handle v = Simmem.write (Htm.mem t.htm) ctx (handle + ref_val) v

type dereg_action = DDone | DShrink of int * int | DHelp

let deregister t ctx handle =
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
            Htm.write tx (hdr + hdr_count) (count_l - 1);
            let arr = Htm.read tx (hdr + hdr_array) in
            let moved_handle = Htm.read tx (arr + count_l - 1) in
            let mine = Htm.read tx (handle + ref_slot) in
            Htm.write tx mine moved_handle;
            Htm.write tx (moved_handle + ref_slot) mine;
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
  Simmem.free mem ctx handle

let collect t ctx buf =
  help_copy t ctx;
  let mem = Htm.mem t.htm in
  let i = ref (Simmem.read mem ctx (t.hdr + hdr_count) - 1) in
  while !i >= 0 do
    let len0 = Sim.Ibuf.length buf in
    let committed =
      Htm.atomic t.htm ctx
        ~on_abort:(fun _ -> Stepper.on_abort t.stepper ctx)
        (fun tx ->
          Sim.Ibuf.reset_to buf len0;
          let step = Stepper.get t.stepper ctx in
          let arr = Htm.read tx (t.hdr + hdr_array) in
          let count = Htm.read tx (t.hdr + hdr_count) in
          let j = ref (if !i >= count then count - 1 else !i) in
          let k = ref 0 in
          while !k < step && !j >= 0 do
            (* the extra dependent load this variant pays *)
            let handle = Htm.read tx (arr + !j) in
            Sim.Ibuf.add buf (Htm.read tx (handle + ref_val));
            Htm.record tx;
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
    algo_name = "ArrayDynAppendFastUpd";
    solves_dynamic = true;
    uses_htm = true;
    direct_update = true;
    make =
      (fun htm ctx cfg ->
        let t = create htm ctx cfg in
        {
          Collect_intf.name = "ArrayDynAppendFastUpd";
          register = register t;
          update = update t;
          deregister = deregister t;
          collect = (fun ctx buf -> collect t ctx buf);
          destroy = destroy t;
          step_histogram = (fun () -> Stepper.histogram t.stepper);
        });
  }
