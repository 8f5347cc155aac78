type op_kind = Enq of int | Deq of int option

type op = { op_tid : int; op_inv : int; op_res : int; op_kind : op_kind }

type history = { mutable now : int; mutable rev_ops : op list }

let create () = { now = 0; rev_ops = [] }

let stamp h =
  h.now <- h.now + 1;
  h.now

let add h ~tid ~inv ~res kind =
  h.rev_ops <- { op_tid = tid; op_inv = inv; op_res = res; op_kind = kind } :: h.rev_ops

let ops h = List.rev h.rev_ops

let pp_kind ppf = function
  | Enq v -> Format.fprintf ppf "enq %d" v
  | Deq None -> Format.fprintf ppf "deq -> empty"
  | Deq (Some v) -> Format.fprintf ppf "deq -> %d" v

let pp_op ppf o =
  Format.fprintf ppf "t%d [%d,%d] %a" o.op_tid o.op_inv o.op_res pp_kind o.op_kind

let max_ops = 62

(* Wing & Gong's tree search: linearize one minimal pending operation at a
   time against a sequential FIFO model. A state is (set of linearized ops,
   queue contents); states proven dead are memoized, which is what makes
   the search tractable on the densely-overlapping histories the explorer
   produces. *)
let check h =
  let ops = Array.of_list (ops h) in
  let n = Array.length ops in
  if n > max_ops then
    invalid_arg (Printf.sprintf "Lin.check: %d operations (max %d)" n max_ops);
  if n = 0 then Ok ()
  else begin
    let full = (1 lsl n) - 1 in
    let dead : (int * int list, unit) Hashtbl.t = Hashtbl.create 64 in
    (* [i] may be linearized next iff no other pending op returned before
       [i] was invoked (such an op must precede [i] in any linearization). *)
    let minimal mask i =
      let rec go j =
        if j = n then true
        else if
          j <> i && mask land (1 lsl j) = 0 && ops.(j).op_res < ops.(i).op_inv
        then false
        else go (j + 1)
      in
      go 0
    in
    let rec go mask queue =
      if mask = full then true
      else if Hashtbl.mem dead (mask, queue) then false
      else begin
        let found = ref false in
        let i = ref 0 in
        while (not !found) && !i < n do
          let idx = !i in
          incr i;
          if mask land (1 lsl idx) = 0 && minimal mask idx then begin
            let mask' = mask lor (1 lsl idx) in
            match ops.(idx).op_kind with
            | Enq v -> if go mask' (queue @ [ v ]) then found := true
            | Deq None -> if queue = [] && go mask' queue then found := true
            | Deq (Some v) -> (
              match queue with
              | q0 :: rest when q0 = v -> if go mask' rest then found := true
              | _ -> ())
          end
        done;
        if not !found then Hashtbl.replace dead (mask, queue) ();
        !found
      end
    in
    if go 0 [] then Ok ()
    else begin
      let b = Buffer.create 256 in
      Buffer.add_string b
        (Printf.sprintf "history of %d operations is not linearizable as a FIFO queue:" n);
      Array.iter
        (fun o -> Buffer.add_string b (Format.asprintf "\n  %a" pp_op o))
        ops;
      Error (Buffer.contents b)
    end
  end
