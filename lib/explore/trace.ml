type t = {
  limit : int;
  mutable n : int;
  mutable rev : string list;
  mutable dropped : int;
}

let create ?(limit = 4000) () = { limit; n = 0; rev = []; dropped = 0 }

let note t line =
  if t.n >= t.limit then t.dropped <- t.dropped + 1
  else begin
    t.rev <- line :: t.rev;
    t.n <- t.n + 1
  end

let attach_mem t mem =
  Simmem.set_tap mem
    (Some
       (fun (ev : Simmem.access_event) ->
         note t
           (Format.asprintf "t%-2d @%-9d mem  %a" ev.acc_tid ev.acc_clock
              Simmem.pp_access ev.acc)))

let on_fault t (ev : Sim.Fault.event) =
  let what =
    match ev.ev_kind with
    | Sim.Fault.Stalled d -> Printf.sprintf "stalled %d cycles" d
    | Sim.Fault.Killed -> "killed"
    | Sim.Fault.Killed_at p -> "killed at " ^ p
    | Sim.Fault.Spurious_abort -> "spurious abort armed"
  in
  note t (Format.asprintf "t%-2d @%-9d flt  %s" ev.ev_tid ev.ev_clock what)

let attach_htm t h =
  (* With an observer attached, the last-writer journal is on and abort
     events carry a resolved conflict witness (aggressor thread, clock,
     op) — pp_tx_event renders it, so counterexample traces name the
     write that doomed each transaction. Free: observation charges zero
     virtual cycles. *)
  Simmem.set_observer (Htm.mem h) (Some (Obs.Forensics.create ()));
  Htm.set_tap h
    (Some
       (fun ~tid ~clock ev ->
         note t (Format.asprintf "t%-2d @%-9d htm  %a" tid clock Htm.pp_tx_event ev)))

let lines t =
  let l = List.rev t.rev in
  if t.dropped = 0 then l
  else
    l
    @ [ Printf.sprintf "(... %d further events beyond the %d-line limit)" t.dropped t.limit ]

let to_string t = String.concat "\n" (lines t)
