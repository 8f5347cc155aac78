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

let pp_access ppf (acc : Obs.Event.access) =
  match acc with
  | Read { addr; value } -> Format.fprintf ppf "read   %#x -> %d" addr value
  | Write { addr; value } -> Format.fprintf ppf "write  %#x <- %d" addr value
  | Cas { addr; expected; desired; success } ->
    Format.fprintf ppf "cas    %#x %d->%d %s" addr expected desired
      (if success then "ok" else "failed")
  | Fetch_add { addr; delta; old } -> Format.fprintf ppf "fadd   %#x +%d (was %d)" addr delta old
  | Malloc { base; words } -> Format.fprintf ppf "malloc %#x (%d words)" base words
  | Free { base; words } -> Format.fprintf ppf "free   %#x (%d words)" base words

let fault_label : Obs.Event.fault -> string = function
  | Stalled d -> Printf.sprintf "stalled %d cycles" d
  | Killed -> "killed"
  | Killed_at p -> "killed at " ^ p
  | Spurious_abort -> "spurious abort armed"

let path = Obs.Event.path_label

(* Abort lines carry the conflict witness when one was captured, so
   counterexample traces name the write that doomed each transaction:
   observed contexts journal their stores, which resolves the aggressor
   thread, clock and op. *)
let observe t ~tid ~clock (ev : Obs.Event.t) =
  let line kind fmt =
    Format.kasprintf (fun s -> note t (Printf.sprintf "t%-2d @%-9d %s  %s" tid clock kind s)) fmt
  in
  match ev with
  | Access acc -> line "mem" "%a" pp_access acc
  | Fault f -> line "flt" "%s" (fault_label f)
  | Commit { path = p; attempt; reads; writes; _ } ->
    line "htm" "commit[%s] (%d reads, %d writes, attempt %d)" (path p) reads writes attempt
  | Abort { path = p; attempt; reason; witness; _ } ->
    line "htm" "abort[%s]: %s (attempt %d)%s" (path p) (Obs.Event.reason_label reason)
      attempt
      (match witness with
       | None -> ""
       | Some w -> Format.asprintf " [%a]" Obs.Forensics.pp_witness w)
  | Fallback _ -> line "htm" "TLE lock fallback"
  (* a hardware-to-lock hop shows as the fallback line that follows it *)
  | Escalate { from_path = Hw; to_path = Tle; _ } -> ()
  | Escalate { to_path; attempt; _ } ->
    line "htm" "escalate to %s (attempt %d)" (path to_path) attempt
  | Steal { victim; _ } -> line "htm" "stm lock stolen from t%d" victim
  | Run _ | Miss _ | Label _ | Witness _ | Release _ -> ()

let lines t =
  let l = List.rev t.rev in
  if t.dropped = 0 then l
  else
    l
    @ [ Printf.sprintf "(... %d further events beyond the %d-line limit)" t.dropped t.limit ]
