(* Tests of the §2.3 checker and, through it, of every algorithm.

   - The checker itself: scripted logs, built by driving its wrappers with
     a fake instance, that each condition must reject, one it must
     accept, and a property that its verdicts equal those of the original
     list-based checker kept below as the reference.
   - The algorithms: randomized workloads over every algorithm, with every
     collect checked offline against the specification's validity and
     completeness conditions, plus leak accounting. *)

(* ---- A scripted fake instance ------------------------------------------

   The wrappers only pass their arguments through, so an instance that
   does what a script says drives them exactly. Each operation takes the
   behaviour set for it: it first installs its value (a register or update
   binds, a deregister unbinds), then runs [inner] — the operations nested
   inside its interval, which is how scripts overlap operations — and then
   raises [Crash] or, for a collect, answers. *)

exception Crash

type behaviour = { crash : bool; inner : unit -> unit; answer : int list -> int list }

let plain = { crash = false; inner = ignore; answer = Fun.id }

type fake = {
  inst : Collect.Intf.instance;
  mutable next : behaviour; (* for the next operation *)
  cur : (int, int) Hashtbl.t; (* handle -> value, while bound *)
  mutable issued : int list; (* every value passed in, newest first *)
}

let fake () =
  let handles = ref 0 in
  let rec f =
    {
      inst =
        {
          Collect.Intf.name = "fake";
          register =
            (fun _ v ->
              incr handles;
              let h = !handles in
              bind h v;
              act () |> ignore;
              h);
          update = (fun _ h v -> bind h v; act () |> ignore);
          deregister = (fun _ h -> Hashtbl.remove f.cur h; act () |> ignore);
          collect =
            (fun _ buf ->
              let b = act () in
              let bound = List.sort compare (Hashtbl.fold (fun _ v l -> v :: l) f.cur []) in
              List.iter (Sim.Ibuf.add buf) (b.answer bound));
          destroy = ignore;
          step_histogram = (fun () -> []);
        };
      next = plain;
      cur = Hashtbl.create 8;
      issued = [];
    }
  and bind h v =
    Hashtbl.replace f.cur h v;
    f.issued <- v :: f.issued
  and act () =
    let b = f.next in
    f.next <- plain;
    b.inner ();
    if b.crash then raise Crash;
    b
  in
  f

let ctx = Sim.boot ()

(* ---- Rejections ---------------------------------------------------------

   Values are issued 1, 2, 3, ... in wrapper-call order. *)

let expect_violation ~because log =
  match Collect_spec.check log with
  | _ -> Alcotest.failf "accepted a log that must be rejected (%s)" because
  | exception Collect_spec.Violation msg ->
    if not (Astring.String.is_infix ~affix:because msg) then
      Alcotest.failf "rejected for the wrong reason: %s (expected %S)" msg because

let answering f values = f.next <- { plain with answer = (fun _ -> values) }

let collect_answering log f values =
  answering f values;
  Collect_spec.collect log f.inst ctx

let crashing f = f.next <- { plain with crash = true }

let test_unknown_value () =
  let f = fake () and log = Collect_spec.create () in
  let (_ : int) = Collect_spec.register log f.inst ctx in
  collect_answering log f [ 1; 1000 ];
  expect_violation ~because:"unknown value 1000" log

let test_bound_after_collect () =
  let f = fake () and log = Collect_spec.create () in
  let h = Collect_spec.register log f.inst ctx in
  (* value 2 is bound only after the collect has returned it *)
  collect_answering log f [ 1; 2 ];
  Collect_spec.update log f.inst ctx h;
  expect_violation ~because:"value 2 bound at" log

let test_superseded () =
  let f = fake () and log = Collect_spec.create () in
  let h = Collect_spec.register log f.inst ctx in
  Collect_spec.update log f.inst ctx h;
  collect_answering log f [ 1 ];
  expect_violation ~because:"value 1 superseded" log

let test_missing () =
  let f = fake () and log = Collect_spec.create () in
  let (_ : int) = Collect_spec.register log f.inst ctx in
  collect_answering log f [];
  expect_violation ~because:"handle 0 (registered at [1,2]) missing" log

let crash_through f thunk =
  crashing f;
  match thunk () with () -> Alcotest.fail "the scripted crash did not raise" | exception Crash -> ()

(* A kill-interrupted bind is allowed by every later collect and required
   by none; a crashed collect's answer is discarded unchecked. *)
let test_crashes_accepted () =
  let f = fake () and log = Collect_spec.create () in
  crash_through f (fun () -> ignore (Collect_spec.register log f.inst ctx));
  let h = Collect_spec.register log f.inst ctx in
  crash_through f (fun () -> Collect_spec.update log f.inst ctx h);
  collect_answering log f [ 1; 2 ];
  collect_answering log f [ 3 ];
  f.next <- { plain with crash = true; answer = (fun _ -> [ 1000 ]) };
  (match Collect_spec.collect log f.inst ctx with
  | () -> Alcotest.fail "the scripted crash did not raise"
  | exception Crash -> ());
  match Collect_spec.check log with
  | v ->
    Alcotest.(check (pair int int))
      "collects, values" (2, 3)
      (v.checked_collects, v.checked_values)
  | exception Collect_spec.Violation msg -> Alcotest.failf "rejected: %s" msg


(* ---- The reference: the original list-based checker -------------------

   Each handle keeps its whole bind list; [check] finds a returned value's
   bind by scanning that list and a handle's registration with [List.nth].
   Kept as it was, comments aside, except that it shares
   [Collect_spec]'s verdict and exception so the two can be compared. *)

module Reference = struct
  type bind = { b_start : int; b_end : int; value : int }

  type instance_log = {
    id : int;
    mutable binds : bind list; (* newest first *)
    mutable dereg : (int * int) option;
  }

  type collect_log = { c_start : int; c_end : int; returned : int list }

  type t = {
    mutable next_value : int;
    values : (int, instance_log) Hashtbl.t;
    current : (int, instance_log) Hashtbl.t;
    mutable instances : instance_log list;
    mutable collects : collect_log list;
    mutable next_id : int;
    mutable now : int;
  }

  let create () =
    {
      next_value = 0;
      values = Hashtbl.create 64;
      current = Hashtbl.create 64;
      instances = [];
      collects = [];
      next_id = 0;
      now = 0;
    }

  let fresh_value t =
    t.next_value <- t.next_value + 1;
    t.next_value

  let stamp t =
    t.now <- t.now + 1;
    t.now

  let register t (inst : Collect.Intf.instance) ctx =
    let v = fresh_value t in
    let s = stamp t in
    match inst.register ctx v with
    | h ->
      let e = stamp t in
      let il = { id = t.next_id; binds = [ { b_start = s; b_end = e; value = v } ]; dereg = None } in
      t.next_id <- t.next_id + 1;
      t.instances <- il :: t.instances;
      Hashtbl.replace t.values v il;
      Hashtbl.replace t.current h il;
      h
    | exception ex ->
      let il =
        { id = t.next_id; binds = [ { b_start = s; b_end = max_int; value = v } ]; dereg = None }
      in
      t.next_id <- t.next_id + 1;
      t.instances <- il :: t.instances;
      Hashtbl.replace t.values v il;
      raise ex

  let update t (inst : Collect.Intf.instance) ctx h =
    let il = Hashtbl.find t.current h in
    let v = fresh_value t in
    let s = stamp t in
    match inst.update ctx h v with
    | () ->
      let e = stamp t in
      il.binds <- { b_start = s; b_end = e; value = v } :: il.binds;
      Hashtbl.replace t.values v il
    | exception ex ->
      il.binds <- { b_start = s; b_end = max_int; value = v } :: il.binds;
      Hashtbl.replace t.values v il;
      raise ex

  let deregister t (inst : Collect.Intf.instance) ctx h =
    let il = Hashtbl.find t.current h in
    Hashtbl.remove t.current h;
    let s = stamp t in
    match inst.deregister ctx h with
    | () ->
      let e = stamp t in
      il.dereg <- Some (s, e)
    | exception ex ->
      il.dereg <- Some (s, max_int);
      raise ex

  let collect t (inst : Collect.Intf.instance) ctx =
    let buf = Sim.Ibuf.create ~capacity:64 () in
    let s = stamp t in
    inst.collect ctx buf;
    let e = stamp t in
    t.collects <- { c_start = s; c_end = e; returned = Sim.Ibuf.to_list buf } :: t.collects

  let next_event_end il =
    let tbl = Hashtbl.create 8 in
    let dereg_end = match il.dereg with Some (_, e) -> e | None -> max_int in
    let rec go newer = function
      | [] -> ()
      | b :: older ->
        Hashtbl.replace tbl b.value newer;
        go b.b_end older
    in
    go dereg_end il.binds;
    tbl

  let check t : Collect_spec.verdict =
    let violation msg = raise (Collect_spec.Violation msg) in
    let next_end = Hashtbl.create 64 in
    List.iter
      (fun il ->
        let tbl = next_event_end il in
        Hashtbl.iter (fun v e -> Hashtbl.replace next_end v e) tbl)
      t.instances;
    let nvalues = ref 0 in
    let collects = List.rev t.collects in
    List.iter
      (fun c ->
        List.iter
          (fun v ->
            incr nvalues;
            match Hashtbl.find_opt t.values v with
            | None -> violation (Printf.sprintf "collect returned unknown value %d" v)
            | Some il ->
              let b = List.find (fun b -> b.value = v) il.binds in
              if b.b_start > c.c_end then
                violation
                  (Printf.sprintf "value %d bound at [%d,%d], after collect [%d,%d] ended" v
                     b.b_start b.b_end c.c_start c.c_end);
              let ne = Hashtbl.find next_end v in
              if ne < c.c_start then
                violation
                  (Printf.sprintf "value %d superseded at %d, before collect [%d,%d] began" v
                     ne c.c_start c.c_end))
          c.returned;
        let present = Hashtbl.create 64 in
        List.iter
          (fun v ->
            match Hashtbl.find_opt t.values v with
            | Some il -> Hashtbl.replace present il.id ()
            | None -> ())
          c.returned;
        List.iter
          (fun il ->
            let reg = List.nth il.binds (List.length il.binds - 1) in
            let required =
              reg.b_end < c.c_start
              && match il.dereg with None -> true | Some (ds, _) -> ds > c.c_end
            in
            if required && not (Hashtbl.mem present il.id) then
              violation
                (Printf.sprintf "handle %d (registered at [%d,%d]) missing from collect [%d,%d]"
                   il.id reg.b_start reg.b_end c.c_start c.c_end))
          t.instances)
      collects;
    { checked_collects = List.length collects; checked_values = !nvalues }
end

(* ---- Equivalence with the reference --------------------------------- *)

module type CHECKER = sig
  type t

  val create : unit -> t
  val register : t -> Collect.Intf.instance -> Sim.tctx -> Collect.Intf.handle
  val update : t -> Collect.Intf.instance -> Sim.tctx -> Collect.Intf.handle -> unit
  val deregister : t -> Collect.Intf.instance -> Sim.tctx -> Collect.Intf.handle -> unit
  val collect : t -> Collect.Intf.instance -> Sim.tctx -> unit
  val check : t -> Collect_spec.verdict
end

(* A collect answers the values bound at its answer point — a correct
   answer — or that answer with one value dropped, or with one extra
   value: an issued one ([k >= 0], k-th newest, possibly superseded), the
   next value to be issued ([-1]) or one never issued ([-2]). *)
type answer = Bound | Drop of int | Extra of int

type kind = Register | Update of int | Deregister of int | Collect of answer

(* An operation; [Update i]/[Deregister i] act on the i-th idle handle, if
   any. [inner] runs inside the operation's interval. *)
type op = { kind : kind; crash : bool; inner : op list }

let rec pp_op ppf { kind; crash; inner } =
  let k =
    match kind with
    | Register -> "reg"
    | Update i -> Printf.sprintf "upd%d" i
    | Deregister i -> Printf.sprintf "dereg%d" i
    | Collect Bound -> "coll"
    | Collect (Drop i) -> Printf.sprintf "coll-drop%d" i
    | Collect (Extra k) -> Printf.sprintf "coll+%d" k
  in
  Format.fprintf ppf "%s%s" k (if crash then "!" else "");
  if inner <> [] then Format.fprintf ppf "{%a}" pp_script inner

and pp_script ppf ops =
  Format.pp_print_list ~pp_sep:(fun ppf () -> Format.pp_print_char ppf ' ') pp_op ppf ops

let gen_script =
  let open QCheck.Gen in
  let kind =
    frequency
      [
        (3, return Register);
        (4, map (fun i -> Update i) small_nat);
        (2, map (fun i -> Deregister i) small_nat);
        (3, return (Collect Bound));
        (1, map (fun i -> Collect (Drop i)) small_nat);
        (1, map (fun k -> Collect (Extra k)) (int_range (-2) 8));
      ]
  in
  let op =
    fix (fun self depth ->
        let* kind = kind in
        let* crash = frequencyl [ (6, false); (1, true) ] in
        let* inner = if depth = 0 then return [] else list_size (int_bound 2) (self (depth - 1)) in
        return { kind; crash; inner })
  in
  list_size (int_range 1 24) (op 2)

let arbitrary_script =
  QCheck.make ~print:(Format.asprintf "%a" pp_script) gen_script

let run_script (module C : CHECKER) script =
  let f = fake () and log = C.create () in
  let idle = ref [] (* registered handles no operation is using *) in
  let take i =
    match !idle with
    | [] -> None
    | l ->
      let h = List.nth l (i mod List.length l) in
      idle := List.filter (( <> ) h) l;
      Some h
  in
  let rec exec { kind; crash; inner } =
    let set answer = f.next <- { crash; inner = (fun () -> List.iter exec inner); answer } in
    let crashes thunk = try thunk () with Crash -> () in
    match kind with
    | Register ->
      set Fun.id;
      crashes (fun () ->
          let h = C.register log f.inst ctx in
          idle := h :: !idle)
    | Update i -> (
      match take i with
      | None -> ()
      | Some h ->
        set Fun.id;
        (* a crashed updater's thread is dead: its handle stays taken *)
        crashes (fun () ->
            C.update log f.inst ctx h;
            idle := h :: !idle))
    | Deregister i -> (
      match take i with
      | None -> ()
      | Some h ->
        set Fun.id;
        crashes (fun () -> C.deregister log f.inst ctx h))
    | Collect a ->
      set (fun bound ->
          match a with
          | Bound -> bound
          | Drop i -> List.filteri (fun j _ -> j <> i mod max 1 (List.length bound)) bound
          | Extra k when k >= 0 && f.issued <> [] ->
            List.nth f.issued (k mod List.length f.issued) :: bound
          | Extra -1 -> (1 + List.fold_left max 0 f.issued) :: bound
          | Extra _ -> 1_000_000 :: bound);
      crashes (fun () -> C.collect log f.inst ctx)
  in
  List.iter exec script;
  match C.check log with
  | v -> Ok (v.checked_collects, v.checked_values)
  | exception Collect_spec.Violation msg -> Error msg

let prop_equivalent =
  QCheck.Test.make ~name:"same verdict as the list-based checker" ~count:2000
    arbitrary_script (fun script ->
      run_script (module Collect_spec) script = run_script (module Reference) script)

let run_cfg name (cfg : Chaos.config) () =
  List.iter
    (fun (mk : Collect.Intf.maker) ->
      match Chaos.run mk cfg with
      | verdict, leaked ->
        if verdict.checked_collects = 0 then
          Alcotest.failf "%s/%s: workload produced no collects" name mk.algo_name;
        Alcotest.(check int) (Printf.sprintf "%s/%s: leaks" name mk.algo_name) 0 leaked
      | exception Collect_spec.Violation msg ->
        Alcotest.failf "%s/%s: specification violated: %s" name mk.algo_name msg)
    Collect.all_with_extensions

let cfgs =
  let open Chaos in
  [
    ("balanced s1", { default with seed = 101 });
    ("balanced s2", { default with seed = 202; threads = 8; budget = 64 });
    ("balanced small steps", { default with seed = 303; step = Collect.Intf.Fixed 2 });
    ("balanced adaptive", { default with seed = 404; step = Collect.Intf.Adaptive });
    ( "churn s1",
      { default with seed = 505; mix = churn; budget = 32; threads = 8; min_size = 1 } );
    ( "churn s2",
      { default with seed = 606; mix = churn; budget = 24; threads = 5; min_size = 2 } );
    ( "churn big steps",
      { default with seed = 707; mix = churn; step = Collect.Intf.Fixed 32; min_size = 1 } );
    ("collect-heavy s1", { default with seed = 808; mix = collect_heavy; threads = 4 });
    ( "collect-heavy s2",
      { default with seed = 909; mix = collect_heavy; threads = 10; budget = 60 } );
    (* §6 HTM variations: correctness must survive a TLE fallback path and
       a small store buffer (more overflow aborts and lock serialization). *)
    ( "tle fallback",
      { default with
        seed = 1001;
        mix = churn;
        htm = { Htm.default_config with tle = Htm.Tle_after 2 } } );
    ( "small store buffer",
      { default with
        seed = 1102;
        step = Collect.Intf.Adaptive;
        htm = { Htm.default_config with store_buffer = 8 } } );
    ( "tle + tiny buffer",
      { default with
        seed = 1203;
        threads = 8;
        htm = { Htm.default_config with store_buffer = 8; tle = Htm.Tle_after 3 } } );
  ]

(* Broad seed sweep: the same three mixes over many independent seeds. *)
let sweep_cfgs =
  List.concat_map
    (fun seed ->
      let open Chaos in
      [
        (Printf.sprintf "sweep balanced %d" seed, { default with seed });
        ( Printf.sprintf "sweep churn %d" seed,
          { default with seed = seed + 1; mix = churn; budget = 32; min_size = 2 } );
        ( Printf.sprintf "sweep heavy %d" seed,
          { default with seed = seed + 2; mix = collect_heavy; threads = 8 } );
      ])
    [ 3001; 3101; 3201; 3301 ]

let () =
  Alcotest.run "collect-spec"
    [
      ( "checker",
        [
          Alcotest.test_case "rejects an unknown value" `Quick test_unknown_value;
          Alcotest.test_case "rejects a bind after the collect ended" `Quick
            test_bound_after_collect;
          Alcotest.test_case "rejects a value superseded before the collect" `Quick
            test_superseded;
          Alcotest.test_case "rejects a missing required handle" `Quick test_missing;
          Alcotest.test_case "allows crashed binds, requires none" `Quick
            test_crashes_accepted;
          QCheck_alcotest.to_alcotest prop_equivalent;
        ] );
      ( "chaos",
        List.map (fun (name, cfg) -> Alcotest.test_case name `Quick (run_cfg name cfg)) cfgs );
      ( "seed-sweep",
        List.map
          (fun (name, cfg) -> Alcotest.test_case name `Slow (run_cfg name cfg))
          sweep_cfgs );
    ]
