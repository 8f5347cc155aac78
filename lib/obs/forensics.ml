type witness = Event.witness

let access_label (w : witness) = if w.w_victim_wrote then "W/W" else "R/W"

let pp_witness ppf (w : witness) =
  let agg =
    if w.w_aggressor < 0 then "?" else Printf.sprintf "t%d" w.w_aggressor
  in
  Format.fprintf ppf "t%d<-%s %s %#x (%s%s%s)" w.w_victim agg (access_label w)
    w.w_addr w.w_op
    (if w.w_read_set then " rs" else "")
    (if w.w_write_set then " ws" else "")

type hop = {
  hp_tid : int;
  hp_clock : int;
  hp_from : string;
  hp_to : string;
  hp_reason : string;
  hp_witness : witness option;
}

type edge = { mutable e_rw : int; mutable e_ww : int }

(* Everything observed about one cache line. Labels, coherence traffic,
   conflicts and allocation provenance share the record, so every view
   (the conflict ranking, the contention table) reads this one table. *)
type line = {
  mutable names : string list; (* region labels, deduplicated *)
  mutable transfers : int;
  mutable cycles : int;
  mutable wait : int;
  mutable max_sharers : int;
  mutable conflicts : int;
  mutable rw : int;
  mutable ww : int;
  (* allocation provenance of the line's resident object at the time of
     its most recent conflict, copied from the alloc fields at record
     time *)
  mutable prov : (int * int * int) option; (* tid, clock, alloc count *)
  mutable a_tid : int; (* last allocating thread *)
  mutable a_clock : int;
  mutable a_count : int; (* allocations into the line; 0 = never *)
}

(* 8-word lines: the geometry of every simulated heap. *)
let line_shift = 3

type t = {
  max_hops : int;
  mutable total : int;
  edges : (int * int, edge) Hashtbl.t; (* (victim, aggressor) *)
  lines : (int, line) Hashtbl.t;
  sites : (string, int ref) Hashtbl.t;
  victims : (int, int ref) Hashtbl.t;
  mutable rev_hops : hop list;
  mutable nhops : int; (* stored *)
  mutable hop_total : int; (* including those beyond max_hops *)
}

let create ?(max_hops = 256) () =
  {
    max_hops;
    total = 0;
    edges = Hashtbl.create 64;
    lines = Hashtbl.create 256;
    sites = Hashtbl.create 16;
    victims = Hashtbl.create 16;
    rev_hops = [];
    nhops = 0;
    hop_total = 0;
  }

let line_of t line =
  match Hashtbl.find_opt t.lines line with
  | Some l -> l
  | None ->
    let l =
      { names = []; transfers = 0; cycles = 0; wait = 0; max_sharers = 0;
        conflicts = 0; rw = 0; ww = 0; prov = None; a_tid = 0; a_clock = 0;
        a_count = 0 }
    in
    Hashtbl.add t.lines line l;
    l

(* Re-labelling a recycled block is O(lines covered) and idempotent, so
   allocation hot loops can label unconditionally. *)
let add_name l name = if not (List.mem name l.names) then l.names <- name :: l.names

let label t ~name ~base ~words =
  if words > 0 then
    for line = base lsr line_shift to (base + words - 1) lsr line_shift do
      add_name (line_of t line) name
    done

let note_alloc t ~base ~words ~tid ~clock =
  if words > 0 then
    for line = base lsr line_shift to (base + words - 1) lsr line_shift do
      let l = line_of t line in
      l.a_tid <- tid;
      l.a_clock <- clock;
      l.a_count <- l.a_count + 1
    done

let record_transfer t ~line ~wait ~cost ~sharers =
  let l = line_of t line in
  l.transfers <- l.transfers + 1;
  l.cycles <- l.cycles + cost;
  l.wait <- l.wait + wait;
  if sharers > l.max_sharers then l.max_sharers <- sharers

let bump tbl key =
  match Hashtbl.find_opt tbl key with
  | Some r -> incr r
  | None -> Hashtbl.add tbl key (ref 1)

let record t (w : witness) =
  t.total <- t.total + 1;
  let ekey = (w.w_victim, w.w_aggressor) in
  let e =
    match Hashtbl.find_opt t.edges ekey with
    | Some e -> e
    | None ->
      let e = { e_rw = 0; e_ww = 0 } in
      Hashtbl.add t.edges ekey e;
      e
  in
  if w.w_victim_wrote then e.e_ww <- e.e_ww + 1 else e.e_rw <- e.e_rw + 1;
  let l = line_of t w.w_line in
  l.conflicts <- l.conflicts + 1;
  if w.w_victim_wrote then l.ww <- l.ww + 1 else l.rw <- l.rw + 1;
  if l.a_count > 0 then l.prov <- Some (l.a_tid, l.a_clock, l.a_count);
  bump t.sites w.w_site;
  bump t.victims w.w_victim

let note_hop t ~tid ~clock ~from_path ~to_path ~reason witness =
  t.hop_total <- t.hop_total + 1;
  if t.nhops < t.max_hops then begin
    t.rev_hops <-
      {
        hp_tid = tid;
        hp_clock = clock;
        hp_from = from_path;
        hp_to = to_path;
        hp_reason = reason;
        hp_witness = witness;
      }
      :: t.rev_hops;
    t.nhops <- t.nhops + 1
  end

(* The simulator's one entry point: each fact updates the per-line
   table or the timelines; the rest of the stream is not the heap's
   business. *)
let observe t ~tid ~clock (ev : Event.t) =
  match ev with
  | Miss { line; wait; cost; sharers; _ } -> record_transfer t ~line ~wait ~cost ~sharers
  | Label { name; base; words } -> label t ~name ~base ~words
  | Access (Malloc { base; words }) -> note_alloc t ~base ~words ~tid ~clock
  | Witness w | Abort { witness = Some w; _ } -> record t w
  | Escalate { from_path; to_path; reason; witness; _ } ->
    note_hop t ~tid ~clock ~from_path:(Event.path_label from_path)
      ~to_path:(Event.path_label to_path) ~reason:(Event.reason_label reason) witness
  | Run _ | Fault _ | Access _ | Commit _ | Abort _ | Fallback _ | Release _ | Steal _ -> ()

let count t = t.total
let hop_count t = t.hop_total
let hops t = List.rev t.rev_hops

(* Multiple names on a line mean distinct regions shared it over its
   lifetime — rendered joined, a direct false-sharing indicator. *)
let region_of l =
  match l.names with
  | [] -> "?"
  | names -> String.concat " + " (List.sort String.compare names)

type edge_stat = { es_victim : int; es_aggressor : int; es_rw : int; es_ww : int }

let edges t =
  let all =
    Hashtbl.fold
      (fun (v, a) e acc ->
        { es_victim = v; es_aggressor = a; es_rw = e.e_rw; es_ww = e.e_ww } :: acc)
      t.edges []
  in
  List.sort
    (fun a b ->
      match Int.compare a.es_victim b.es_victim with
      | 0 -> Int.compare a.es_aggressor b.es_aggressor
      | c -> c)
    all

type line_stat = {
  fl_line : int;
  fl_addr : int;
  fl_region : string;
  fl_prov : (int * int * int) option; (* alloc tid, clock, count *)
  fl_conflicts : int;
  fl_rw : int;
  fl_ww : int;
  fl_transfers : int;
  fl_cycles : int;
  fl_wait : int;
  fl_max_sharers : int;
}

(* The lines where [key] is non-zero, ranked by it (descending; ties by
   line index ascending). *)
let ranked ?(top = max_int) key t =
  let stat line l =
    {
      fl_line = line;
      fl_addr = line lsl line_shift;
      fl_region = region_of l;
      fl_prov = l.prov;
      fl_conflicts = l.conflicts;
      fl_rw = l.rw;
      fl_ww = l.ww;
      fl_transfers = l.transfers;
      fl_cycles = l.cycles;
      fl_wait = l.wait;
      fl_max_sharers = l.max_sharers;
    }
  in
  Hashtbl.fold (fun line l acc -> stat line l :: acc) t.lines []
  |> List.filter (fun s -> key s > 0)
  |> List.sort (fun a b ->
         match Int.compare (key b) (key a) with
         | 0 -> Int.compare a.fl_line b.fl_line
         | c -> c)
  |> List.filteri (fun i _ -> i < top)

let lines ?top t = ranked ?top (fun s -> s.fl_conflicts) t
let transfer_lines ?top t = ranked ?top (fun s -> s.fl_transfers) t

(* Sum [(a, b)] per region over [rows], ranked by [a] descending (ties by
   name). *)
let rollup f rows =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun fl ->
      let a, b = f fl in
      match Hashtbl.find_opt tbl fl.fl_region with
      | Some (a0, b0) -> Hashtbl.replace tbl fl.fl_region (a0 + a, b0 + b)
      | None -> Hashtbl.add tbl fl.fl_region (a, b))
    rows;
  List.sort
    (fun (n1, a1, _) (n2, a2, _) ->
      match Int.compare a2 a1 with 0 -> String.compare n1 n2 | c -> c)
    (Hashtbl.fold (fun name (a, b) acc -> (name, a, b) :: acc) tbl [])

let regions t =
  List.map (fun (name, n, _) -> (name, n)) (rollup (fun fl -> (fl.fl_conflicts, 0)) (lines t))

let transfer_regions t = rollup (fun fl -> (fl.fl_transfers, fl.fl_cycles)) (transfer_lines t)

let total_transfers t = Hashtbl.fold (fun _ l acc -> acc + l.transfers) t.lines 0

let sorted_counts tbl =
  List.sort
    (fun (k1, c1) (k2, c2) ->
      match Int.compare c2 c1 with 0 -> String.compare k1 k2 | c -> c)
    (Hashtbl.fold (fun k r acc -> (k, !r) :: acc) tbl [])

let sites t = sorted_counts t.sites

let victims t =
  List.sort
    (fun (t1, _) (t2, _) -> Int.compare t1 t2)
    (Hashtbl.fold (fun k r acc -> (k, !r) :: acc) t.victims [])

(* Merge [src] into [dst]. Counts are commutative; provenance and alloc
   last-writer fields take [src]'s value when present (the absorber calls
   this in canonical cell order, so "later" is well defined). The stored
   hop timeline keeps [dst]'s bound. *)
let absorb dst src =
  dst.total <- dst.total + src.total;
  Hashtbl.iter
    (fun key e ->
      match Hashtbl.find_opt dst.edges key with
      | Some d ->
        d.e_rw <- d.e_rw + e.e_rw;
        d.e_ww <- d.e_ww + e.e_ww
      | None -> Hashtbl.add dst.edges key { e_rw = e.e_rw; e_ww = e.e_ww })
    src.edges;
  Hashtbl.iter
    (fun line l ->
      let d = line_of dst line in
      List.iter (add_name d) (List.rev l.names);
      d.transfers <- d.transfers + l.transfers;
      d.cycles <- d.cycles + l.cycles;
      d.wait <- d.wait + l.wait;
      d.max_sharers <- max d.max_sharers l.max_sharers;
      d.conflicts <- d.conflicts + l.conflicts;
      d.rw <- d.rw + l.rw;
      d.ww <- d.ww + l.ww;
      (match l.prov with Some _ as p -> d.prov <- p | None -> ());
      if l.a_count > 0 then begin
        d.a_tid <- l.a_tid;
        d.a_clock <- l.a_clock;
        d.a_count <- d.a_count + l.a_count
      end)
    src.lines;
  Hashtbl.iter (fun k r -> match Hashtbl.find_opt dst.sites k with
    | Some d -> d := !d + !r
    | None -> Hashtbl.add dst.sites k (ref !r))
    src.sites;
  Hashtbl.iter (fun k r -> match Hashtbl.find_opt dst.victims k with
    | Some d -> d := !d + !r
    | None -> Hashtbl.add dst.victims k (ref !r))
    src.victims;
  List.iter
    (fun hp ->
      note_hop dst ~tid:hp.hp_tid ~clock:hp.hp_clock ~from_path:hp.hp_from
        ~to_path:hp.hp_to ~reason:hp.hp_reason hp.hp_witness)
    (hops src);
  (* stored-hop bookkeeping above already counted them; fix the total to
     include src hops that had themselves overflowed its bound *)
  dst.hop_total <- dst.hop_total + (src.hop_total - src.nhops)

(* ------------------------------------------------------------------ *)
(* Rendering.                                                          *)

let prov_label = function
  | None -> "-"
  | Some (tid, clock, count) -> Printf.sprintf "t%d@%d (alloc %d)" tid clock count

let print ?(top = 12) ppf t =
  Format.fprintf ppf "witnesses: %d conflict(s), %d escalation hop(s)@." t.total
    t.hop_total;
  if t.total > 0 then begin
    Format.fprintf ppf "@.== conflict graph (victim <- aggressor) ==@.";
    Table.print_cols ppf
      [ "victim"; "aggressor"; "R/W"; "W/W"; "total" ]
      (List.map
         (fun e ->
           [
             Printf.sprintf "t%d" e.es_victim;
             (if e.es_aggressor < 0 then "?" else Printf.sprintf "t%d" e.es_aggressor);
             string_of_int e.es_rw;
             string_of_int e.es_ww;
             string_of_int (e.es_rw + e.es_ww);
           ])
         (edges t));
    Format.fprintf ppf "@.== hot lines (top %d by conflicts) ==@." top;
    Table.print_cols ppf
      [ "line"; "region"; "allocated by"; "conflicts"; "R/W"; "W/W" ]
      (List.map
         (fun fl ->
           [
             Printf.sprintf "%#x" fl.fl_addr;
             fl.fl_region;
             prov_label fl.fl_prov;
             string_of_int fl.fl_conflicts;
             string_of_int fl.fl_rw;
             string_of_int fl.fl_ww;
           ])
         (lines ~top t));
    Format.fprintf ppf "@.== abort attribution by site ==@.";
    Table.print_cols ppf [ "site"; "witnesses" ]
      (List.map (fun (s, n) -> [ s; string_of_int n ]) (sites t))
  end;
  if t.rev_hops <> [] then begin
    Format.fprintf ppf "@.== escalation timeline (first %d of %d hops) ==@." t.nhops
      t.hop_total;
    Table.print_cols ppf
      [ "thread"; "clock"; "hop"; "reason"; "witness" ]
      (List.map
         (fun hp ->
           [
             Printf.sprintf "t%d" hp.hp_tid;
             string_of_int hp.hp_clock;
             hp.hp_from ^ "->" ^ hp.hp_to;
             hp.hp_reason;
             (match hp.hp_witness with
              | None -> "-"
              | Some w -> Format.asprintf "%a" pp_witness w);
           ])
         (hops t))
  end

let print_transfers ?(top = 16) ppf t =
  Format.fprintf ppf "== cache-line contention (top %d by transfers) ==@." top;
  Table.print_cols ppf
    [ "line"; "region"; "transfers"; "cycles"; "wait"; "sharers" ]
    (List.map
       (fun fl ->
         [
           Printf.sprintf "0x%x" fl.fl_addr;
           fl.fl_region;
           string_of_int fl.fl_transfers;
           string_of_int fl.fl_cycles;
           string_of_int fl.fl_wait;
           string_of_int fl.fl_max_sharers;
         ])
       (transfer_lines ~top t));
  Format.fprintf ppf "@.== per-region coherence traffic ==@.";
  Table.print_cols ppf [ "region"; "transfers"; "cycles" ]
    (List.map
       (fun (name, tr, cy) -> [ name; string_of_int tr; string_of_int cy ])
       (transfer_regions t))

(* ------------------------------------------------------------------ *)
(* JSON.                                                               *)

let witness_json (w : witness) =
  Json.Obj
    [
      ("victim", Json.Int w.w_victim);
      ("aggressor", Json.Int w.w_aggressor);
      ("addr", Json.Int w.w_addr);
      ("line", Json.Int w.w_line);
      ("access", Json.Str (access_label w));
      ("read_set", Json.Bool w.w_read_set);
      ("write_set", Json.Bool w.w_write_set);
      ("op", Json.Str w.w_op);
      ("aggressor_clock", Json.Int w.w_aggressor_clock);
      ("clock", Json.Int w.w_clock);
      ("site", Json.Str w.w_site);
    ]

let to_json ?(top = 64) t =
  Json.Obj
    [
      ("schema", Json.Str "forensics/1");
      ("witnesses", Json.Int t.total);
      ( "edges",
        Json.List
          (List.map
             (fun e ->
               Json.Obj
                 [
                   ("victim", Json.Int e.es_victim);
                   ("aggressor", Json.Int e.es_aggressor);
                   ("rw", Json.Int e.es_rw);
                   ("ww", Json.Int e.es_ww);
                 ])
             (edges t)) );
      ( "lines",
        Json.List
          (List.map
             (fun fl ->
               Json.Obj
                 [
                   ("line", Json.Int fl.fl_line);
                   ("addr", Json.Int fl.fl_addr);
                   ("region", Json.Str fl.fl_region);
                   ( "alloc",
                     match fl.fl_prov with
                     | None -> Json.Null
                     | Some (tid, clock, count) ->
                       Json.Obj
                         [
                           ("tid", Json.Int tid);
                           ("clock", Json.Int clock);
                           ("count", Json.Int count);
                         ] );
                   ("conflicts", Json.Int fl.fl_conflicts);
                   ("rw", Json.Int fl.fl_rw);
                   ("ww", Json.Int fl.fl_ww);
                 ])
             (lines ~top t)) );
      ( "regions",
        Json.List
          (List.map
             (fun (name, n) ->
               Json.Obj [ ("region", Json.Str name); ("conflicts", Json.Int n) ])
             (regions t)) );
      ( "sites",
        Json.List
          (List.map
             (fun (s, n) -> Json.Obj [ ("site", Json.Str s); ("count", Json.Int n) ])
             (sites t)) );
      ( "victims",
        Json.List
          (List.map
             (fun (tid, n) -> Json.Obj [ ("tid", Json.Int tid); ("aborts", Json.Int n) ])
             (victims t)) );
      ( "hops",
        Json.Obj
          [
            ("total", Json.Int t.hop_total);
            ("recorded", Json.Int t.nhops);
            ( "timeline",
              Json.List
                (List.map
                   (fun hp ->
                     Json.Obj
                       [
                         ("tid", Json.Int hp.hp_tid);
                         ("clock", Json.Int hp.hp_clock);
                         ("from", Json.Str hp.hp_from);
                         ("to", Json.Str hp.hp_to);
                         ("reason", Json.Str hp.hp_reason);
                         ( "witness",
                           match hp.hp_witness with
                           | None -> Json.Null
                           | Some w -> witness_json w );
                       ])
                   (hops t)) );
          ] );
    ]
