(** The scaling study: fig1/fig3-shaped workloads at 16–256 simulated
    threads.

    The paper stops at 16 threads because Rock did. The flat simulator
    core removes that practical ceiling, so this experiment re-asks the
    paper's two headline questions at modern core counts: does the
    Michael-Scott curve still flatten against the HTM queue (fig 1), and
    do HoHRC's collapse and SearchNo's overtaking survive (fig 3)?

    Machines here are built with [~threads], so the heap sizes its sharer
    sets and per-thread tables for the wide run. The heap grows on demand
    like every other machine's: growth is host bookkeeping, invisible in
    virtual time, so no pre-sizing is needed. The workload loops
    themselves are deliberately the same code shape as {!Queue_bench} and
    {!Collect_dominated}; only the population scales with the thread
    count. *)

type result = { subject : string; threads : int; throughput : float }

(* Queue cells: the fig1 loop (coin-flip enqueue/dequeue, prefilled) at
   scale. Prefill grows with the thread count so the queue does not drain
   to the empty-queue fast path at 256 threads. *)
let queue_one (maker : Hqueue.Intf.maker) ~threads ~duration ~seed =
  let m =
    Driver.machine ~seed
      ~label:(Printf.sprintf "scale/%s x%d" maker.queue_name threads)
      ~threads ()
  in
  let q = maker.make m.htm m.boot ~num_threads:threads in
  for _ = 1 to 4 * threads do
    q.enqueue m.boot (Driver.fresh_value ())
  done;
  let deadline = Driver.warmup + duration in
  let ops = Array.make threads 0 in
  let bodies =
    Array.init threads (fun i ->
        fun ctx ->
          ops.(i) <-
            Driver.measured_loop ctx ~deadline (fun () ->
                if Sim.Rng.bool (Sim.rng ctx) then q.enqueue ctx (Driver.fresh_value ())
                else ignore (q.dequeue_drop ctx)))
  in
  Sim.run ~seed bodies;
  q.destroy m.boot;
  let total = Array.fold_left ( + ) 0 ops in
  { subject = maker.queue_name; threads;
    throughput = Driver.ops_per_us ~ops:total ~duration }

(* Collect cells: the fig3 mix (collect 90 %, update 8 %, register 1 %,
   deregister 1 %) with the slot population scaled to the thread count —
   four slots of budget per thread, half registered before measurement —
   so a 256-thread collect really traverses a 256-thread-sized structure
   instead of fig3's fixed 64 slots. *)
let collect_one (maker : Collect.Intf.maker) ~threads ~duration ~seed =
  let m =
    Driver.machine ~seed
      ~label:(Printf.sprintf "scale/%s x%d" maker.algo_name threads)
      ~threads ()
  in
  let per_thread = 4 in
  let cfg =
    { Collect.Intf.max_slots = per_thread * threads; num_threads = threads;
      step = Collect.Intf.Fixed 32; min_size = 4 }
  in
  let inst = maker.make m.htm m.boot cfg in
  let deadline = Driver.warmup + duration in
  let ops = Array.make threads 0 in
  let bodies =
    Array.init threads (fun i ->
        fun ctx ->
          let slots = Queue.create () in
          for _ = 1 to per_thread / 2 do
            Queue.add (inst.register ctx (Driver.fresh_value ())) slots
          done;
          let buf = Sim.Ibuf.create ~capacity:(per_thread * threads) () in
          let rng = Sim.rng ctx in
          Sim.advance_to ctx Driver.warmup;
          while Sim.clock ctx < deadline do
            let dice = Sim.Rng.int rng 100 in
            let performed =
              if dice < 90 then begin
                Driver.tick_dispatch ctx;
                Sim.Ibuf.clear buf;
                inst.collect ctx buf;
                true
              end
              else if dice < 98 then begin
                if Queue.is_empty slots then false
                else begin
                  Driver.tick_dispatch ctx;
                  let h = Queue.pop slots in
                  inst.update ctx h (Driver.fresh_value ());
                  Queue.add h slots;
                  true
                end
              end
              else if dice < 99 then begin
                if Queue.length slots >= per_thread then false
                else begin
                  Driver.tick_dispatch ctx;
                  Queue.add (inst.register ctx (Driver.fresh_value ())) slots;
                  true
                end
              end
              else if Queue.is_empty slots then false
              else begin
                Driver.tick_dispatch ctx;
                inst.deregister ctx (Queue.pop slots);
                true
              end
            in
            if performed then ops.(i) <- ops.(i) + 1 else Sim.tick ctx 20
          done;
          Queue.iter (fun h -> inst.deregister ctx h) slots)
  in
  Sim.run ~seed bodies;
  inst.destroy m.boot;
  let total = Array.fold_left ( + ) 0 ops in
  { subject = maker.algo_name; threads;
    throughput = Driver.ops_per_us ~ops:total ~duration }

let default_threads = [ 16; 64; 128; 256 ]
let queue_names = [ "HTM"; "MichaelScott"; "MichaelScott+ROP" ]

(* The three fig3 algorithms behind the headline shapes: the collapsing
   baseline, the overtaken linear-scan, and the overtaking winner. *)
let collect_names = [ "ListHoHRC"; "ArrayStatSearchNo"; "ArrayDynAppendDereg" ]

(* One cell per (thread count x subject): all queue cells first, then all
   collect cells, each block in canonical sweep order. *)
let cells ?(threads = default_threads) ?(duration = 200_000) ?(seed = 9) () =
  List.concat_map
    (fun n ->
      List.map
        (fun name ->
          let mk = Option.get (Hqueue.find_maker name) in
          Runner.Cell.v ~label:(Printf.sprintf "scale/queue/%s/x%d" name n) (fun () ->
              queue_one mk ~threads:n ~duration ~seed))
        queue_names)
    threads
  @ List.concat_map
      (fun n ->
        List.map
          (fun name ->
            let mk = Option.get (Collect.find_maker name) in
            Runner.Cell.v ~label:(Printf.sprintf "scale/collect/%s/x%d" name n)
              (fun () -> collect_one mk ~threads:n ~duration ~seed))
          collect_names)
      threads

let table ~title ~columns results =
  let threads = List.sort_uniq Int.compare (List.map (fun r -> r.threads) results) in
  let rows =
    List.map
      (fun n ->
        ( string_of_int n,
          List.map
            (fun s ->
              List.find_opt (fun r -> r.threads = n && String.equal r.subject s) results
              |> Option.map (fun r -> r.throughput))
            columns ))
      threads
  in
  { Report.title; xlabel = "threads"; unit = "ops/us"; columns; rows }

let to_tables results =
  let qs, cs =
    List.partition (fun r -> List.mem r.subject queue_names) results
  in
  [
    table ~title:"Scale: queue throughput, 16-256 threads (fig 1 shape)"
      ~columns:queue_names qs;
    table ~title:"Scale: collect-dominated mix, 16-256 threads (fig 3 shape)"
      ~columns:collect_names cs;
  ]
