(* Unit-cost probes: each calls one layer's public functions directly and
   reports host CPU time per event. [Simmem], [Htm] and [Stm] calls run on
   a boot context, which never yields, so no scheduler cost is mixed in;
   the switch probe is the scheduler alone. Each probe runs once untimed
   to warm host caches and the GC heap, then reports the median of
   [reps] timed runs. *)

open Stats

let reps = 5

let median_of f =
  ignore (f ());
  median (Array.init reps (fun _ -> f ()))

let per_event t0 n = float_of_int (cpu_ns () - t0) /. float_of_int n

(* A [Sim.tick] ping-pong: [threads] fibers ticking 100-163 cycles at a
   time (jittered like [Driver.tick_dispatch], so clock ties are as rare
   as in the workloads); host ns per context switch, pick included. *)
let switch_ns ~threads ~switches =
  let iters = max 1 (switches / threads) in
  let body ctx =
    let rng = Sim.rng ctx in
    for _ = 1 to iters do
      Sim.tick ctx (100 + Sim.Rng.int rng 64)
    done
  in
  median_of (fun () ->
      let y0 = !Sim.yield_count in
      let t0 = cpu_ns () in
      Sim.run ~seed:1 (Array.make threads body);
      per_event t0 (max 1 (!Sim.yield_count - y0)))

(* One read or write of a line the boot context already holds. *)
let access_ns ~n =
  let mem = Simmem.create () in
  let boot = Sim.boot () in
  let base = Simmem.malloc mem boot 64 in
  median_of (fun () ->
      let t0 = cpu_ns () in
      for i = 0 to (n / 2) - 1 do
        let a = base + (i land 63) in
        Simmem.write mem boot a (Simmem.read mem boot a + 1)
      done;
      per_event t0 n)

(* One malloc of four words and its free. *)
let malloc_free_ns ~n =
  let mem = Simmem.create () in
  let boot = Sim.boot () in
  median_of (fun () ->
      let t0 = cpu_ns () in
      for _ = 1 to n do
        Simmem.free mem boot (Simmem.malloc mem boot 4)
      done;
      per_event t0 n)

(* [Simmem.create] of a heap of [words], sized for [threads]. *)
let create_ms ?threads ~words () =
  median_of (fun () ->
      let t0 = cpu_ns () in
      ignore (Sys.opaque_identity (Simmem.create ?threads ~initial_words:words ()));
      float_of_int (cpu_ns () - t0) *. 1e-6)

(* One transaction that increments [words] consecutive words, under
   [config] ([Stm_after 0] runs it on the TL2 path), net of its memory
   accesses: the probe's [Simmem.stats] delta times [access_ns] is
   subtracted, because the budget already charges those accesses to
   [simmem]. *)
let tx_ns ~config ~words ~access_ns ~n =
  let mem = Simmem.create () in
  let htm = Htm.create ~config mem in
  let boot = Sim.boot () in
  let a = Simmem.malloc mem boot words in
  let accesses () =
    let s = Simmem.stats mem in
    s.reads + s.writes + s.atomics
  in
  let a0 = accesses () in
  let per_tx =
    median_of (fun () ->
        let t0 = cpu_ns () in
        for _ = 1 to n do
          Htm.atomic htm boot (fun tx ->
              for j = 0 to words - 1 do
                Htm.write tx (a + j) (Htm.read tx (a + j) + 1)
              done)
        done;
        per_event t0 n)
  in
  let accesses_per_tx = float_of_int (accesses () - a0) /. float_of_int ((reps + 1) * n) in
  per_tx -. (accesses_per_tx *. access_ns)

(* Hardware transactions in the workloads touch a few words (queues) to a
   telescoping step's worth (collects): eight is between. The only
   software transactions are the 48-store blocks of [tx-long]. *)
let htm_tx_ns ~access_ns ~n = tx_ns ~config:Htm.default_config ~words:8 ~access_ns ~n

let stm_tx_ns ~access_ns ~n =
  tx_ns ~config:{ Htm.default_config with stm = Htm.Stm_after 0 } ~words:48 ~access_ns ~n
