(* The shard runner: what one worker process does with one Assign.

   A shard is the task range [lo, hi) of the flattened grid.  Trials
   run strictly in task order on the same Rng.split_at streams an
   in-process run would use; every ckpt_every trials the accumulated
   outcomes are checkpointed atomically, so at any instant the on-disk
   state is a consistent prefix of the shard.  Resuming loads the
   prefix and continues from c_next — a SIGKILL mid-trial costs at
   most ckpt_every - 1 trials of redone work and zero bytes of output
   difference.

   Fault injection is deterministic: whether the worker kills itself
   after writing the checkpoint at position `next` is a pure function
   of (seed, shard, next), so each kill point fires at most once per
   run history (the next incarnation starts beyond it) — a fault-rate
   run always terminates, and a given seed always exercises the same
   crash schedule. *)

module Rng = Sf_prng.Rng
module S = Sf_core.Searchability
module Registry = Sf_obs.Registry
module Trace = Sf_obs.Trace

let c_shards_run = Registry.counter "fabric.shards_run"
let c_ckpt_writes = Registry.counter "fabric.ckpt_writes"
let h_ckpt_write = Registry.histo "fabric.ckpt_write_us"

(* --- telemetry relay ------------------------------------------------ *)

(* When an Assign asks for tracing (Relay.assign_wants_trace), the
   worker buffers its own fabric.* trace events in a process-global
   sink and ships them — together with the counter deltas the
   checkpoint just persisted — as a Relay batch after every checkpoint
   write.  Only fabric.*-named events are kept: a trial emits
   search.trial spans and per-request oracle instants by the thousand,
   and relaying those over the control socket would swamp it; the
   per-shard story (trial spans, checkpoint instants) is what the
   merged fleet timeline wants.  The buffer is bounded as a backstop —
   it drains every ckpt_every trials, so the cap is never the limit in
   a healthy run. *)

let relay_max_events = 4096
let relay_buf : Trace.event list ref = ref [] (* newest first *)
let relay_buf_len = ref 0
let relay_attached = ref false

let relay_keep name =
  String.length name >= 7 && String.sub name 0 7 = "fabric."

let ensure_relay_sink () =
  if not !relay_attached then begin
    relay_attached := true;
    ignore
      (Trace.attach
         {
           Trace.descr = "fabric telemetry relay";
           emit =
             (fun e ->
               if relay_keep e.Trace.name && !relay_buf_len < relay_max_events
               then begin
                 relay_buf := e :: !relay_buf;
                 incr relay_buf_len
               end);
           close = (fun () -> ());
         })
  end

let relay_drain () =
  let evs = List.rev !relay_buf in
  relay_buf := [];
  relay_buf_len := 0;
  evs

let fault_fires ~seed ~shard ~next rate =
  rate > 0.
  &&
  let r = Rng.split_at (Rng.split_at (Rng.of_seed (seed lxor 0x5FAB12)) (shard + 1)) (next + 1) in
  Rng.unit_float r < rate

let run_shard ~dir ~grid_crc (plan : Grid.plan) ~shard ?(fault_rate = 0.) ?(ckpt_every = 16)
    ?(progress = fun (_ : int) -> ()) ?(after_ckpt = fun ~next:_ -> ()) () =
  if ckpt_every < 1 then invalid_arg "Worker.run_shard: ckpt_every must be >= 1";
  if shard < 0 || shard >= Array.length plan.Grid.p_shards then
    invalid_arg (Printf.sprintf "Worker.run_shard: no shard %d in the plan" shard);
  let spec = plan.Grid.p_spec in
  let lo, hi = plan.Grid.p_shards.(shard) in
  let path = Grid.shard_path dir shard in
  let token = Grid.rng_token spec in
  let existing = Ckpt.load_opt ~path in
  (match existing with
  | Some c ->
    if
      c.Ckpt.c_grid_crc <> grid_crc || c.Ckpt.c_shard <> shard || c.Ckpt.c_lo <> lo
      || c.Ckpt.c_hi <> hi
      || c.Ckpt.c_rng_token <> token
    then
      failwith
        (Printf.sprintf "%s belongs to a different grid or seed; refusing to resume" path)
  | None -> ());
  match existing with
  | Some c when Ckpt.complete c -> c
  | _ ->
    Sf_obs.Counter.incr c_shards_run;
    let out = Array.make (hi - lo) (0., false, false) in
    let start_next, prior_counters =
      match existing with
      | Some c ->
        Array.blit c.Ckpt.c_outcomes 0 out 0 (Array.length c.Ckpt.c_outcomes);
        (c.Ckpt.c_next, c.Ckpt.c_counters)
      | None -> (lo, [])
    in
    let master = Rng.of_seed spec.Grid.gs_seed in
    let make = Grid.make_of_spec spec in
    let strategies = Array.of_list (Grid.strategies_of_spec spec) in
    let sizes = Array.of_list spec.Grid.gs_sizes in
    let cspec = Grid.core_spec spec in
    (* counter deltas cover exactly the trials persisted by this
       incarnation; trials a previous incarnation ran but never
       checkpointed died with its registry, keeping merged totals
       consistent with merged outcomes *)
    let base = Ckpt.counters_snapshot () in
    let next = ref start_next in
    let write_ckpt () =
      let counters =
        Ckpt.counters_merge prior_counters
          (Ckpt.counters_delta ~base (Ckpt.counters_snapshot ()))
      in
      let c =
        {
          Ckpt.c_grid_crc = grid_crc;
          c_shard = shard;
          c_lo = lo;
          c_hi = hi;
          c_rng_token = token;
          c_next = !next;
          c_outcomes = Array.sub out 0 (!next - lo);
          c_counters = counters;
        }
      in
      Sf_obs.Histo.time h_ckpt_write (fun () -> Ckpt.write ~path c);
      Sf_obs.Counter.incr c_ckpt_writes;
      if Trace.active () then
        Trace.emit "fabric.ckpt" Trace.Instant
          ~args:[ ("shard", Trace.Int shard); ("next", Trace.Int !next) ];
      progress (!next - lo);
      after_ckpt ~next:!next;
      if fault_fires ~seed:spec.Grid.gs_seed ~shard ~next:!next fault_rate then
        (* die like a real crash: no unwinding, no exit handlers *)
        Unix.kill (Unix.getpid ()) Sys.sigkill;
      c
    in
    if hi = lo then write_ckpt ()
    else begin
      let last = ref None in
      while !next < hi do
        let task = !next in
        let traced = Trace.active () in
        if traced then
          Trace.emit "fabric.trial" Trace.Begin
            ~args:
              (("shard", Trace.Int shard)
              :: ("task", Trace.Int task)
              :: Sf_obs.Tctx.args
                   (Sf_obs.Tctx.derive ~seed:spec.Grid.gs_seed ~id:task));
        out.(task - lo) <- S.run_grid_task master ~spec:cspec ~make ~strategies ~sizes task;
        if traced then Trace.emit "fabric.trial" Trace.End;
        incr next;
        if (!next - lo) mod ckpt_every = 0 || !next = hi then last := Some (write_ckpt ())
      done;
      match !last with Some c -> c | None -> assert false
    end

(* The Swarm handle for grid work: job = shard id, assign body = the
   Relay trace flag (everything else derives from the run directory),
   empty done body (the result lives in the checkpoint file), progress
   body = varint of tasks completed in the shard, telemetry body = a
   Relay batch after each checkpoint write. *)
let handle ~dir ~grid_crc plan ~fault_rate ~ckpt_every ~job ~body ~progress ~telemetry =
  let send_progress done_tasks =
    let buf = Buffer.create 8 in
    Sf_store.Varint.write buf done_tasks;
    progress (Buffer.contents buf)
  in
  let flush =
    if not (Relay.assign_wants_trace body) then fun ~next:_ -> ()
    else begin
      ensure_relay_sink ();
      (* relay after (never before) the checkpoint write, in deltas
         from the last relay: across any crash history, relayed totals
         stay <= checkpointed totals, and the coordinator closes the
         gap from the checkpoints at the end of the run *)
      let last = ref (Ckpt.counters_snapshot ()) in
      fun ~next:_ ->
        let now = Ckpt.counters_snapshot () in
        let counters = Ckpt.counters_delta ~base:!last now in
        last := now;
        let events = relay_drain () in
        if events <> [] || counters <> [] then
          telemetry (Relay.encode { Relay.r_events = events; r_counters = counters })
    end
  in
  let (_ : Ckpt.t) =
    run_shard ~dir ~grid_crc plan ~shard:job ~fault_rate ~ckpt_every ~progress:send_progress
      ~after_ckpt:flush ()
  in
  (* a resumed-complete shard writes no checkpoint; nothing new to
     relay in that case, but drain any stragglers all the same *)
  flush ~next:(-1);
  ""

let main ~dir ~connect ~fault_rate ~ckpt_every () =
  let plan, grid_crc = Grid.load_plan ~dir in
  Swarm.worker_loop ~connect ~handle:(fun ~job ~body ~progress ~telemetry ->
      handle ~dir ~grid_crc plan ~fault_rate ~ckpt_every ~job ~body ~progress ~telemetry)
