(* The grid workload: Sf_fabric.Coordinator.run over spawned
   [sffabric worker] processes. Each trial builds a fresh Móri graph
   and pays up to 4n oracle requests, so per-request strategy cost
   dominates on in-cache graphs and shard scheduling sets the tail. *)

module Rng = Sf_prng.Rng
module Sm = Sf_stats.Summary
module Fab = Sf_fabric
module S = Sf_core.Searchability
module Strategy = Sf_search.Strategy

type params = {
  sizes : int list;
  trials : int;
  replay_trials : int;  (** trials per cell decomposed into layer calls in the traced run *)
}

let full = { sizes = [ 10_000; 40_000; 160_000 ]; trials = 8; replay_trials = 2 }
let toy = { sizes = [ 500; 1_000; 2_000 ]; trials = 2; replay_trials = 1 }
let strategies = [ "high-degree"; "bfs"; "rand-walk"; "s-high-degree" ]
let workers = 2
let jobs = 2
(* A checkpoint, and with it a progress message, after every trial:
   the coordinator then sees each task finish, which is what the task
   latencies are read from. A checkpoint is a small unsynced file. *)
let ckpt_every = 1
let prepares_per_batch = 20

let spec p seed =
  {
    Fab.Grid.gs_model = "mori";
    gs_p = 0.5;
    gs_m = 1;
    gs_alpha = 0.5;
    gs_exponent = 2.3;
    gs_sizes = p.sizes;
    gs_strategies = strategies;
    gs_trials = p.trials;
    gs_metric = `Neighbor;
    gs_source = `Oldest;
    gs_budget_mul = 4;
    gs_budget_add = 0;
    gs_seed = seed;
  }

type pass = {
  wall : float;
  csv : string;
  csv_of_merge : string;  (** Searchability.aggregate over the merged checkpoints *)
  outcomes : (float * bool * bool) array;
  report : Fab.Swarm.report;
  complete : bool;
  task_lat : float list;  (** seconds per task, from the progress stream *)
  shard_s : float list;
  tail_s : float;
  rss_kb : int;
}

(* Per-task and per-shard times from the coordinator's progress
   callbacks. A shard starts when a worker frees up: the run start for
   the first [workers] shards, then each completion in turn (the swarm
   hands the head of the queue to the first idle worker). *)
let timings ~spans ~parent ~t_start ~plan events =
  let free = Queue.create () in
  for _ = 1 to workers do Queue.add t_start free done;
  let last = Hashtbl.create 16 and started = Hashtbl.create 16 in
  let lats = ref [] and shards = ref [] and completions = ref [] in
  List.iter
    (fun (t, shard, done_, total) ->
      let prev_t, prev_done =
        match Hashtbl.find_opt last shard with
        | Some x -> x
        | None ->
          let s = if Queue.is_empty free then t else Queue.pop free in
          Hashtbl.replace started shard s;
          (s, 0)
      in
      let inc = done_ - prev_done in
      if inc > 0 then begin
        let per = (t -. prev_t) /. float_of_int inc in
        for j = 1 to inc do
          lats := per :: !lats;
          let lo, _ = plan.Fab.Grid.p_shards.(shard) in
          Spans.opt_add spans ~parent ~rid:(lo + prev_done + j - 1) "fabric.task"
            (prev_t +. (per *. float_of_int (j - 1)))
            (prev_t +. (per *. float_of_int j))
        done
      end;
      Hashtbl.replace last shard (t, done_);
      if done_ = total then begin
        Queue.add t free;
        let s = Hashtbl.find started shard in
        shards := (t -. s) :: !shards;
        completions := t :: !completions;
        Spans.opt_add spans ~parent ~rid:shard "fabric.shard" s t
      end)
    events;
  let comps = Array.of_list (List.rev !completions) in
  let nc = Array.length comps in
  let tail =
    if nc = 0 then 0.
    else comps.(nc - 1) -. comps.(max 0 (min (nc - 1) (Array.length plan.Fab.Grid.p_shards - workers)))
  in
  (List.rev !lats, List.rev !shards, tail)

let run_pass ~spans ~work ~spec ~sffabric idx =
  let dir = Filename.concat work (Printf.sprintf "grid-%d" idx) in
  let shards = Fab.Coordinator.default_shards ~workers spec in
  let t_p0 = Bstat.now () in
  let loaded =
    Spans.opt_with_span spans "fabric.prepare" (fun _ -> Fab.Coordinator.prepare ~dir ~shards spec)
  in
  let prep = Bstat.now () -. t_p0 in
  let pids = ref [] and hwm = ref 0 and running = ref true in
  let lock = Mutex.create () in
  let spawn ~sock_path =
    let pid =
      Child.spawn ~log:(Filename.concat work "sffabric.log")
        [|
          sffabric; "worker"; "--dir"; dir; "--connect"; sock_path; "--ckpt-every";
          string_of_int ckpt_every; "--fault-rate"; "0";
        |]
    in
    Mutex.lock lock;
    pids := pid :: !pids;
    Mutex.unlock lock;
    pid
  in
  (* workers exit at the end of the run, so their VmHWM is sampled
     while they live *)
  let sampler =
    Thread.create
      (fun () ->
        while !running do
          Mutex.lock lock;
          let ps = !pids in
          Mutex.unlock lock;
          List.iter
            (fun pid -> match Child.vm_hwm_kb pid with Some k -> hwm := max !hwm k | None -> ())
            ps;
          Thread.delay 0.02
        done)
      ()
  in
  let events = ref [] in
  let on_shard_progress ~shard ~done_tasks ~total =
    events := (Bstat.now (), shard, done_tasks, total) :: !events
  in
  let t0 = Bstat.now () in
  let result =
    Fun.protect
      ~finally:(fun () ->
        running := false;
        Thread.join sampler;
        (* the swarm reaps its workers on every path *)
        List.iter Child.untrack !pids)
      (fun () ->
        Spans.opt_with_span spans "fabric.run" (fun parent ->
            let r = Fab.Coordinator.run ~dir ~workers ~on_shard_progress ~spawn loaded in
            (r, parent)))
  in
  let wall = Bstat.now () -. t0 in
  let r, parent = result in
  let report, complete =
    match r with `Complete (_, rep) -> (rep, true) | `Stopped_early rep -> (rep, false)
  in
  let task_lat, shard_s, tail_s =
    timings ~spans ~parent ~t_start:t0 ~plan:(fst loaded) (List.rev !events)
  in
  let csv, csv_of_merge, outcomes =
    if not complete then ("", "-", [||])
    else
      let plan, crc = loaded in
      let outs, _ = Fab.Coordinator.merge ~dir ~grid_crc:crc plan in
      let points =
        S.aggregate ~sizes:spec.Fab.Grid.gs_sizes ~strategies ~spec:(Fab.Grid.core_spec spec) outs
      in
      ( In_channel.with_open_bin (Fab.Grid.csv_path dir) In_channel.input_all,
        S.points_to_csv points,
        outs )
  in
  ( prep,
    dir,
    loaded,
    { wall; csv; csv_of_merge; outcomes; report; complete; task_lat; shard_s; tail_s; rss_kb = !hwm } )

(* In-process reference: every task through run_grid_task on a
   two-domain Pool, aggregated as the coordinator does. *)
let recompute ~spans ~spec pool =
  let sizes = spec.Fab.Grid.gs_sizes in
  let cs = Fab.Grid.core_spec spec and make = Fab.Grid.make_of_spec spec in
  let strats = Array.of_list (Fab.Grid.strategies_of_spec spec) in
  let sizes_a = Array.of_list sizes in
  let master = Rng.of_seed spec.Fab.Grid.gs_seed in
  let n = Fab.Grid.n_tasks spec in
  let t0 = Bstat.now () in
  let res =
    Spans.opt_with_span spans "parallel.mapi" (fun parent ->
        Sf_parallel.Pool.mapi pool n (fun task ->
            let a = Bstat.now () in
            let o = S.run_grid_task master ~spec:cs ~make ~strategies:strats ~sizes:sizes_a task in
            let b = Bstat.now () in
            Spans.opt_add spans ~parent ~rid:task "core.task" a b;
            (o, b -. a)))
  in
  let wall = Bstat.now () -. t0 in
  let outcomes = Array.map fst res and times = Array.map snd res in
  let points = S.aggregate ~sizes ~strategies ~spec:cs outcomes in
  (S.points_to_csv points, outcomes, times, wall)

(* One task per (size, strategy) cell of pass [k]'s grid, the trial
   rotating with [k], recomputed in-process through run_grid_task and
   compared with the outcome the workers checkpointed. Returns the
   number of tasks checked and of mismatches. *)
let spot_check ~spec pool ~k (outcomes : (float * bool * bool) array) =
  let trials = spec.Fab.Grid.gs_trials in
  let cells = Fab.Grid.n_tasks spec / trials in
  let cs = Fab.Grid.core_spec spec and make = Fab.Grid.make_of_spec spec in
  let strats = Array.of_list (Fab.Grid.strategies_of_spec spec) in
  let sizes = Array.of_list spec.Fab.Grid.gs_sizes in
  let master = Rng.of_seed spec.Fab.Grid.gs_seed in
  let tasks = Array.init cells (fun c -> (c * trials) + ((k + c) mod trials)) in
  let got =
    Sf_parallel.Pool.mapi pool cells (fun j ->
        S.run_grid_task master ~spec:cs ~make ~strategies:strats ~sizes tasks.(j))
  in
  let bad = ref 0 in
  Array.iteri
    (fun j o ->
      if Array.length outcomes <> Fab.Grid.n_tasks spec || outcomes.(tasks.(j)) <> o then incr bad)
    got;
  (cells, !bad)

type replayed = {
  strategy : string;
  model : Sf_search.Oracle.model;
  gen : float;
  vertices : int;
  csr_bytes : int;
  start : float;
  run : float;
  requests : int;
  discovered : int;
  ok : bool;
}

(* The first [replay_trials] trials of every cell, split into the layer
   calls run_grid_task makes (Grid.make_of_spec, Oracle.start,
   Runner.run) on the same split stream; each outcome must equal the
   run_grid_task outcome for that task. *)
let replay ~spans ~p ~spec pool outcomes =
  let trials = p.trials in
  let cs = Fab.Grid.core_spec spec and make = Fab.Grid.make_of_spec spec in
  let strats = Array.of_list (Fab.Grid.strategies_of_spec spec) in
  let sizes_a = Array.of_list p.sizes in
  let ns = Array.length strats in
  let master = Rng.of_seed spec.Fab.Grid.gs_seed in
  let tasks =
    Array.of_list
      (List.filter (fun t -> t mod trials < p.replay_trials) (List.init (Fab.Grid.n_tasks spec) Fun.id))
  in
  Sf_parallel.Pool.mapi pool (Array.length tasks) (fun j ->
      let task = tasks.(j) in
      let cell = task / trials and trial = task mod trials in
      let size_idx = cell / ns and strat_idx = cell mod ns in
      let strat = strats.(strat_idx) and n = sizes_a.(size_idx) in
      Spans.with_span spans ~rid:task "core.task_replay" @@ fun parent ->
      let rng = S.trial_rng master ~size_idx ~strat_idx ~trial in
      let t0 = Bstat.now () in
      let g, target = Spans.with_span spans ~parent ~rid:task "gen.graph_giant" (fun _ -> make rng n) in
      let t1 = Bstat.now () in
      let source = if target = 1 && Sf_graph.Ugraph.n_vertices g > 1 then 2 else 1 in
      let oracle =
        Spans.with_span spans ~parent ~rid:task "search.oracle_start" (fun _ ->
            Sf_search.Oracle.start ~rng strat.Strategy.model g ~source ~target)
      in
      let t2 = Bstat.now () in
      let o =
        Spans.with_span spans ~parent ~rid:task "search.run" (fun _ ->
            Sf_search.Runner.run ~budget:(cs.S.budget n) ~stop_at:Sf_search.Runner.At_neighbor ~rng
              strat oracle)
      in
      let t3 = Bstat.now () in
      let cost, truncated =
        match o.Sf_search.Runner.to_neighbor with
        | Some r -> (float_of_int r, false)
        | None -> (float_of_int o.Sf_search.Runner.total_requests, true)
      in
      {
        strategy = strat.Strategy.name;
        model = strat.Strategy.model;
        gen = t1 -. t0;
        vertices = Sf_graph.Ugraph.n_vertices g;
        csr_bytes = Sf_graph.Ugraph.memory_bytes g;
        start = t2 -. t1;
        run = t3 -. t2;
        requests = o.Sf_search.Runner.total_requests;
        discovered = o.Sf_search.Runner.discovered;
        ok = outcomes.(task) = (cost, truncated, o.Sf_search.Runner.gave_up);
      })

(* Pass k runs the grid seeded [seed * 1000 + k]: the passes of one run
   are distinct grids, so a run averages the seed-to-seed spread of
   search costs over several instances. *)
let pass_seed seed k = (seed * 1000) + k

let run ~p ~seed ~seconds ~traced ~work ~sffabric =
  let spans = if traced then Some (Spans.create ()) else None in
  let spec0 = spec p (pass_seed seed 0) in
  let n_tasks = Fab.Grid.n_tasks spec0 in
  let notes = ref [] in
  let note fmt = Printf.ksprintf (fun s -> notes := s :: !notes) fmt in
  let correct = ref true in
  let check ok fmt =
    Printf.ksprintf
      (fun s ->
        if not ok then correct := false;
        note "check %s: %s" (if ok then "ok" else "FAILED") s)
      fmt
  in
  (* set-up: Coordinator.prepare into a scratch directory, removed
     after each sample, in a batch before the first grid and one after
     each. A prepare is a few small file writes, a rename and a reload,
     0.1 to 0.2 ms, so its time follows the filesystem's state: each
     batch first flushes the checkpoints the grid before it left in
     writeback, and batches spread over the run sample more of the
     host's states than one burst. *)
  let shards = Fab.Coordinator.default_shards ~workers spec0 in
  let preps = ref [] in
  let prepare_batch () =
    ignore (Child.reap (Child.spawn ~log:(Filename.concat work "sync.log") [| "sync" |]));
    for _ = 1 to prepares_per_batch do
      let dir = Filename.concat work "prep" in
      let t0 = Bstat.now () in
      ignore (Fab.Coordinator.prepare ~dir ~shards spec0);
      preps := (Bstat.now () -. t0) :: !preps;
      Child.rm_rf dir
    done
  in
  prepare_batch ();
  (* grids until --seconds is used up; at least one *)
  let t_begin = Bstat.now () in
  let rec passes acc k =
    let spec = spec p (pass_seed seed k) in
    let ((_, _, _, ps) as r) = run_pass ~spans ~work ~spec ~sffabric k in
    check (ps.complete && ps.csv = ps.csv_of_merge)
      "pass %d: measure.csv equals Searchability.aggregate over its merged checkpoints" k;
    prepare_batch ();
    let acc = r :: acc in
    let used = Bstat.now () -. t_begin in
    let mean = used /. float_of_int (k + 1) in
    if traced || used +. mean > seconds then List.rev acc else passes acc (k + 1)
  in
  let ps = passes [] 0 in
  let pass_list = List.map (fun (_, _, _, p) -> p) ps in
  let first = List.hd pass_list in
  let setup = Array.of_list (!preps @ List.map (fun (t, _, _, _) -> t) ps) in
  (* reference recomputation of the first pass, and in the traced run
     the layer replay *)
  let pool = Sf_parallel.Pool.create ~jobs () in
  let per_layer =
    Fun.protect ~finally:(fun () -> Sf_parallel.Pool.shutdown pool) @@ fun () ->
    let ref_csv, outcomes, task_times, mapi_wall = recompute ~spans ~spec:spec0 pool in
    check (first.complete && ref_csv = first.csv && outcomes = first.outcomes)
      "pass 0: outcomes and measure.csv equal in-process run_grid_task and Searchability.aggregate";
    List.iteri
      (fun k ps ->
        if k > 0 then begin
          let n, bad = spot_check ~spec:(spec p (pass_seed seed k)) pool ~k ps.outcomes in
          check (bad = 0) "pass %d: %d of %d sampled outcomes differ from in-process run_grid_task" k
            bad n
        end)
      pass_list;
    match spans with
    | None -> []
    | Some sp ->
      let _, dir, (plan, crc), last = List.hd (List.rev ps) in
      let merge_s =
        Spans.with_span sp "fabric.merge" (fun _ ->
            let t0 = Bstat.now () in
            let outs, counters = Fab.Coordinator.merge ~dir ~grid_crc:crc plan in
            ignore (Fab.Grid.write_outputs ~dir plan ~outcomes:outs ~counters);
            Bstat.now () -. t0)
      in
      let rep = replay ~spans:sp ~p ~spec:spec0 pool outcomes in
      let bad = Array.fold_left (fun a r -> if r.ok then a else a + 1) 0 rep in
      check (bad = 0) "%d of %d replayed tasks differ from run_grid_task" bad (Array.length rep);
      let nrep = Array.length rep in
      let fsum f = Array.fold_left (fun a r -> a +. f r) 0. rep in
      let isum f = Array.fold_left (fun a r -> a + f r) 0 rep in
      let starts model =
        Array.of_list
          (List.filter_map
             (fun r -> if r.model = model then Some (r.start *. 1e6) else None)
             (Array.to_list rep))
      in
      let weak = starts Sf_search.Oracle.Weak and strong = starts Sf_search.Oracle.Strong in
      let ns_per_req name =
        let sel = List.filter (fun r -> r.strategy = name) (Array.to_list rep) in
        let t = List.fold_left (fun a r -> a +. r.run) 0. sel in
        let q = List.fold_left (fun a r -> a + r.requests) 0 sel in
        ((if q = 0 then 0. else t *. 1e9 /. float_of_int q), q)
      in
      let start_sum = fsum (fun r -> r.start) and run_sum = fsum (fun r -> r.run) in
      let gen_sum = fsum (fun r -> r.gen) in
      let shard_s = Array.of_list last.shard_s in
      Report.
        ([
           m ~samples:(Array.length weak) "search.oracle_start_us.weak" "us" (Bstat.quantile weak 0.5);
           m ~samples:(Array.length strong) "search.oracle_start_us.strong" "us" (Bstat.quantile strong 0.5);
         ]
        @ List.map
            (fun name ->
              let v, q = ns_per_req name in
              m ~samples:q ("search.run_ns_per_request." ^ name) "ns" v)
            strategies
        @ [
            m ~samples:nrep "search.setup_share" "ratio" (start_sum /. (start_sum +. run_sum));
            m ~samples:nrep "search.setup_share.base_ms" "ms" ((start_sum +. run_sum) *. 1e3);
            m ~samples:nrep "search.requests" "count" (float_of_int (isum (fun r -> r.requests)));
            m ~samples:nrep "search.discovered" "count" (float_of_int (isum (fun r -> r.discovered)));
            m ~samples:nrep "gen.graph_giant_s" "s" gen_sum;
            m ~samples:nrep "gen.ns_per_vertex" "ns" (gen_sum *. 1e9 /. float_of_int (isum (fun r -> r.vertices)));
            m "graph.csr_bytes" "bytes" (float_of_int (Array.fold_left (fun a r -> max a r.csr_bytes) 0 rep));
            m ~samples:n_tasks "parallel.busy_share" "ratio"
              (Sm.(total (of_array task_times)) /. (float_of_int jobs *. mapi_wall));
            m ~samples:n_tasks "core.task_s.p50" "s" (Bstat.quantile task_times 0.5);
            m ~samples:n_tasks "core.task_s.max" "s" Sm.(max_value (of_array task_times));
            m ~samples:(Array.length shard_s) "fabric.shard_s.p50" "s" (Bstat.quantile shard_s 0.5);
            m ~samples:(Array.length shard_s) "fabric.shard_s.max" "s" Sm.(max_value (of_array shard_s));
            m "fabric.tail_s" "s" last.tail_s;
            m "fabric.merge_s" "s" merge_s;
            m "fabric.spawned" "count" (float_of_int last.report.Fab.Swarm.sw_spawned);
            m "fabric.deaths" "count" (float_of_int last.report.Fab.Swarm.sw_deaths);
            m "fabric.reassigned" "count" (float_of_int last.report.Fab.Swarm.sw_reassigned);
          ])
  in
  let np = List.length pass_list in
  let walls = Array.of_list (List.map (fun p -> p.wall) pass_list) in
  let lat = Array.of_list (List.concat_map (fun p -> List.map (fun s -> s *. 1e3) p.task_lat) pass_list) in
  let nl = Array.length lat in
  let tput = float_of_int (n_tasks * np) /. Sm.(total (of_array walls)) in
  let rss_kb = List.fold_left (fun a p -> max a p.rss_kb) 0 pass_list in
  let lost =
    List.fold_left
      (fun a p ->
        a + p.report.Fab.Swarm.sw_deaths + p.report.Fab.Swarm.sw_reassigned
        + if p.complete then 0 else n_tasks)
      0 pass_list
  in
  let attempted = n_tasks * np in
  note "grid_wall_s mean %.4f s over %d distinct grids (%s)" Sm.(mean (of_array walls)) np
    (String.concat ", " (Array.to_list (Array.map (Printf.sprintf "%.3f") walls)));
  note "latency_p99_ms %.6g ms n=%d, %d beyond (not gated: see README.md)" (Bstat.quantile lat 0.99) nl
    (Bstat.beyond lat 0.99);
  note "setup_s: Coordinator.prepare p10 %.1f us, p50 %.1f us, p90 %.1f us (n=%d)"
    (Bstat.quantile setup 0.1 *. 1e6) (Bstat.quantile setup 0.5 *. 1e6) (Bstat.quantile setup 0.9 *. 1e6)
    (Array.length setup);
  note "failed_share %.6f (%d lost or re-run tasks of %d attempted)"
    (float_of_int lost /. float_of_int (max 1 attempted))
    lost attempted;
  {
    Report.correct = !correct;
    attempted;
    failed = lost;
    end_to_end =
      Report.
        [
          m ~samples:(Array.length setup) "setup_s" "s" (Bstat.quantile setup 0.5);
          m ~samples:(n_tasks * np) "throughput_rps" "req/s" tput;
          m ~samples:nl "latency_p50_ms" "ms" (Bstat.quantile lat 0.5);
          m ~samples:np "rss_peak_mb" "MB" (float_of_int rss_kb /. 1024.);
        ];
    per_layer;
    params =
      [
        ("model", "\"mori m=1 p=0.5\"");
        ("sizes", "[" ^ String.concat "," (List.map string_of_int p.sizes) ^ "]");
        ("strategies", "\"" ^ String.concat "," strategies ^ "\"");
        ("trials", string_of_int p.trials);
        ("metric", "\"neighbor\"");
        ("source", "\"oldest\"");
        ("budget", "\"4n\"");
        ("workers", string_of_int workers);
        ("shards", string_of_int shards);
        ("pass_seeds", Printf.sprintf "\"%d..%d\"" (pass_seed seed 0) (pass_seed seed (np - 1)));
        ("ckpt_every", string_of_int ckpt_every);
        ("passes", string_of_int np);
      ];
    notes = List.rev !notes;
    spans;
  }
