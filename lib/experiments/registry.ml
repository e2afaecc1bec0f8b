type entry = {
  id : string;
  title : string;
  run : quick:bool -> seed:int -> Exp.result;
}

(* Observability: every experiment runs inside an "exp.<id>" span, so
   a harness manifest carries per-experiment wall time without the
   experiments knowing (doc/OBSERVABILITY.md). *)
let obs_runs = Sf_obs.Registry.counter "exp.runs"

let traced e =
  {
    e with
    run =
      (fun ~quick ~seed ->
        if Sf_obs.Registry.enabled () then Sf_obs.Counter.incr obs_runs;
        let result =
          Sf_obs.Span.with_span ("exp." ^ e.id) (fun () -> e.run ~quick ~seed)
        in
        if Sf_obs.Trace.active () then begin
          let checks = List.length result.Exp.checks in
          let failed =
            List.length (List.filter (fun (_, pass) -> not pass) result.Exp.checks)
          in
          Sf_obs.Trace.instant "exp.done"
            ~args:
              [
                ("id", Sf_obs.Trace.Str e.id);
                ("checks", Sf_obs.Trace.Int checks);
                ("failed", Sf_obs.Trace.Int failed);
              ]
        end;
        result);
  }

let all =
  List.map traced
  [
    {
      id = "T1";
      title = "Theorem 1 weak model, m = 1 (Mori tree)";
      run = Exp_theorem1.t1_weak_mori;
    };
    {
      id = "T2";
      title = "Theorem 1 weak model, merged Mori graph (m > 1)";
      run = Exp_theorem1.t2_merged_mori;
    };
    {
      id = "T3";
      title = "Theorem 1 strong model (p < 1/2)";
      run = Exp_theorem1.t3_strong_mori;
    };
    { id = "T4"; title = "Theorem 2 (Cooper-Frieze)"; run = Exp_theorem2.t4_cooper_frieze };
    { id = "T5"; title = "Lemma 3 event probability"; run = Exp_lemmas.t5_lemma3 };
    { id = "T6"; title = "Lemma 2 vertex equivalence"; run = Exp_lemmas.t6_lemma2 };
    {
      id = "T7";
      title = "Lemma 1 explicit bound vs measured";
      run = Exp_theorem1.t7_bound_vs_measured;
    };
    { id = "T8"; title = "Mori max-degree law"; run = Exp_degree.t8_max_degree };
    { id = "T9"; title = "Scale-free degree laws"; run = Exp_degree.t9_degree_law };
    { id = "T10"; title = "Low diameter vs search cost"; run = Exp_smallworld.t10_diameter };
    { id = "T11"; title = "Adamic et al. baseline"; run = Exp_baselines.t11_adamic };
    { id = "T12"; title = "Kleinberg navigability contrast"; run = Exp_smallworld.t12_kleinberg };
    { id = "T13"; title = "Sarshar percolation search"; run = Exp_baselines.t13_percolation };
    {
      id = "T14";
      title = "Strong-to-weak simulation factor";
      run = Exp_theorem1.t14_simulation_factor;
    };
    {
      id = "T15";
      title = "Neighbour-degree dependence (evolving vs pure random)";
      run = Exp_extensions.t15_degree_correlations;
    };
    {
      id = "T16";
      title = "Total-degree models: max degree ~ sqrt(t)";
      run = Exp_extensions.t16_total_degree_models;
    };
    {
      id = "T17";
      title = "Timestamp-leak ablation";
      run = Exp_extensions.t17_timestamp_leak;
    };
    {
      id = "T18";
      title = "Window-size ablation for Lemma 1";
      run = Exp_extensions.t18_window_ablation;
    };
    {
      id = "T19";
      title = "Protocol traffic/latency tradeoff (discrete-event)";
      run = Exp_simulation.t19_protocol_tradeoff;
    };
    {
      id = "T20";
      title = "Cohen-Shenker square-root replication";
      run = Exp_simulation.t20_sqrt_replication;
    };
    {
      id = "T21";
      title = "Attack tolerance: random failure vs hub removal";
      run = Exp_extensions.t21_attack_tolerance;
    };
    {
      id = "T22";
      title = "Lookups under churn";
      run = Exp_simulation.t22_churn;
    };
    {
      id = "T23";
      title = "Open problem probe: strong model at p >= 1/2";
      run = Exp_extensions.t23_open_problem;
    };
  ]

let find id =
  let needle = String.lowercase_ascii id in
  List.find_opt (fun e -> String.lowercase_ascii e.id = needle) all

let ids () = List.map (fun e -> e.id) all

(* The per-experiment fan-out.  Experiments are pure producers (they
   return their tables as strings; nothing prints during [run]) whose
   randomness comes from the seed, so they parallelise like trials do.
   One experiment per task; a measure grid *inside* an experiment sees
   Shard.capturing and runs its own trials inline, so the machine is
   never oversubscribed.  Results come back in registry order whatever
   the schedule was. *)
let run_all ?jobs ~quick ~seed entries =
  let arr = Array.of_list entries in
  Sf_parallel.Pool.with_pool ?jobs (fun pool ->
      Sf_parallel.Pool.map pool
        (fun e ->
          let t0 = Sf_obs.Clock.now_s () in
          let result = e.run ~quick ~seed in
          (e, result, Sf_obs.Clock.now_s () -. t0))
        arr)
  |> Array.to_list
