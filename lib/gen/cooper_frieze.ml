module Rng = Sf_prng.Rng
module Digraph = Sf_graph.Digraph
module Vec = Sf_graph.Vec

(* Observability: NEW/OLD step mix and degree-update costs
   (doc/OBSERVABILITY.md). The out-degree histogram records how many
   edges each step had to wire — the per-step degree-update cost. *)
let obs_build_us = Sf_obs.Registry.histo "gen.cf.build_us"
let obs_new_steps = Sf_obs.Registry.counter "gen.cf.steps.new"
let obs_old_steps = Sf_obs.Registry.counter "gen.cf.steps.old"
let obs_edges = Sf_obs.Registry.counter "gen.cf.edges"
let obs_step_out_degree = Sf_obs.Registry.histo "gen.cf.step_out_degree"

type out_degree_dist = (int * float) list
type preference = In_degree | Total_degree

type params = {
  alpha : float;
  beta : float;
  gamma : float;
  delta : float;
  q : out_degree_dist;
  p_dist : out_degree_dist;
  preference : preference;
}

let default =
  {
    alpha = 0.5;
    beta = 0.5;
    gamma = 0.5;
    delta = 0.5;
    q = [ (1, 0.5); (2, 0.5) ];
    p_dist = [ (1, 0.5); (2, 0.5) ];
    preference = In_degree;
  }

let validate_dist name dist =
  if dist = [] then Error (name ^ ": empty distribution")
  else if List.exists (fun (v, _) -> v < 1) dist then Error (name ^ ": out-degree values must be >= 1")
  else if List.exists (fun (_, p) -> p < 0.) dist then Error (name ^ ": negative probability")
  else begin
    let total = List.fold_left (fun acc (_, p) -> acc +. p) 0. dist in
    if Float.abs (total -. 1.) > 1e-9 then Error (name ^ ": probabilities must sum to 1")
    else Ok ()
  end

let validate params =
  let in_unit name x = if x < 0. || x > 1. then Error (name ^ ": must lie in [0, 1]") else Ok () in
  let ( let* ) = Result.bind in
  let* () = in_unit "alpha" params.alpha in
  let* () = in_unit "beta" params.beta in
  let* () = in_unit "gamma" params.gamma in
  let* () = in_unit "delta" params.delta in
  let* () = validate_dist "q" params.q in
  validate_dist "p_dist" params.p_dist

let sample_dist rng dist =
  let u = Rng.unit_float rng in
  let rec go acc = function
    | [] -> fst (List.hd (List.rev dist))
    | (v, p) :: rest ->
      let acc = acc +. p in
      if u < acc then v else go acc rest
  in
  go 0. dist

let mean_out_degree dist = List.fold_left (fun acc (v, p) -> acc +. (float_of_int v *. p)) 0. dist

(* Growth state: the endpoint list realising degree-proportional choice.
   For indegree preference it records edge destinations; for total
   degree, both endpoints. *)
type state = { g : Digraph.t; ends : Vec.t; preference : preference }

let initial preference =
  let g = Digraph.create () in
  ignore (Digraph.add_vertex g);
  ignore (Digraph.add_edge g ~src:1 ~dst:1);
  let ends = Vec.create () in
  Vec.push ends 1;
  if preference = Total_degree then Vec.push ends 1;
  { g; ends; preference }

let preferential_vertex st rng = Vec.get st.ends (Rng.int rng (Vec.length st.ends))
let uniform_vertex st rng = 1 + Rng.int rng (Digraph.n_vertices st.g)

let record_edge st ~src ~dst =
  if Sf_obs.Registry.enabled () then Sf_obs.Counter.incr obs_edges;
  ignore (Digraph.add_edge st.g ~src ~dst);
  Vec.push st.ends dst;
  if st.preference = Total_degree then Vec.push st.ends src

let add_out_edges st rng ~src ~count ~pref_prob =
  for _ = 1 to count do
    let dst =
      if Rng.bernoulli rng pref_prob then preferential_vertex st rng
      else uniform_vertex st rng
    in
    record_edge st ~src ~dst
  done

let step ?(on_new = fun _ _ -> ()) st rng params =
  let obs = Sf_obs.Registry.enabled () in
  if Rng.bernoulli rng params.alpha then begin
    (* NEW: the new vertex is not a candidate endpoint of its own edges
       (endpoints are chosen among "existing" vertices first). *)
    let count = sample_dist rng params.q in
    if obs then begin
      Sf_obs.Counter.incr obs_new_steps;
      Sf_obs.Histo.observe_int obs_step_out_degree count
    end;
    let targets =
      List.init count (fun _ ->
          if Rng.bernoulli rng params.beta then preferential_vertex st rng
          else uniform_vertex st rng)
    in
    let v = Digraph.add_vertex st.g in
    List.iter (fun dst -> record_edge st ~src:v ~dst) targets;
    on_new v count
  end
  else begin
    let src =
      if Rng.bernoulli rng params.delta then uniform_vertex st rng
      else preferential_vertex st rng
    in
    let count = sample_dist rng params.p_dist in
    if obs then begin
      Sf_obs.Counter.incr obs_old_steps;
      Sf_obs.Histo.observe_int obs_step_out_degree count
    end;
    add_out_edges st rng ~src ~count ~pref_prob:params.gamma
  end

let check params =
  match validate params with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Cooper_frieze: " ^ msg)

let timed_build f =
  if Sf_obs.Registry.enabled () then Sf_obs.Histo.time obs_build_us f else f ()

let checkpoint st =
  Sf_obs.Trace.instant "gen.cf.checkpoint"
    ~args:
      [
        ("vertices", Sf_obs.Trace.Int (Digraph.n_vertices st.g));
        ("edges", Sf_obs.Trace.Int (Digraph.n_edges st.g));
      ]

(* the grow span plus at most ~8 checkpoints per build, as for Mori *)
let traced_build ~target f =
  let tracing = Sf_obs.Trace.active () in
  if tracing then
    Sf_obs.Trace.emit "gen.cf.grow" Sf_obs.Trace.Begin
      ~args:[ ("target", Sf_obs.Trace.Int target) ];
  let g = timed_build (f ~tracing) in
  if tracing then
    Sf_obs.Trace.emit "gen.cf.grow" Sf_obs.Trace.End
      ~args:
        [
          ("vertices", Sf_obs.Trace.Int (Digraph.n_vertices g));
          ("edges", Sf_obs.Trace.Int (Digraph.n_edges g));
        ];
  g

let generate rng params ~steps =
  check params;
  if steps < 0 then invalid_arg "Cooper_frieze.generate: steps must be non-negative";
  traced_build ~target:steps (fun ~tracing () ->
      let st = initial params.preference in
      let every = max 1 (steps / 8) in
      for k = 1 to steps do
        step st rng params;
        if tracing && k mod every = 0 then checkpoint st
      done;
      st.g)

let generate_n_vertices rng params ~n =
  check params;
  if n < 1 then invalid_arg "Cooper_frieze.generate_n_vertices: need n >= 1";
  if params.alpha <= 0. then invalid_arg "Cooper_frieze.generate_n_vertices: alpha must be positive";
  traced_build ~target:n (fun ~tracing () ->
      let st = initial params.preference in
      let every = max 1 (n / 8) in
      let next = ref every in
      while Digraph.n_vertices st.g < n do
        step st rng params;
        if tracing && Digraph.n_vertices st.g >= !next then begin
          checkpoint st;
          next := !next + every
        end
      done;
      st.g)

(* --- giant engine (doc/SCALING.md) --------------------------------

   Flat-storage variant of the same evolution.  Two changes relative
   to [step]:

   - out-degree counts come from precompiled alias tables (O(1) per
     draw) instead of [sample_dist]'s linear scan over the support;
   - edges accumulate in unboxed int32 endpoint vectors and the final
     graph is built directly in CSR form, never materialising a boxed
     [Digraph].

   The endpoint store [ends] is the same edge-endpoint sampling
   structure as the legacy path, so preferential draws stay O(1).
   Because an alias draw consumes the stream differently from
   [sample_dist] (one [Rng.int] plus one [unit_float] versus a single
   [unit_float]), the giant path is equal to the legacy path {e in
   law}, not draw for draw; the chi-square battery in the tests pins
   the law. *)

module Bigvec = Sf_graph.Bigvec

type compiled_dist = { values : int array; alias : Sf_prng.Discrete.Alias.t }

let compile_dist dist =
  {
    values = Array.of_list (List.map fst dist);
    alias = Sf_prng.Discrete.Alias.create (Array.of_list (List.map snd dist));
  }

let sample_compiled rng cd = cd.values.(Sf_prng.Discrete.Alias.sample cd.alias rng)

type giant_state = {
  srcs : Bigvec.t;
  dsts : Bigvec.t;
  g_ends : Bigvec.t;
  mutable n : int;
  g_pref : preference;
}

let initial_giant preference =
  let st =
    {
      srcs = Bigvec.create ();
      dsts = Bigvec.create ();
      g_ends = Bigvec.create ();
      n = 1;
      g_pref = preference;
    }
  in
  Bigvec.push st.srcs 1;
  Bigvec.push st.dsts 1;
  Bigvec.push st.g_ends 1;
  if preference = Total_degree then Bigvec.push st.g_ends 1;
  st

let preferential_giant st rng =
  Bigvec.unsafe_get st.g_ends (Rng.int rng (Bigvec.length st.g_ends))

let uniform_giant st rng = 1 + Rng.int rng st.n

let record_edge_giant st ~src ~dst =
  if Sf_obs.Registry.enabled () then Sf_obs.Counter.incr obs_edges;
  Bigvec.push st.srcs src;
  Bigvec.push st.dsts dst;
  Bigvec.push st.g_ends dst;
  if st.g_pref = Total_degree then Bigvec.push st.g_ends src

let step_giant st rng params ~q_cd ~p_cd =
  let obs = Sf_obs.Registry.enabled () in
  if Rng.bernoulli rng params.alpha then begin
    (* NEW: endpoints are drawn before the vertex exists, exactly as in
       [step] — the newcomer is not a candidate for its own edges *)
    let count = sample_compiled rng q_cd in
    if obs then begin
      Sf_obs.Counter.incr obs_new_steps;
      Sf_obs.Histo.observe_int obs_step_out_degree count
    end;
    let targets = Array.make count 0 in
    for i = 0 to count - 1 do
      targets.(i) <-
        (if Rng.bernoulli rng params.beta then preferential_giant st rng
         else uniform_giant st rng)
    done;
    st.n <- st.n + 1;
    for i = 0 to count - 1 do
      record_edge_giant st ~src:st.n ~dst:targets.(i)
    done
  end
  else begin
    let src =
      if Rng.bernoulli rng params.delta then uniform_giant st rng
      else preferential_giant st rng
    in
    let count = sample_compiled rng p_cd in
    if obs then begin
      Sf_obs.Counter.incr obs_old_steps;
      Sf_obs.Histo.observe_int obs_step_out_degree count
    end;
    for _ = 1 to count do
      let dst =
        if Rng.bernoulli rng params.gamma then preferential_giant st rng
        else uniform_giant st rng
      in
      record_edge_giant st ~src ~dst
    done
  end

let generate_n_vertices_giant rng params ~n =
  check params;
  if n < 1 then invalid_arg "Cooper_frieze.generate_n_vertices_giant: need n >= 1";
  if params.alpha <= 0. then
    invalid_arg "Cooper_frieze.generate_n_vertices_giant: alpha must be positive";
  let q_cd = compile_dist params.q and p_cd = compile_dist params.p_dist in
  let tracing = Sf_obs.Trace.active () in
  if tracing then
    Sf_obs.Trace.emit "gen.cf.grow" Sf_obs.Trace.Begin
      ~args:[ ("target", Sf_obs.Trace.Int n) ];
  let st = initial_giant params.preference in
  timed_build (fun () ->
      let every = max 1 (n / 8) in
      let next = ref every in
      while st.n < n do
        step_giant st rng params ~q_cd ~p_cd;
        if tracing && st.n >= !next then begin
          Sf_obs.Trace.instant "gen.cf.checkpoint"
            ~args:
              [
                ("vertices", Sf_obs.Trace.Int st.n);
                ("edges", Sf_obs.Trace.Int (Bigvec.length st.srcs));
              ];
          next := !next + every
        end
      done);
  if tracing then
    Sf_obs.Trace.emit "gen.cf.grow" Sf_obs.Trace.End
      ~args:
        [
          ("vertices", Sf_obs.Trace.Int st.n);
          ("edges", Sf_obs.Trace.Int (Bigvec.length st.srcs));
        ];
  Sf_graph.Ugraph.of_csr (Sf_graph.Csr.of_bigvecs ~n:st.n st.srcs st.dsts)

let generate_n_vertices_traced rng params ~n =
  check params;
  if n < 1 then invalid_arg "Cooper_frieze.generate_n_vertices_traced: need n >= 1";
  if params.alpha <= 0. then
    invalid_arg "Cooper_frieze.generate_n_vertices_traced: alpha must be positive";
  let st = initial params.preference in
  let arrivals = ref [ (1, 1) ] (* vertex 1 is born with its self-loop *) in
  let on_new v count = arrivals := (v, count) :: !arrivals in
  while Digraph.n_vertices st.g < n do
    step ~on_new st rng params
  done;
  let arrival = Array.make (Digraph.n_vertices st.g) 0 in
  List.iter (fun (v, count) -> arrival.(v - 1) <- count) !arrivals;
  (st.g, arrival)
