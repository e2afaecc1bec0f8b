module Rng = Sf_prng.Rng
module Ugraph = Sf_graph.Ugraph
module Bigvec = Sf_graph.Bigvec

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

(* --- the one growth loop (doc/SCALING.md) --------------------------

   Edges accumulate in unboxed int32 endpoint vectors that feed a
   direct CSR build.  [ends] is the endpoint list realising
   degree-proportional choice: for indegree preference it records edge
   destinations, for total degree both endpoints, so a preferential
   draw is one uniform index, O(1).  A
   step's draws come in a fixed order — the NEW/OLD coin, the source,
   the out-degree (a CDF scan of [sample_dist]), then each endpoint —
   so one stream always yields one graph. *)

type state = {
  srcs : Bigvec.t;
  dsts : Bigvec.t;
  ends : Bigvec.t;
  mutable n : int;
  preference : preference;
}

let initial preference =
  let st =
    {
      srcs = Bigvec.create ();
      dsts = Bigvec.create ();
      ends = Bigvec.create ();
      n = 1;
      preference;
    }
  in
  (* vertex 1 is born with a self-loop *)
  Bigvec.push st.srcs 1;
  Bigvec.push st.dsts 1;
  Bigvec.push st.ends 1;
  if preference = Total_degree then Bigvec.push st.ends 1;
  st

let preferential_vertex st rng = Bigvec.unsafe_get st.ends (Rng.int rng (Bigvec.length st.ends))
let uniform_vertex st rng = 1 + Rng.int rng st.n

let record_edge ~obs st ~src ~dst =
  if obs then Sf_obs.Counter.incr obs_edges;
  Bigvec.push st.srcs src;
  Bigvec.push st.dsts dst;
  Bigvec.push st.ends dst;
  if st.preference = Total_degree then Bigvec.push st.ends src

let step ~obs ~arrivals st rng (params : params) =
  if Rng.bernoulli rng params.alpha then begin
    (* NEW: endpoints are drawn before the vertex exists — the
       newcomer is not a candidate for its own edges *)
    let count = sample_dist rng params.q in
    if obs then begin
      Sf_obs.Counter.incr obs_new_steps;
      Sf_obs.Histo.observe_int obs_step_out_degree count
    end;
    let targets = Array.make count 0 in
    for i = 0 to count - 1 do
      targets.(i) <-
        (if Rng.bernoulli rng params.beta then preferential_vertex st rng
         else uniform_vertex st rng)
    done;
    st.n <- st.n + 1;
    for i = 0 to count - 1 do
      record_edge ~obs st ~src:st.n ~dst:targets.(i)
    done;
    match arrivals with Some a -> Bigvec.push a count | None -> ()
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
    for _ = 1 to count do
      let dst =
        if Rng.bernoulli rng params.gamma then preferential_vertex st rng
        else uniform_vertex st rng
      in
      record_edge ~obs st ~src ~dst
    done
  end

let checkpoint st =
  Sf_obs.Trace.instant "gen.cf.checkpoint"
    ~args:
      [
        ("vertices", Sf_obs.Trace.Int st.n);
        ("edges", Sf_obs.Trace.Int (Bigvec.length st.srcs));
      ]

(* Grows until the step count (with [~by_steps]) or [st.n] reaches
   [target]: the grow span plus at most ~8 checkpoints per build, as
   for Mori.  [arrivals], when given, receives each vertex's arrival
   out-degree in vertex order. *)
let grow ?arrivals rng (params : params) ~by_steps ~target =
  let obs = Sf_obs.Registry.enabled () in
  let tracing = Sf_obs.Trace.active () in
  if tracing then
    Sf_obs.Trace.emit "gen.cf.grow" Sf_obs.Trace.Begin
      ~args:[ ("target", Sf_obs.Trace.Int target) ];
  let st = initial params.preference in
  Option.iter (fun a -> Bigvec.push a 1) arrivals;
  let run () =
    let every = max 1 (target / 8) in
    let next = ref every in
    let steps = ref 0 in
    while (if by_steps then !steps else st.n) < target do
      step ~obs ~arrivals st rng params;
      incr steps;
      if tracing && (if by_steps then !steps else st.n) >= !next then begin
        checkpoint st;
        next := !next + every
      end
    done
  in
  if obs then Sf_obs.Histo.time obs_build_us run else run ();
  if tracing then
    Sf_obs.Trace.emit "gen.cf.grow" Sf_obs.Trace.End
      ~args:
        [
          ("vertices", Sf_obs.Trace.Int st.n);
          ("edges", Sf_obs.Trace.Int (Bigvec.length st.srcs));
        ];
  Ugraph.of_csr (Sf_graph.Csr.of_bigvecs ~n:st.n st.srcs st.dsts)

let check params =
  match validate params with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Cooper_frieze: " ^ msg)

let generate rng params ~steps =
  check params;
  if steps < 0 then invalid_arg "Cooper_frieze.generate: steps must be non-negative";
  grow rng params ~by_steps:true ~target:steps

let grow_n_vertices ?arrivals ~name rng params ~n =
  check params;
  if n < 1 then invalid_arg (name ^ ": need n >= 1");
  if params.alpha <= 0. then invalid_arg (name ^ ": alpha must be positive");
  grow ?arrivals rng params ~by_steps:false ~target:n

let generate_n_vertices rng params ~n =
  grow_n_vertices ~name:"Cooper_frieze.generate_n_vertices" rng params ~n

let generate_n_vertices_traced rng params ~n =
  let arrivals = Bigvec.create () in
  let u =
    grow_n_vertices ~arrivals ~name:"Cooper_frieze.generate_n_vertices_traced" rng params ~n
  in
  (u, Bigvec.to_array arrivals)
