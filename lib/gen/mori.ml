module Rng = Sf_prng.Rng
module Digraph = Sf_graph.Digraph
module Ugraph = Sf_graph.Ugraph
module Bigvec = Sf_graph.Bigvec

(* Observability: attachment-step accounting (doc/OBSERVABILITY.md).
   The father-age histogram records which vertex each arrival attached
   to — the measured face of the age-degree law behind Lemma 2. *)
let obs_build_us = Sf_obs.Registry.histo "gen.mori.build_us"
let obs_vertices = Sf_obs.Registry.counter "gen.mori.vertices"
let obs_pref_steps = Sf_obs.Registry.counter "gen.mori.steps.pref"
let obs_unif_steps = Sf_obs.Registry.counter "gen.mori.steps.unif"
let obs_father_age = Sf_obs.Registry.histo "gen.mori.father_age"

let check_params ~p ~t =
  if t < 2 then invalid_arg "Mori: need t >= 2";
  if p <= 0. || p > 1. then invalid_arg "Mori: need 0 < p <= 1"

(* The one growth loop (doc/SCALING.md).  The only growth state is the
   edge-endpoint store [dsts]: an unboxed int32 vector in which vertex u
   appears exactly indegree(u) times, so one uniform index draw is one
   indegree-preferential vertex draw, O(1) amortised per edge.  Entry
   k-2 is the father of vertex k.

   Steps k in (a, b] attach inside [1, a] — exact sampling of the tree
   conditioned on Lemma 2's event E_{a,b}: conditional on the event's
   prefix every entry of [dsts] is already <= a, so the preferential
   branch needs no filtering and only the uniform bound changes.
   Every other step's uniform bound is k - 1; an unconditioned build
   passes the empty window a = b = t. *)
let grow_fathers rng ~p ~t ~a ~b =
  let obs = Sf_obs.Registry.enabled () in
  let t0 = if obs then Sf_obs.Clock.now_s () else 0. in
  let tracing = Sf_obs.Trace.active () in
  (* at most 8 growth checkpoints per build, so tracing a microbench
     full of small builds stays proportionate *)
  let checkpoint_every = max 1 (t / 8) in
  if tracing then
    Sf_obs.Trace.emit "gen.mori.grow" Sf_obs.Trace.Begin
      ~args:[ ("t", Sf_obs.Trace.Int t); ("p", Sf_obs.Trace.Float p) ];
  let dsts = Bigvec.create ~capacity:(max 16 (t - 1)) () in
  Bigvec.push dsts 1;
  for k = 3 to t do
    let bound = if k > a && k <= b then a else k - 1 in
    let father =
      let pref_mass = p *. float_of_int (k - 2) in
      let unif_mass = (1. -. p) *. float_of_int bound in
      if Rng.unit_float rng *. (pref_mass +. unif_mass) < pref_mass then begin
        if obs then Sf_obs.Counter.incr obs_pref_steps;
        Bigvec.unsafe_get dsts (Rng.int rng (Bigvec.length dsts))
      end
      else begin
        if obs then Sf_obs.Counter.incr obs_unif_steps;
        1 + Rng.int rng bound
      end
    in
    if obs then Sf_obs.Histo.observe_int obs_father_age father;
    if tracing && k mod checkpoint_every = 0 then
      Sf_obs.Trace.instant "gen.mori.checkpoint"
        ~args:
          [ ("vertices", Sf_obs.Trace.Int k); ("last_father", Sf_obs.Trace.Int father) ];
    Bigvec.push dsts father
  done;
  if tracing then Sf_obs.Trace.emit "gen.mori.grow" Sf_obs.Trace.End;
  if obs then begin
    Sf_obs.Counter.add obs_vertices t;
    Sf_obs.Histo.observe obs_build_us ((Sf_obs.Clock.now_s () -. t0) *. 1e6)
  end;
  dsts

let tree_fathers rng ~p ~t =
  check_params ~p ~t;
  grow_fathers rng ~p ~t ~a:t ~b:t

(* edge j of the tree joins vertex j+2 to fathers.(j); merging maps
   vertex v to group ((v-1)/m)+1, preserving edge ids and order *)
let merged_csr ~m ~n fathers =
  let t = n * m in
  let srcs_buf = Bigvec.create_buf (t - 1) in
  let dsts_buf = Bigvec.create_buf (t - 1) in
  let group v = ((v - 1) / m) + 1 in
  for j = 0 to t - 2 do
    Bigarray.Array1.unsafe_set srcs_buf j (Int32.of_int (group (j + 2)));
    Bigarray.Array1.unsafe_set dsts_buf j (Int32.of_int (group (Bigvec.unsafe_get fathers j)))
  done;
  Ugraph.of_csr (Sf_graph.Csr.of_endpoint_bufs ~n srcs_buf dsts_buf)

let merged ~name rng ~p ~m ~n =
  if m < 1 || n < 1 then invalid_arg (name ^ ": need m >= 1 and n >= 1");
  if n * m < 2 then invalid_arg (name ^ ": need n * m >= 2");
  merged_csr ~m ~n (tree_fathers rng ~p ~t:(n * m))

let graph_giant rng ~p ~m ~n = merged ~name:"Mori.graph_giant" rng ~p ~m ~n
let graph rng ~p ~m ~n = Ugraph.to_digraph (merged ~name:"Mori.graph" rng ~p ~m ~n)

let tree_giant rng ~p ~t =
  check_params ~p ~t;
  graph_giant rng ~p ~m:1 ~n:t

let tree rng ~p ~t = Ugraph.to_digraph (tree_giant rng ~p ~t)

let tree_conditioned rng ~p ~t ~a ~b =
  check_params ~p ~t;
  if a < 2 || a > b || b > t then invalid_arg "Mori.tree_conditioned: need 2 <= a <= b <= t";
  Ugraph.to_digraph (merged_csr ~m:1 ~n:t (grow_fathers rng ~p ~t ~a ~b))

let father g k =
  match Digraph.out_edges g k with
  | [ e ] -> e.Digraph.dst
  | [] -> invalid_arg "Mori.father: vertex has no out-edge"
  | _ -> invalid_arg "Mori.father: vertex has several out-edges"

let fathers g =
  let t = Digraph.n_vertices g in
  Array.init (t - 1) (fun i -> father g (i + 2))

let merge ~m g =
  if m < 1 then invalid_arg "Mori.merge: need m >= 1";
  let nm = Digraph.n_vertices g in
  if nm mod m <> 0 then invalid_arg "Mori.merge: m must divide the vertex count";
  if m = 1 then Digraph.copy g
  else begin
    let n = nm / m in
    let group v = ((v - 1) / m) + 1 in
    let g' = Digraph.create ~expected_vertices:n () in
    Digraph.add_vertices g' n;
    Digraph.iter_edges g (fun e ->
        ignore (Digraph.add_edge g' ~src:(group e.Digraph.src) ~dst:(group e.Digraph.dst)));
    g'
  end

let expected_degree_exponent ~p =
  if p <= 0. || p > 1. then invalid_arg "Mori.expected_degree_exponent: need 0 < p <= 1";
  1. +. (1. /. p)
