module Rng = Sf_prng.Rng
module Digraph = Sf_graph.Digraph
module Vec = Sf_graph.Vec

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

(* Shared growth loop.  [restrict k] returns [Some a] when step [k] must
   attach inside [1..a] (conditioned sampling), [None] otherwise.  The
   destination list [dsts] realises indegree-preferential choice: vertex
   u appears in it exactly indegree(u) times, and conditional on the
   event prefix every entry is already <= a, so the restricted
   preferential branch needs no filtering. *)
let grow rng ~p ~t ~restrict =
  let obs = Sf_obs.Registry.enabled () in
  let t0 = if obs then Sf_obs.Clock.now_s () else 0. in
  let tracing = Sf_obs.Trace.active () in
  (* at most 8 growth checkpoints per build, so tracing a microbench
     full of small builds stays proportionate *)
  let checkpoint_every = max 1 (t / 8) in
  if tracing then
    Sf_obs.Trace.emit "gen.mori.grow" Sf_obs.Trace.Begin
      ~args:[ ("t", Sf_obs.Trace.Int t); ("p", Sf_obs.Trace.Float p) ];
  let g = Digraph.create ~expected_vertices:t () in
  Digraph.add_vertices g 2;
  ignore (Digraph.add_edge g ~src:2 ~dst:1);
  let dsts = Vec.create ~capacity:t () in
  Vec.push dsts 1;
  for k = 3 to t do
    let edges_so_far = k - 2 in
    let pick_pref () =
      if obs then Sf_obs.Counter.incr obs_pref_steps;
      Vec.get dsts (Rng.int rng (Vec.length dsts))
    in
    let pick_unif bound =
      if obs then Sf_obs.Counter.incr obs_unif_steps;
      1 + Rng.int rng bound
    in
    let father =
      match restrict k with
      | None ->
        let pref_mass = p *. float_of_int edges_so_far in
        let unif_mass = (1. -. p) *. float_of_int (k - 1) in
        if Rng.unit_float rng *. (pref_mass +. unif_mass) < pref_mass then pick_pref ()
        else pick_unif (k - 1)
      | Some a ->
        let pref_mass = p *. float_of_int edges_so_far in
        let unif_mass = (1. -. p) *. float_of_int a in
        if Rng.unit_float rng *. (pref_mass +. unif_mass) < pref_mass then pick_pref ()
        else pick_unif a
    in
    let v = Digraph.add_vertex g in
    ignore (Digraph.add_edge g ~src:v ~dst:father);
    if obs then Sf_obs.Histo.observe_int obs_father_age father;
    if tracing && k mod checkpoint_every = 0 then
      Sf_obs.Trace.instant "gen.mori.checkpoint"
        ~args:
          [
            ("vertices", Sf_obs.Trace.Int k);
            ("last_father", Sf_obs.Trace.Int father);
          ];
    Vec.push dsts father
  done;
  if tracing then Sf_obs.Trace.emit "gen.mori.grow" Sf_obs.Trace.End;
  if obs then begin
    Sf_obs.Counter.add obs_vertices t;
    Sf_obs.Histo.observe obs_build_us ((Sf_obs.Clock.now_s () -. t0) *. 1e6)
  end;
  g

let tree rng ~p ~t =
  check_params ~p ~t;
  grow rng ~p ~t ~restrict:(fun _ -> None)

(* --- giant engine (doc/SCALING.md) --------------------------------

   Same growth law, same draw sequence, flat storage.  The boxed
   [Digraph] + per-vertex [Vec]s cost ~100 bytes per vertex and die at
   a few hundred thousand vertices; here the only growth state is the
   edge-endpoint store [dsts] — an unboxed int32 vector in which
   vertex u appears exactly indegree(u) times, so one uniform index
   draw is one indegree-preferential vertex draw, O(1) amortised per
   edge.  The result goes straight into CSR form without ever
   materialising a boxed graph.

   Draw-for-draw parity with [grow] is deliberate and tested: with
   the same stream, [tree_fathers] reproduces [tree]'s father
   sequence exactly, so the giant engine is not merely equal in law —
   it is the same random variable. *)

let grow_fathers rng ~p ~t =
  let obs = Sf_obs.Registry.enabled () in
  let t0 = if obs then Sf_obs.Clock.now_s () else 0. in
  let tracing = Sf_obs.Trace.active () in
  let checkpoint_every = max 1 (t / 8) in
  if tracing then
    Sf_obs.Trace.emit "gen.mori.grow" Sf_obs.Trace.Begin
      ~args:[ ("t", Sf_obs.Trace.Int t); ("p", Sf_obs.Trace.Float p) ];
  let dsts = Sf_graph.Bigvec.create ~capacity:(max 16 (t - 1)) () in
  Sf_graph.Bigvec.push dsts 1;
  for k = 3 to t do
    let edges_so_far = k - 2 in
    let father =
      let pref_mass = p *. float_of_int edges_so_far in
      let unif_mass = (1. -. p) *. float_of_int (k - 1) in
      if Rng.unit_float rng *. (pref_mass +. unif_mass) < pref_mass then begin
        if obs then Sf_obs.Counter.incr obs_pref_steps;
        Sf_graph.Bigvec.unsafe_get dsts (Rng.int rng (Sf_graph.Bigvec.length dsts))
      end
      else begin
        if obs then Sf_obs.Counter.incr obs_unif_steps;
        1 + Rng.int rng (k - 1)
      end
    in
    if obs then Sf_obs.Histo.observe_int obs_father_age father;
    if tracing && k mod checkpoint_every = 0 then
      Sf_obs.Trace.instant "gen.mori.checkpoint"
        ~args:
          [ ("vertices", Sf_obs.Trace.Int k); ("last_father", Sf_obs.Trace.Int father) ];
    Sf_graph.Bigvec.push dsts father
  done;
  if tracing then Sf_obs.Trace.emit "gen.mori.grow" Sf_obs.Trace.End;
  if obs then begin
    Sf_obs.Counter.add obs_vertices t;
    Sf_obs.Histo.observe obs_build_us ((Sf_obs.Clock.now_s () -. t0) *. 1e6)
  end;
  dsts

let tree_fathers rng ~p ~t =
  check_params ~p ~t;
  grow_fathers rng ~p ~t

let graph_giant rng ~p ~m ~n =
  if m < 1 || n < 1 then invalid_arg "Mori.graph_giant: need m >= 1 and n >= 1";
  if n * m < 2 then invalid_arg "Mori.graph_giant: need n * m >= 2";
  let t = n * m in
  let fathers = tree_fathers rng ~p ~t in
  (* edge j of the tree joins vertex j+2 to fathers.(j); merging maps
     vertex v to group ((v-1)/m)+1, preserving edge ids and order *)
  let srcs_buf = Sf_graph.Bigvec.create_buf (t - 1) in
  let dsts_buf = Sf_graph.Bigvec.create_buf (t - 1) in
  let group v = ((v - 1) / m) + 1 in
  for j = 0 to t - 2 do
    Bigarray.Array1.unsafe_set srcs_buf j (Int32.of_int (group (j + 2)));
    Bigarray.Array1.unsafe_set dsts_buf j
      (Int32.of_int (group (Sf_graph.Bigvec.unsafe_get fathers j)))
  done;
  Sf_graph.Ugraph.of_csr (Sf_graph.Csr.of_endpoint_bufs ~n srcs_buf dsts_buf)

let tree_giant rng ~p ~t =
  check_params ~p ~t;
  graph_giant rng ~p ~m:1 ~n:t

let tree_conditioned rng ~p ~t ~a ~b =
  check_params ~p ~t;
  if a < 2 || a > b || b > t then invalid_arg "Mori.tree_conditioned: need 2 <= a <= b <= t";
  grow rng ~p ~t ~restrict:(fun k -> if k > a && k <= b then Some a else None)

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

let graph rng ~p ~m ~n =
  if m < 1 || n < 1 then invalid_arg "Mori.graph: need m >= 1 and n >= 1";
  if n * m < 2 then invalid_arg "Mori.graph: need n * m >= 2";
  merge ~m (tree rng ~p ~t:(n * m))

let expected_degree_exponent ~p =
  if p <= 0. || p > 1. then invalid_arg "Mori.expected_degree_exponent: need 0 < p <= 1";
  1. +. (1. /. p)
