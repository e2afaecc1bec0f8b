(* Tests for the random-graph generators: structural invariants of
   every model, exact-law checks where a law is computable, and the
   conditioned Móri sampler against the closed-form event
   probability. *)

module Rng = Sf_prng.Rng
module Ugraph = Sf_graph.Ugraph
module Traversal = Sf_graph.Traversal
module Metrics = Sf_graph.Metrics
module Mori = Sf_gen.Mori
module Cooper_frieze = Sf_gen.Cooper_frieze
module Config_model = Sf_gen.Config_model
module Kleinberg = Sf_gen.Kleinberg

(* loop-counts-twice degree *)
let total_degree g v = Ugraph.out_degree g v + Ugraph.in_degree g v

(* --- Móri ------------------------------------------------------------- *)

let test_mori_tree_shape () =
  let rng = Rng.of_seed 1 in
  let t = 500 in
  let g = Mori.tree rng ~p:0.5 ~t in
  Alcotest.(check int) "vertices" t (Ugraph.n_vertices g);
  Alcotest.(check int) "edges" (t - 1) (Ugraph.n_edges g);
  for k = 2 to t do
    Alcotest.(check int) "one out-edge each" 1 (Ugraph.out_degree g k);
    Alcotest.(check bool) "father is older" true (Mori.father g k < k)
  done;
  Alcotest.(check int) "root has no out-edge" 0 (Ugraph.out_degree g 1);
  Alcotest.(check bool) "connected" true (Traversal.is_connected g)

let test_mori_edge_ids_are_arrival_times () =
  let rng = Rng.of_seed 2 in
  let g = Mori.tree rng ~p:0.9 ~t:100 in
  for k = 2 to 100 do
    Alcotest.(check (pair int int)) "edge k - 2 is k's out-edge" (k, Mori.father g k)
      (Ugraph.endpoints g (k - 2))
  done

let test_mori_p1_is_preferential () =
  (* with p = 1 vertex 3 must attach to vertex 1 (the only vertex with
     positive indegree at that time) *)
  let rng = Rng.of_seed 3 in
  for _ = 1 to 50 do
    let g = Mori.tree rng ~p:1.0 ~t:3 in
    Alcotest.(check int) "forced father" 1 (Mori.father g 3)
  done

let test_mori_father_frequencies_t3 () =
  (* At k = 3: P(father = 1) = 1 / (2 - p), P(father = 2) = (1-p)/(2-p). *)
  let rng = Rng.of_seed 4 in
  let p = 0.4 in
  let trials = 30_000 in
  let ones = ref 0 in
  for _ = 1 to trials do
    if Mori.father (Mori.tree rng ~p ~t:3) 3 = 1 then incr ones
  done;
  let freq = float_of_int !ones /. float_of_int trials in
  let expected = 1. /. (2. -. p) in
  Alcotest.(check bool) "exact step law" true (Float.abs (freq -. expected) < 0.01)

let test_mori_fathers_accessor () =
  let rng = Rng.of_seed 5 in
  let g = Mori.tree rng ~p:0.5 ~t:50 in
  let fathers = Mori.fathers g in
  Alcotest.(check int) "length" 49 (Array.length fathers);
  Alcotest.(check int) "N_2 = 1" 1 fathers.(0);
  Array.iteri
    (fun i f -> Alcotest.(check int) "agrees with father" f (Mori.father g (i + 2)))
    fathers

let test_mori_conditioned_respects_event () =
  let rng = Rng.of_seed 6 in
  let a = 20 and b = 26 and t = 40 in
  for _ = 1 to 100 do
    let g = Mori.tree_conditioned rng ~p:0.5 ~t ~a ~b in
    Alcotest.(check bool) "event holds" true (Sf_core.Events.holds g ~a ~b);
    Alcotest.(check int) "size unchanged" t (Ugraph.n_vertices g)
  done

let test_mori_conditioned_matches_conditional_law () =
  (* The conditional sampler must reproduce the conditional step law:
     P(N_{a+1} = u | E) for u <= a is the unconditional law renormalised
     to [1, a]. Check the frequency of father 1 at the first window
     step. *)
  let p = 0.6 and a = 5 and b = 6 and t = 8 in
  let rng = Rng.of_seed 7 in
  let trials = 40_000 in
  let count = ref 0 in
  for _ = 1 to trials do
    let g = Mori.tree_conditioned rng ~p ~t ~a ~b in
    if Mori.father g (a + 1) = 1 then incr count
  done;
  let freq = float_of_int !count /. float_of_int trials in
  (* exact: enumerate the conditional probability *)
  let joint =
    Sf_core.Enumerate.event_prob ~p ~t ~condition:(fun g ->
        Sf_core.Events.holds g ~a ~b && Mori.father g (a + 1) = 1)
  in
  let event = Sf_core.Enumerate.event_prob ~p ~t ~condition:(fun g -> Sf_core.Events.holds g ~a ~b) in
  let exact = joint /. event in
  Alcotest.(check bool)
    (Printf.sprintf "conditional sampler law (freq %.4f vs exact %.4f)" freq exact)
    true
    (Float.abs (freq -. exact) < 0.012)

(* --- every generator pinned ---------------------------------------------- *)

(* MD5 of the edge sequence ("n m" then one "src dst" line per edge id)
   and the next draw of the stream, at fixed seeds.  The values were
   recorded before the generators moved from a boxed multigraph to CSR
   output: the draws, the draw order and the edge order must not
   change. *)
let edge_digest g =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf (Printf.sprintf "%d %d\n" (Ugraph.n_vertices g) (Ugraph.n_edges g));
  for id = 0 to Ugraph.n_edges g - 1 do
    let s, d = Ugraph.endpoints g id in
    Buffer.add_string buf (Printf.sprintf "%d %d\n" s d)
  done;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let test_generators_pinned () =
  let cf_q =
    {
      Cooper_frieze.default with
      Cooper_frieze.preference = Cooper_frieze.Total_degree;
      q = [ (1, 0.2); (2, 0.5); (4, 0.3) ];
    }
  in
  let ints a = String.concat "," (Array.to_list (Array.map string_of_int a)) in
  let cases =
    [
      ("ba", 101, "95480b94dcbeb5c347c8a4d1eee52b5c", 891067522,
        fun r -> edge_digest (Sf_gen.Barabasi_albert.generate r ~n:500 ~m:3));
      ("config power_law", 102, "5ffc1034245426fe48ef51e6842f85b0", 341346714,
        fun r -> edge_digest (Config_model.power_law r ~n:600 ~exponent:2.5 ()));
      ("config searchable", 103, "60bf37c51be815bcce42ec880a9c311f", 606709549,
        fun r -> edge_digest (Config_model.searchable_power_law r ~n:600 ~exponent:2.3 ()));
      ("gnm", 104, "0367ba3f0e3b4acbf5972a979718ec53", 837467953,
        fun r -> edge_digest (Sf_gen.Erdos_renyi.gnm r ~n:300 ~m:900));
      ("gnp", 105, "94199f4e2cfda1db6653c68ec17b8e0c", 304142081,
        fun r -> edge_digest (Sf_gen.Erdos_renyi.gnp r ~n:300 ~p:0.02));
      ("kleinberg", 106, "dd80afeca8f299a5877e5afe0d0ba035", 789160908,
        fun r -> edge_digest (Kleinberg.generate r ~side:12 ~r:2. ~q:2 ()).Kleinberg.graph);
      ("lcd tree1", 107, "0cfd42c477f23a2727e7f9a6ea42a852", 17306010,
        fun r -> edge_digest (Sf_gen.Lcd.tree1 r ~t:500));
      ("lcd generate", 108, "26b84f30833cabd45f28daa5e8bc5cee", 907621749,
        fun r -> edge_digest (Sf_gen.Lcd.generate r ~n:200 ~m:3));
      ("uniform tree", 109, "eec58ab3c88a0ba48d055e8ec3bb0733", 293030936,
        fun r -> edge_digest (Sf_gen.Uniform_attachment.tree r ~t:500));
      ("uniform graph", 110, "a295cfa08a1e8336ac6321182648adab", 288898484,
        fun r -> edge_digest (Sf_gen.Uniform_attachment.graph r ~n:300 ~m:2));
      ("watts-strogatz", 111, "cee8d8232e22ac5cfb2841c71c605b01", 382282739,
        fun r -> edge_digest (Sf_gen.Watts_strogatz.generate r ~n:300 ~k:6 ~beta:0.2));
      ("mori tree", 112, "4c01de8923e633ccc149fd32ef07ccc5", 80618205,
        fun r -> edge_digest (Mori.tree r ~p:0.6 ~t:500));
      ("mori graph", 113, "0f2399eaebdbb2e9af6a75d2d6f061b4", 545673098,
        fun r -> edge_digest (Mori.graph_giant r ~p:0.5 ~m:3 ~n:200));
      ("mori tree_conditioned", 114, "26a532f52b9d8a532efcd13c256252c6", 836404975,
        fun r -> edge_digest (Mori.tree_conditioned r ~p:0.5 ~t:300 ~a:40 ~b:46));
      ("cf generate", 115, "daa2972246d110ff7ba8e077c7d3335d", 560993089,
        fun r -> edge_digest (Cooper_frieze.generate r Cooper_frieze.default ~steps:400));
      ("cf generate_n_vertices", 116, "c91036a2f80ac273eb7316d8c83cbaa3", 191276258,
        fun r -> edge_digest (Cooper_frieze.generate_n_vertices r cf_q ~n:400));
      ("cf traced", 117,
        "b74adbbe9a8eac53e888278fff79df38:6f3cbc871ae46e934544800aa0afdeea", 857125103,
        fun r ->
          let g, arrivals = Cooper_frieze.generate_n_vertices_traced r cf_q ~n:400 in
          edge_digest g ^ ":" ^ Digest.to_hex (Digest.string (ints arrivals)));
    ]
  in
  List.iter
    (fun (name, seed, digest, next, build) ->
      let rng = Rng.of_seed seed in
      Alcotest.(check string) (name ^ " edge sequence") digest (build rng);
      Alcotest.(check int) (name ^ " next draw") next (Rng.int rng 1_000_000_000))
    cases

let test_cf_giant_structure () =
  let g = Cooper_frieze.generate_n_vertices (Rng.of_seed 41) Cooper_frieze.default ~n:800 in
  Alcotest.(check int) "vertex count" 800 (Ugraph.n_vertices g);
  Alcotest.(check bool) "connected" true (Traversal.is_connected g);
  (match Sf_graph.Csr.validate (Ugraph.csr g) with
  | Ok () -> ()
  | Error msg -> Alcotest.fail ("CSR invalid: " ^ msg));
  (* vertex 1's self-loop survives as edge 0 *)
  Alcotest.(check (pair int int)) "initial self-loop" (1, 1) (Ugraph.endpoints g 0)

let test_merge_properties () =
  let rng = Rng.of_seed 8 in
  let m = 3 and n = 40 in
  let tree = Mori.tree rng ~p:0.5 ~t:(n * m) in
  let merged = Mori.merge ~m tree in
  Alcotest.(check int) "merged vertices" n (Ugraph.n_vertices merged);
  Alcotest.(check int) "edges preserved" (Ugraph.n_edges tree) (Ugraph.n_edges merged);
  Alcotest.(check bool) "connected" true (Traversal.is_connected merged);
  (* every merged edge descends from a tree edge of the right blocks *)
  let group v = ((v - 1) / m) + 1 in
  for id = 0 to Ugraph.n_edges tree - 1 do
    let ts, td = Ugraph.endpoints tree id and ms, md = Ugraph.endpoints merged id in
    Alcotest.(check int) "src block" (group ts) ms;
    Alcotest.(check int) "dst block" (group td) md
  done

let test_merge_m1_is_identity () =
  let rng = Rng.of_seed 9 in
  let tree = Mori.tree rng ~p:0.5 ~t:30 in
  Alcotest.(check bool) "m=1 merge copies" true
    (Sf_graph.Csr.equal (Ugraph.csr tree) (Ugraph.csr (Mori.merge ~m:1 tree)))

let test_mori_graph_out_degree () =
  let rng = Rng.of_seed 10 in
  let g = Mori.graph_giant rng ~p:0.7 ~m:4 ~n:50 in
  Alcotest.(check int) "vertices" 50 (Ugraph.n_vertices g);
  Alcotest.(check int) "edges" ((50 * 4) - 1) (Ugraph.n_edges g);
  (* every merged vertex except the first has out-degree exactly m *)
  for v = 2 to 50 do
    Alcotest.(check int) "out degree m" 4 (Ugraph.out_degree g v)
  done;
  Alcotest.(check int) "first block out degree m-1" 3 (Ugraph.out_degree g 1)

let test_mori_validation () =
  let rng = Rng.of_seed 11 in
  Alcotest.check_raises "p out of range" (Invalid_argument "Mori: need 0 < p <= 1") (fun () ->
      ignore (Mori.tree rng ~p:0. ~t:5));
  Alcotest.check_raises "t too small" (Invalid_argument "Mori: need t >= 2") (fun () ->
      ignore (Mori.tree rng ~p:0.5 ~t:1));
  Alcotest.check_raises "bad window"
    (Invalid_argument "Mori.tree_conditioned: need 2 <= a <= b <= t") (fun () ->
      ignore (Mori.tree_conditioned rng ~p:0.5 ~t:10 ~a:8 ~b:4))

let test_degree_exponent_formula () =
  Alcotest.(check (float 1e-9)) "p=0.5 gives BA exponent 3" 3. (Mori.expected_degree_exponent ~p:0.5);
  Alcotest.(check (float 1e-9)) "p=2/3 gives 2.5" 2.5 (Mori.expected_degree_exponent ~p:(2. /. 3.))

let test_mori_degree_exponent_recovery () =
  (* Model recovery: the CSN tail fit of a grown tree's indegrees must
     land near 1 + 1/p.  The law is a shifted power law ~ (k + A)^-γ
     with A = (1-p)/p, so a pure power-law fit from a small x_min reads
     low; the bounds below are the worst deviation over seeds 1..20 at
     this t, rounded up by ~0.05, and sit well apart for the two p. *)
  let t = 100_000 in
  let fitted p =
    List.map
      (fun seed ->
        let u = Mori.tree (Rng.of_seed seed) ~p ~t in
        (Sf_stats.Power_law.fit_scan (Metrics.in_degrees u) ()).Sf_stats.Power_law.alpha)
      [ 1; 2; 3; 4 ]
  in
  let check p ~tol =
    let expected = Mori.expected_degree_exponent ~p in
    let gammas = fitted p in
    List.iter
      (fun g ->
        Alcotest.(check bool)
          (Printf.sprintf "p=%g: gamma %.3f within %.2f of %.3f" p g tol expected)
          true
          (Float.abs (g -. expected) <= tol))
      gammas;
    List.fold_left ( +. ) 0. gammas /. float_of_int (List.length gammas)
  in
  let mean_half = check 0.5 ~tol:0.55 and mean_three_quarters = check 0.75 ~tol:0.25 in
  Alcotest.(check bool) "smaller p, steeper tail" true (mean_half > mean_three_quarters +. 0.2)

(* --- Barabási–Albert ---------------------------------------------------- *)

let test_ba_shape () =
  let rng = Rng.of_seed 12 in
  let g = Sf_gen.Barabasi_albert.generate rng ~n:200 ~m:3 in
  Alcotest.(check int) "vertices" 200 (Ugraph.n_vertices g);
  Alcotest.(check int) "edges" (1 + (198 * 3)) (Ugraph.n_edges g);
  Alcotest.(check bool) "connected" true (Traversal.is_connected g);
  for v = 3 to 200 do
    Alcotest.(check int) "m out-edges" 3 (Ugraph.out_degree g v)
  done

let test_ba_rich_get_richer () =
  (* the first vertices should accumulate far more than median degree *)
  let rng = Rng.of_seed 13 in
  let g = Sf_gen.Barabasi_albert.generate rng ~n:2000 ~m:2 in
  let degrees = Metrics.total_degrees g in
  let median =
    Sf_stats.Quantile.median (Sf_stats.Quantile.of_int_array degrees)
  in
  Alcotest.(check bool) "hub formation" true (float_of_int degrees.(0) > 10. *. median)

(* --- Cooper–Frieze ------------------------------------------------------- *)

let test_cf_validation () =
  Alcotest.(check bool) "default valid" true (Result.is_ok (Cooper_frieze.validate Cooper_frieze.default));
  let bad = { Cooper_frieze.default with Cooper_frieze.alpha = 1.5 } in
  Alcotest.(check bool) "alpha out of range" true (Result.is_error (Cooper_frieze.validate bad));
  let bad_dist = { Cooper_frieze.default with Cooper_frieze.q = [ (1, 0.4) ] } in
  Alcotest.(check bool) "non-normalised distribution" true
    (Result.is_error (Cooper_frieze.validate bad_dist))

let test_cf_growth_and_connectivity () =
  let rng = Rng.of_seed 14 in
  let g = Cooper_frieze.generate_n_vertices rng Cooper_frieze.default ~n:300 in
  Alcotest.(check int) "vertex count" 300 (Ugraph.n_vertices g);
  Alcotest.(check bool) "connected" true (Traversal.is_connected g)

let test_cf_steps_count () =
  let rng = Rng.of_seed 15 in
  let g = Cooper_frieze.generate rng Cooper_frieze.default ~steps:500 in
  (* each NEW step adds one vertex; alpha = 1/2 so roughly 250 + 1 *)
  let n = Ugraph.n_vertices g in
  Alcotest.(check bool) "plausible vertex count" true (n > 180 && n < 320);
  (* edges: every step adds >= 1 edge, plus the initial loop *)
  Alcotest.(check bool) "edges >= steps" true (Ugraph.n_edges g >= 501)

let test_cf_alpha1_only_new () =
  let rng = Rng.of_seed 16 in
  let params = { Cooper_frieze.default with Cooper_frieze.alpha = 1.0 } in
  let g = Cooper_frieze.generate rng params ~steps:100 in
  Alcotest.(check int) "every step adds a vertex" 101 (Ugraph.n_vertices g)

let test_cf_traced_arrival_degrees () =
  let rng = Rng.of_seed 17 in
  let g, arrival = Cooper_frieze.generate_n_vertices_traced rng Cooper_frieze.default ~n:200 in
  Alcotest.(check int) "arrival array size" (Ugraph.n_vertices g) (Array.length arrival);
  Alcotest.(check int) "vertex 1 born with the loop" 1 arrival.(0);
  let support = List.map fst Cooper_frieze.default.Cooper_frieze.q in
  for v = 2 to Ugraph.n_vertices g do
    Alcotest.(check bool) "arrival degree in q's support" true (List.mem arrival.(v - 1) support);
    Alcotest.(check bool) "final out-degree >= arrival" true
      (Ugraph.out_degree g v >= arrival.(v - 1))
  done

let test_cf_total_degree_mode () =
  let rng = Rng.of_seed 18 in
  let params = { Cooper_frieze.default with Cooper_frieze.preference = Cooper_frieze.Total_degree } in
  let g = Cooper_frieze.generate_n_vertices rng params ~n:200 in
  Alcotest.(check bool) "connected in total-degree mode" true
    (Traversal.is_connected g)

let test_cf_mean_out_degree () =
  Alcotest.(check (float 1e-9)) "mean of default q" 1.5
    (Cooper_frieze.mean_out_degree Cooper_frieze.default.Cooper_frieze.q)

(* --- configuration model --------------------------------------------------- *)

let test_config_degree_sequence_exact () =
  let rng = Rng.of_seed 19 in
  let deg = [| 3; 2; 2; 1; 1; 1 |] in
  let g = Config_model.of_degree_sequence rng deg in
  Alcotest.(check int) "edges = sum/2" 5 (Ugraph.n_edges g);
  Array.iteri
    (fun i d ->
      Alcotest.(check int) (Printf.sprintf "degree of %d" (i + 1)) d (total_degree g (i + 1)))
    deg

let test_config_rejects_odd_sum () =
  let rng = Rng.of_seed 20 in
  Alcotest.check_raises "odd sum" (Invalid_argument "Config_model: degree sum must be even")
    (fun () -> ignore (Config_model.of_degree_sequence rng [| 1; 1; 1 |]))

let test_power_law_degrees () =
  let rng = Rng.of_seed 21 in
  let deg = Config_model.power_law_degrees rng ~n:2000 ~exponent:2.5 ~d_min:2 () in
  Alcotest.(check int) "n degrees" 2000 (Array.length deg);
  Alcotest.(check int) "even total" 0 (Array.fold_left ( + ) 0 deg mod 2);
  Array.iter (fun d -> Alcotest.(check bool) "d >= d_min" true (d >= 2)) deg

let test_simple_graph () =
  let g = Ugraph.of_edges ~n:3 [ (1, 2); (2, 1); (1, 1); (2, 3) ] in
  let s = Config_model.simple_graph g in
  Alcotest.(check int) "loops and duplicates removed" 2 (Ugraph.n_edges s);
  Alcotest.(check int) "no self loops" 0 (Metrics.self_loops s);
  Alcotest.(check int) "no parallel edges" 0 (Metrics.parallel_edges s)

let test_searchable_power_law () =
  let rng = Rng.of_seed 22 in
  let u = Config_model.searchable_power_law rng ~n:1500 ~exponent:2.3 () in
  Alcotest.(check bool) "connected" true (Traversal.is_connected u);
  Alcotest.(check bool) "giant component" true (Ugraph.n_vertices u > 1000);
  Alcotest.(check int) "simple" 0 (Metrics.self_loops u + Metrics.parallel_edges u)

(* --- Kleinberg -------------------------------------------------------------- *)

let test_kleinberg_coords () =
  let side = 5 in
  for v = 1 to side * side do
    let r, c = Kleinberg.coord_of_vertex ~side v in
    Alcotest.(check int) "coord roundtrip" v (Kleinberg.vertex_of_coord ~side ~row:r ~col:c)
  done;
  Alcotest.(check int) "wrapping" (Kleinberg.vertex_of_coord ~side ~row:0 ~col:0)
    (Kleinberg.vertex_of_coord ~side ~row:5 ~col:(-5))

let test_kleinberg_distance () =
  let side = 6 in
  let v1 = Kleinberg.vertex_of_coord ~side ~row:0 ~col:0 in
  let v2 = Kleinberg.vertex_of_coord ~side ~row:0 ~col:5 in
  (* wraps: distance 1, not 5 *)
  Alcotest.(check int) "toroidal wrap" 1 (Kleinberg.lattice_distance ~side v1 v2);
  let v3 = Kleinberg.vertex_of_coord ~side ~row:3 ~col:3 in
  Alcotest.(check int) "manhattan" 6 (Kleinberg.lattice_distance ~side v1 v3)

let test_kleinberg_structure () =
  let rng = Rng.of_seed 23 in
  let t = Kleinberg.generate rng ~side:8 ~r:2. ~q:1 () in
  let g = t.Kleinberg.graph in
  Alcotest.(check int) "vertices" 64 (Kleinberg.n_vertices t);
  (* 2 lattice edges per vertex + 1 long-range each *)
  Alcotest.(check int) "edges" (64 * 3) (Ugraph.n_edges g);
  Alcotest.(check bool) "connected" true (Traversal.is_connected g);
  (* long-range edges (the third out-edge of each vertex) never have
     lattice distance 0 *)
  for id = 0 to Ugraph.n_edges g - 1 do
    let s, d = Ugraph.endpoints g id in
    if s = d then Alcotest.fail "self-loop in Kleinberg graph"
  done

let test_kleinberg_q0 () =
  let rng = Rng.of_seed 24 in
  let t = Kleinberg.generate rng ~side:4 ~r:1. ~q:0 () in
  Alcotest.(check int) "pure lattice edges" 32 (Ugraph.n_edges t.Kleinberg.graph)

let test_kleinberg_r0_uniform () =
  (* r = 0: long-range endpoints uniform; mean lattice distance of the
     long link should be near the mean over the torus *)
  let rng = Rng.of_seed 25 in
  let side = 10 in
  let t = Kleinberg.generate rng ~side ~r:0. ~q:1 () in
  let sum = ref 0 and count = ref 0 in
  for id = 0 to Ugraph.n_edges t.Kleinberg.graph - 1 do
    let u, v = Ugraph.endpoints t.Kleinberg.graph id in
    let d = Kleinberg.lattice_distance ~side u v in
    if d > 1 then begin
      sum := !sum + d;
      incr count
    end
  done;
  let mean = float_of_int !sum /. float_of_int (max 1 !count) in
  Alcotest.(check bool) "long links reach far when r=0" true (mean > 3.5)

(* --- LCD (Bollobás–Riordan) ----------------------------------------------------- *)

let test_lcd_tree_shape () =
  let rng = Rng.of_seed 60 in
  let g = Sf_gen.Lcd.tree1 rng ~t:500 in
  Alcotest.(check int) "vertices" 500 (Ugraph.n_vertices g);
  Alcotest.(check int) "edges" 500 (Ugraph.n_edges g);
  (* vertex 1's only choice is itself *)
  Alcotest.(check (pair int int)) "first edge is the root loop" (1, 1) (Ugraph.endpoints g 0);
  for k = 2 to 500 do
    Alcotest.(check int) "one out-edge per vertex" 1 (Ugraph.out_degree g k);
    Alcotest.(check bool) "attaches to an older-or-equal vertex" true
      (snd (Ugraph.endpoints g (k - 1)) <= k)
  done;
  (* the m = 1 LCD graph is a forest: every self-loop roots a component *)
  let loops = Metrics.self_loops g in
  let components = Array.length (Traversal.component_sizes g) in
  Alcotest.(check int) "one component per self-loop" loops components

let test_lcd_self_loop_rate () =
  (* vertex 2 self-loops with probability 1/3 in the LCD convention *)
  let rng = Rng.of_seed 61 in
  let trials = 30_000 in
  let loops = ref 0 in
  for _ = 1 to trials do
    let g = Sf_gen.Lcd.tree1 rng ~t:2 in
    if snd (Ugraph.endpoints g 1) = 2 then incr loops
  done;
  let freq = float_of_int !loops /. float_of_int trials in
  Alcotest.(check bool)
    (Printf.sprintf "P(loop at 2) = %.3f ~ 1/3" freq)
    true
    (Float.abs (freq -. (1. /. 3.)) < 0.01)

let test_lcd_merged () =
  let rng = Rng.of_seed 62 in
  let g = Sf_gen.Lcd.generate rng ~n:100 ~m:3 in
  Alcotest.(check int) "vertices" 100 (Ugraph.n_vertices g);
  Alcotest.(check int) "edges" 300 (Ugraph.n_edges g)

let test_lcd_hub_growth () =
  (* total-degree preferential attachment: max degree ~ sqrt(t), so it
     should dwarf the uniform tree's log-size hubs *)
  let rng = Rng.of_seed 63 in
  let lcd = Sf_gen.Lcd.tree1 rng ~t:8000 in
  let uni = Sf_gen.Uniform_attachment.tree rng ~t:8000 in
  Alcotest.(check bool) "lcd hubs much larger" true
    (Metrics.max_total_degree lcd > 3 * Metrics.max_total_degree uni)

(* --- uniform attachment and Erdős–Rényi -------------------------------------- *)

let test_uniform_attachment_tree () =
  let rng = Rng.of_seed 26 in
  let g = Sf_gen.Uniform_attachment.tree rng ~t:300 in
  Alcotest.(check int) "edges" 299 (Ugraph.n_edges g);
  Alcotest.(check bool) "connected" true (Traversal.is_connected g);
  (* uniform attachment has geometric-ish indegree: max degree should
     stay tiny compared to preferential attachment *)
  Alcotest.(check bool) "no giant hub" true (Metrics.max_in_degree g < 30)

let test_uniform_attachment_graph () =
  let rng = Rng.of_seed 27 in
  let g = Sf_gen.Uniform_attachment.graph rng ~n:100 ~m:2 in
  Alcotest.(check int) "edges" (1 + (98 * 2)) (Ugraph.n_edges g)

let test_gnm () =
  let rng = Rng.of_seed 28 in
  let g = Sf_gen.Erdos_renyi.gnm rng ~n:50 ~m:100 in
  Alcotest.(check int) "edge count exact" 100 (Ugraph.n_edges g);
  Alcotest.(check int) "no loops" 0 (Metrics.self_loops g);
  Alcotest.(check int) "no duplicates" 0 (Metrics.parallel_edges g);
  Alcotest.check_raises "too many edges"
    (Invalid_argument "Erdos_renyi.gnm: too many edges requested") (fun () ->
      ignore (Sf_gen.Erdos_renyi.gnm rng ~n:4 ~m:7))

let test_gnp_mean_edges () =
  let rng = Rng.of_seed 29 in
  let n = 60 and p = 0.1 in
  let total = ref 0 in
  let reps = 200 in
  for _ = 1 to reps do
    total := !total + Ugraph.n_edges (Sf_gen.Erdos_renyi.gnp rng ~n ~p)
  done;
  let mean = float_of_int !total /. float_of_int reps in
  let expected = float_of_int (n * (n - 1) / 2) *. p in
  Alcotest.(check bool)
    (Printf.sprintf "gnp edge mean %.1f vs %.1f" mean expected)
    true
    (Float.abs (mean -. expected) /. expected < 0.05);
  Alcotest.(check int) "gnp p=0 empty" 0 (Ugraph.n_edges (Sf_gen.Erdos_renyi.gnp rng ~n:10 ~p:0.));
  Alcotest.(check int) "gnp p=1 complete" 45 (Ugraph.n_edges (Sf_gen.Erdos_renyi.gnp rng ~n:10 ~p:1.))

(* --- Watts–Strogatz -------------------------------------------------------------- *)

let test_ws_beta0_is_ring_lattice () =
  let rng = Rng.of_seed 70 in
  let n = 30 and k = 4 in
  let g = Sf_gen.Watts_strogatz.generate rng ~n ~k ~beta:0. in
  Alcotest.(check int) "edges nk/2" (n * k / 2) (Ugraph.n_edges g);
  (* every vertex has total degree exactly k, and neighbours are the
     nearest ring positions *)
  for v = 1 to n do
    Alcotest.(check int) (Printf.sprintf "degree of %d" v) k (total_degree g v)
  done;
  Alcotest.(check bool) "connected" true (Traversal.is_connected g);
  Alcotest.(check int) "no rewiring: zero parallel edges" 0 (Metrics.parallel_edges g)

let test_ws_rewired_properties () =
  let rng = Rng.of_seed 71 in
  let n = 500 and k = 6 in
  let g = Sf_gen.Watts_strogatz.generate rng ~n ~k ~beta:0.2 in
  Alcotest.(check int) "edge count preserved" (n * k / 2) (Ugraph.n_edges g);
  Alcotest.(check int) "simple (no loops)" 0 (Metrics.self_loops g);
  Alcotest.(check int) "simple (no duplicates)" 0 (Metrics.parallel_edges g);
  (* no hubs: max degree stays near k *)
  Alcotest.(check bool) "concentrated degrees" true (Metrics.max_total_degree g < 3 * k)

let test_ws_small_world_shortcut_effect () =
  (* rewiring shrinks distances dramatically versus the pure ring *)
  let rng = Rng.of_seed 72 in
  let n = 400 and k = 4 in
  let ring = Sf_gen.Watts_strogatz.generate rng ~n ~k ~beta:0. in
  let sw = Sf_gen.Watts_strogatz.generate rng ~n ~k ~beta:0.1 in
  let d_ring = Traversal.diameter_double_sweep ring rng in
  let d_sw = Traversal.diameter_double_sweep sw rng in
  Alcotest.(check bool)
    (Printf.sprintf "shortcuts shrink the world (%d < %d / 3)" d_sw d_ring)
    true
    (d_sw < d_ring / 3)

let test_ws_validation () =
  let rng = Rng.of_seed 73 in
  Alcotest.check_raises "odd k" (Invalid_argument "Watts_strogatz.generate: k must be even and >= 2")
    (fun () -> ignore (Sf_gen.Watts_strogatz.generate rng ~n:10 ~k:3 ~beta:0.1));
  Alcotest.check_raises "n too small" (Invalid_argument "Watts_strogatz.generate: need n > k")
    (fun () -> ignore (Sf_gen.Watts_strogatz.generate rng ~n:4 ~k:4 ~beta:0.1))

(* --- qcheck properties --------------------------------------------------------- *)

let prop_mori_tree_invariants =
  QCheck.Test.make ~name:"Mori tree invariants" ~count:60
    QCheck.(
      make
        ~print:(fun (s, t, p) -> Printf.sprintf "(seed=%d t=%d p=%.2f)" s t p)
        Gen.(triple (int_bound 100_000) (int_range 2 300) (float_range 0.05 1.0)))
    (fun (seed, t, p) ->
      let g = Mori.tree (Rng.of_seed seed) ~p ~t in
      Ugraph.n_edges g = t - 1
      && (let ok = ref true in
          for k = 2 to t do
            if Mori.father g k >= k then ok := false
          done;
          !ok)
      && Traversal.is_connected g)

let prop_config_model_degrees =
  QCheck.Test.make ~name:"configuration model realises its sequence" ~count:60
    QCheck.(
      make
        ~print:(fun (s, l) ->
          Printf.sprintf "(seed=%d, %s)" s (String.concat "," (List.map string_of_int l)))
        Gen.(pair (int_bound 100_000) (list_size (int_range 2 40) (int_range 0 6))))
    (fun (seed, degrees) ->
      let deg = Array.of_list degrees in
      let total = Array.fold_left ( + ) 0 deg in
      if total mod 2 = 1 then deg.(0) <- deg.(0) + 1;
      let g = Config_model.of_degree_sequence (Rng.of_seed seed) deg in
      Array.for_all
        (fun i -> total_degree g (i + 1) = deg.(i))
        (Array.init (Array.length deg) Fun.id))

let prop_cf_always_connected =
  QCheck.Test.make ~name:"Cooper-Frieze connected by construction" ~count:30
    QCheck.(
      make
        ~print:(fun (s, n, alpha) -> Printf.sprintf "(seed=%d n=%d alpha=%.2f)" s n alpha)
        Gen.(triple (int_bound 100_000) (int_range 2 150) (float_range 0.2 0.95)))
    (fun (seed, n, alpha) ->
      let params = { Cooper_frieze.default with Cooper_frieze.alpha } in
      let g = Cooper_frieze.generate_n_vertices (Rng.of_seed seed) params ~n in
      Traversal.is_connected g)

let prop_mori_giant_parity =
  QCheck.Test.make ~name:"Mori giant engine samplewise equals legacy" ~count:40
    QCheck.(
      make
        ~print:(fun (s, p, m, n) -> Printf.sprintf "(seed=%d p=%.2f m=%d n=%d)" s p m n)
        Gen.(
          quad (int_bound 100_000) (float_range 0.05 1.0) (int_range 1 4) (int_range 2 120)))
    (fun (seed, p, m, n) ->
      (* the definitional construction: grow the tree on n·m vertices,
         then merge blocks of m — graph_giant skips the tree *)
      let legacy = Mori.merge ~m (Mori.tree (Rng.of_seed seed) ~p ~t:(n * m)) in
      let giant = Mori.graph_giant (Rng.of_seed seed) ~p ~m ~n in
      Sf_graph.Csr.equal (Ugraph.csr legacy) (Ugraph.csr giant))

let suite =
  [
    ("mori tree shape", `Quick, test_mori_tree_shape);
    ("mori edge ids", `Quick, test_mori_edge_ids_are_arrival_times);
    ("mori p=1 preferential", `Quick, test_mori_p1_is_preferential);
    ("mori step law", `Quick, test_mori_father_frequencies_t3);
    ("mori fathers accessor", `Quick, test_mori_fathers_accessor);
    ("mori conditioned event", `Quick, test_mori_conditioned_respects_event);
    ("mori conditioned law", `Slow, test_mori_conditioned_matches_conditional_law);
    ("generators pinned", `Quick, test_generators_pinned);
    ("CF giant structure", `Quick, test_cf_giant_structure);
    ("merge properties", `Quick, test_merge_properties);
    ("merge m=1 identity", `Quick, test_merge_m1_is_identity);
    ("mori graph out-degrees", `Quick, test_mori_graph_out_degree);
    ("mori validation", `Quick, test_mori_validation);
    ("degree exponent formula", `Quick, test_degree_exponent_formula);
    ("mori degree exponent recovery", `Quick, test_mori_degree_exponent_recovery);
    ("BA shape", `Quick, test_ba_shape);
    ("BA hubs", `Quick, test_ba_rich_get_richer);
    ("CF validation", `Quick, test_cf_validation);
    ("CF growth", `Quick, test_cf_growth_and_connectivity);
    ("CF step count", `Quick, test_cf_steps_count);
    ("CF alpha=1", `Quick, test_cf_alpha1_only_new);
    ("CF traced arrivals", `Quick, test_cf_traced_arrival_degrees);
    ("CF total-degree mode", `Quick, test_cf_total_degree_mode);
    ("CF mean out degree", `Quick, test_cf_mean_out_degree);
    ("config model exact degrees", `Quick, test_config_degree_sequence_exact);
    ("config model odd sum", `Quick, test_config_rejects_odd_sum);
    ("power-law degrees", `Quick, test_power_law_degrees);
    ("simple graph", `Quick, test_simple_graph);
    ("searchable power law", `Quick, test_searchable_power_law);
    ("kleinberg coords", `Quick, test_kleinberg_coords);
    ("kleinberg distance", `Quick, test_kleinberg_distance);
    ("kleinberg structure", `Quick, test_kleinberg_structure);
    ("kleinberg q=0", `Quick, test_kleinberg_q0);
    ("kleinberg r=0 uniform", `Quick, test_kleinberg_r0_uniform);
    ("lcd tree shape", `Quick, test_lcd_tree_shape);
    ("lcd self-loop rate", `Quick, test_lcd_self_loop_rate);
    ("lcd merged", `Quick, test_lcd_merged);
    ("lcd hub growth", `Quick, test_lcd_hub_growth);
    ("uniform attachment tree", `Quick, test_uniform_attachment_tree);
    ("uniform attachment graph", `Quick, test_uniform_attachment_graph);
    ("watts-strogatz ring", `Quick, test_ws_beta0_is_ring_lattice);
    ("watts-strogatz rewired", `Quick, test_ws_rewired_properties);
    ("watts-strogatz shortcuts", `Quick, test_ws_small_world_shortcut_effect);
    ("watts-strogatz validation", `Quick, test_ws_validation);
    ("gnm", `Quick, test_gnm);
    ("gnp mean edges", `Quick, test_gnp_mean_edges);
    QCheck_alcotest.to_alcotest prop_mori_tree_invariants;
    QCheck_alcotest.to_alcotest prop_config_model_degrees;
    QCheck_alcotest.to_alcotest prop_cf_always_connected;
    QCheck_alcotest.to_alcotest prop_mori_giant_parity;
  ]
