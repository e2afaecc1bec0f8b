(** The Móri random tree and the merged m-out Móri graph (the models of
    Theorem 1).

    Growth process, exactly as the paper states it: at time [t = 2] the
    tree has vertices [1, 2] and the single edge [2 -> 1]; at each later
    time a new vertex [t] is added together with one outgoing edge to an
    older vertex [u] chosen with probability proportional to

    {[ p * indegree_t(u) + (1 - p) ]}

    i.e. with probability [p] (of the total weight) preferentially by
    {e indegree} and with weight [(1-p)] per vertex uniformly. The
    parameter range is [0 < p <= 1]; [p = 1] is pure preferential
    attachment on indegree, and small [p] approaches the uniform random
    recursive tree.

    Sampling is exact: with probability [p·(t-2) / (p·(t-2) + (1-p)·(t-1))]
    the father is a uniform entry of the edge-destination list (which
    realises indegree-proportional choice), otherwise a uniform vertex.

    The {e merged} graph [G_t^(m)] takes the Móri tree on [n·m] vertices
    and merges consecutive blocks of [m] vertices; self-loops and
    parallel edges produced by merging are preserved.

    One growth loop serves every function below: it keeps only the
    father sequence in flat int32 storage, and each generator freezes
    that sequence to CSR once (doc/SCALING.md). *)

val tree : Sf_prng.Rng.t -> p:float -> t:int -> Sf_graph.Ugraph.t
(** [tree rng ~p ~t] grows the Móri tree [G_t] on vertices [1..t].
    Vertex [k >= 2] has exactly one out-edge, created at time [k]; edge
    id [k-2] is that edge, so edge ids are insertion timestamps.
    @raise Invalid_argument unless [t >= 2] and [0 < p <= 1]. *)

val tree_conditioned :
  Sf_prng.Rng.t -> p:float -> t:int -> a:int -> b:int -> Sf_graph.Ugraph.t
(** Exact sampling of [G_t] {e conditioned on the event} [E_{a,b}] of
    Lemma 2 (every vertex in [(a, b]] attaches to a vertex [<= a]).
    Conditioning is done step by step — conditional on the event's
    prefix, the indegree mass reachable by a constrained step lives
    entirely in [[1, a]], so the restricted step remains exactly
    sampleable (no rejection). Used by the equivalence tests.
    @raise Invalid_argument unless [2 <= a <= b <= t]. *)

val tree_fathers : Sf_prng.Rng.t -> p:float -> t:int -> Sf_graph.Bigvec.t
(** [tree_fathers rng ~p ~t] is the growth loop's own output: entry
    [k-2] is the father of vertex [k], in flat int32 storage.  With the
    same stream it is the father sequence of {!tree}.  Peak memory is
    ~4 bytes per vertex, which is what makes [t = 10^7] routine
    (doc/SCALING.md).
    @raise Invalid_argument unless [t >= 2] and [0 < p <= 1]. *)

val graph_giant : Sf_prng.Rng.t -> p:float -> m:int -> n:int -> Sf_graph.Ugraph.t
(** [graph_giant rng ~p ~m ~n] is the m-out Móri graph [G^(m)] on [n]
    vertices: the tree on [n·m] vertices merged by blocks of [m]
    ([merge ~m (tree rng ~p ~t:(n·m))] on the same stream). The father
    sequence is mapped through the block-merge projection edge by
    edge, so no intermediate tree is built. Requires [n·m >= 2]. *)

val father : Sf_graph.Ugraph.t -> int -> int
(** [father tree k] is [N_k], the destination of [k]'s out-edge
    (defined for [k >= 2] in a Móri tree or any relabelling of one).
    Scans [k]'s incidence row, O(degree).
    @raise Invalid_argument unless [k] has exactly one out-edge. *)

val fathers : Sf_graph.Ugraph.t -> int array
(** [fathers tree] lists [N_2 .. N_t] ([a.(k-2)] = father of [k]). *)

val merge : m:int -> Sf_graph.Ugraph.t -> Sf_graph.Ugraph.t
(** [merge ~m g] merges vertex blocks [m(i-1)+1 .. mi] of [g] into
    vertex [i]. Requires [m >= 1] and [m] dividing [n_vertices g].
    Every edge of [g] survives (possibly as a self-loop), in edge-id
    order. *)

val expected_degree_exponent : p:float -> float
(** The density exponent of the indegree power law predicted for this
    indegree-based model: with attachment weight [∝ indeg + (1-p)/p]
    the Dorogovtsev–Mendes–Samukhin formula gives [γ = 2 + (1-p)/p =
    1 + 1/p]. So [p = 1/2] reproduces the Barabási–Albert exponent 3,
    and the real-network range [γ ∈ \[2, 3\]] corresponds to
    [p ∈ \[1/2, 1)]. At [p = 1] exactly the model degenerates (vertex
    2 keeps weight 0 and the tree is a star), so no power law. *)
