(* Every statistic reads the flat endpoint sections by edge id, so a
   10M-vertex mmap-loaded graph is summarised without per-vertex
   boxes (doc/SCALING.md).  The orientation of every edge is kept in
   the graph, and a self-loop contributes 2 to its endpoint's total
   degree. *)

let count_endpoints g ~src ~dst =
  let c = Ugraph.csr g in
  let a = Array.make (Ugraph.n_vertices g) 0 in
  for id = 0 to Ugraph.n_edges g - 1 do
    if src then a.(Csr.src c id - 1) <- a.(Csr.src c id - 1) + 1;
    if dst then a.(Csr.dst c id - 1) <- a.(Csr.dst c id - 1) + 1
  done;
  a

let in_degrees g = count_endpoints g ~src:false ~dst:true
let out_degrees g = count_endpoints g ~src:true ~dst:false
let total_degrees g = count_endpoints g ~src:true ~dst:true

let max_in_degree g = Array.fold_left max 0 (in_degrees g)
let max_total_degree g = Array.fold_left max 0 (total_degrees g)

let mean_degree g =
  let n = Ugraph.n_vertices g in
  if n = 0 then 0. else 2. *. float_of_int (Ugraph.n_edges g) /. float_of_int n

let degree_counts degrees =
  let tbl = Hashtbl.create 64 in
  Array.iter
    (fun d ->
      let c = try Hashtbl.find tbl d with Not_found -> 0 in
      Hashtbl.replace tbl d (c + 1))
    degrees;
  Hashtbl.fold (fun d c acc -> (d, c) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let degree_ccdf degrees =
  let n = Array.length degrees in
  if n = 0 then []
  else begin
    let counts = degree_counts degrees in
    (* Walk degrees in descending order accumulating the tail mass. *)
    let rev = List.rev counts in
    let _, acc =
      List.fold_left
        (fun (tail, acc) (d, c) ->
          let tail = tail + c in
          (tail, (d, float_of_int tail /. float_of_int n) :: acc))
        (0, []) rev
    in
    acc
  end

let self_loops g =
  let c = Ugraph.csr g in
  let loops = ref 0 in
  for id = 0 to Ugraph.n_edges g - 1 do
    if Csr.src c id = Csr.dst c id then incr loops
  done;
  !loops

let parallel_edges g =
  (* sort packed (min, max) endpoint pairs instead of hashing them:
     O(m log m) with one flat scratch array, no per-edge boxes — the
     difference between feasible and not at 10^7 edges *)
  let c = Ugraph.csr g in
  let m = Ugraph.n_edges g in
  let packed =
    Array.init m (fun id ->
        let s = Csr.src c id and d = Csr.dst c id in
        (min s d lsl 31) lor max s d)
  in
  Array.sort compare packed;
  let dups = ref 0 in
  for i = 1 to m - 1 do
    if packed.(i) = packed.(i - 1) then incr dups
  done;
  !dups

let degree_sum_invariant g =
  Array.fold_left ( + ) 0 (total_degrees g) = 2 * Ugraph.n_edges g
