type vertex = int

(* The view is exactly a frozen CSR structure; every query delegates.
   Keeping the type abstract lets the mmap loader (lib/store) hand out
   file-backed views through the same interface. *)
type t = Csr.t

let of_csr c = c
let csr t = t

let of_edges ~n pairs =
  let srcs = Bigvec.create ~capacity:(List.length pairs) ()
  and dsts = Bigvec.create ~capacity:(List.length pairs) () in
  List.iter
    (fun (s, d) ->
      Bigvec.push srcs s;
      Bigvec.push dsts d)
    pairs;
  Csr.of_bigvecs ~n srcs dsts

let n_vertices = Csr.n_vertices
let n_edges = Csr.n_edges
let mem_vertex = Csr.mem_vertex

let check_vertex t v name =
  if not (mem_vertex t v) then invalid_arg ("Ugraph." ^ name ^ ": vertex out of range")

let degree t v =
  check_vertex t v "degree";
  Csr.degree t v

let incident_count = degree

(* a self-loop sits once in its row and is both an out- and an in-edge *)
let count_row t v name endpoint =
  check_vertex t v name;
  let c = ref 0 in
  Csr.iter_incident t v (fun id -> if endpoint t id = v then incr c);
  !c

let out_degree t v = count_row t v "out_degree" Csr.src
let in_degree t v = count_row t v "in_degree" Csr.dst

let incident_nth t v i =
  check_vertex t v "incident_nth";
  Csr.incident_nth t v i

let iter_incident t v f =
  check_vertex t v "iter_incident";
  Csr.iter_incident t v f

let incident t v =
  check_vertex t v "incident";
  let d = Csr.degree t v in
  let out = Array.make d 0 in
  for i = 0 to d - 1 do
    out.(i) <- Csr.incident_nth t v i
  done;
  out

let endpoints t id =
  if id < 0 || id >= Csr.n_edges t then invalid_arg "Ugraph.endpoints: edge id out of range";
  (Csr.src t id, Csr.dst t id)

let other_endpoint t ~edge_id v =
  let s, d = endpoints t edge_id in
  if v = s then d
  else if v = d then s
  else invalid_arg "Ugraph.other_endpoint: vertex is not an endpoint"

let iter_neighbors t v f =
  check_vertex t v "iter_neighbors";
  Csr.iter_neighbors t v f

let neighbors t v =
  let acc = ref [] in
  iter_neighbors t v (fun u -> acc := u :: !acc);
  List.rev !acc

let max_degree = Csr.max_degree
let memory_bytes = Csr.memory_bytes
