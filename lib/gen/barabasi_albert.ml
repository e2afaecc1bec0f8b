module Rng = Sf_prng.Rng
module Bigvec = Sf_graph.Bigvec

let generate rng ~n ~m =
  if n < 2 then invalid_arg "Barabasi_albert.generate: need n >= 2";
  if m < 1 then invalid_arg "Barabasi_albert.generate: need m >= 1";
  let capacity = 1 + ((n - 2) * m) in
  let srcs = Bigvec.create ~capacity () and dsts = Bigvec.create ~capacity () in
  Bigvec.push srcs 2;
  Bigvec.push dsts 1;
  (* The endpoint list src_0, dst_0, src_1, dst_1, ... holds every edge
     endpoint; a uniform entry of it is a vertex drawn proportionally
     to total degree.  Entry i is read in place from the two stores. *)
  for v = 3 to n do
    for _ = 1 to m do
      let i = Rng.int rng (2 * Bigvec.length srcs) in
      let target = Bigvec.unsafe_get (if i land 1 = 0 then srcs else dsts) (i lsr 1) in
      Bigvec.push srcs v;
      Bigvec.push dsts target
    done
  done;
  Sf_graph.Ugraph.of_csr (Sf_graph.Csr.of_bigvecs ~n srcs dsts)

let degree_exponent = 3.
