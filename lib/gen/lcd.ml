module Rng = Sf_prng.Rng
module Bigvec = Sf_graph.Bigvec

let tree1 rng ~t =
  if t < 1 then invalid_arg "Lcd.tree1: need t >= 1";
  (* Vertex v's edge is edge v-1, so the endpoint list src_0, dst_0,
     src_1, dst_1, ... needs no store of its own: entry i is read from
     [srcs] or [dsts].  When vertex v chooses, its own fresh
     out-endpoint is already in the list (entry 2(v-1), the source of
     the edge being drawn), realising the 1/(2v-1) self-loop
     probability of the LCD convention. *)
  let srcs = Bigvec.create ~capacity:t () and dsts = Bigvec.create ~capacity:t () in
  for v = 1 to t do
    let i = Rng.int rng ((2 * v) - 1) in
    let target =
      if i = 2 * (v - 1) then v
      else Bigvec.unsafe_get (if i land 1 = 0 then srcs else dsts) (i lsr 1)
    in
    Bigvec.push srcs v;
    Bigvec.push dsts target
  done;
  Sf_graph.Ugraph.of_csr (Sf_graph.Csr.of_bigvecs ~n:t srcs dsts)

let generate rng ~n ~m =
  if n < 1 then invalid_arg "Lcd.generate: need n >= 1";
  if m < 1 then invalid_arg "Lcd.generate: need m >= 1";
  Mori.merge ~m (tree1 rng ~t:(n * m))

let max_degree_exponent = 0.5
