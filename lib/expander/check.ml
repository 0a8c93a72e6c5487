module Rng = Ftcsn_prng.Rng

let min_neighbourhood_sampled b ~c ~samples ~rng =
  if c < 1 || c > b.Bipartite.inlets then
    invalid_arg "Check.min_neighbourhood_sampled: bad c";
  let best = ref max_int in
  for _ = 1 to samples do
    let s = Rng.sample_without_replacement rng ~n:b.Bipartite.inlets ~k:c in
    let size = Bipartite.neighbourhood_size b s in
    if size < !best then best := size
  done;
  !best
