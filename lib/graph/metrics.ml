type degree_profile = {
  min_in : int;
  max_in : int;
  min_out : int;
  max_out : int;
  mean_in : float;
  mean_out : float;
}

let degree_profile g =
  let n = Digraph.vertex_count g in
  if n = 0 then
    { min_in = 0; max_in = 0; min_out = 0; max_out = 0; mean_in = 0.0; mean_out = 0.0 }
  else begin
    let min_in = ref max_int and max_in = ref 0 in
    let min_out = ref max_int and max_out = ref 0 in
    for v = 0 to n - 1 do
      let di = Digraph.in_degree g v and dv = Digraph.out_degree g v in
      if di < !min_in then min_in := di;
      if di > !max_in then max_in := di;
      if dv < !min_out then min_out := dv;
      if dv > !max_out then max_out := dv
    done;
    let mean = float_of_int (Digraph.edge_count g) /. float_of_int n in
    {
      min_in = !min_in;
      max_in = !max_in;
      min_out = !min_out;
      max_out = !max_out;
      mean_in = mean;
      mean_out = mean;
    }
  end

let directed_eccentricity g v =
  Array.fold_left max 0 (Traverse.bfs_directed g ~sources:[ v ])

let diameter_lower_bound g ~samples ~rng =
  let n = Digraph.vertex_count g in
  if n = 0 then 0
  else begin
    let best = ref 0 in
    for _ = 1 to samples do
      let v = Ftcsn_prng.Rng.int rng n in
      best := max !best (directed_eccentricity g v)
    done;
    !best
  end
