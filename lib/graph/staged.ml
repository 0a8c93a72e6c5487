type t = {
  stage : int array;
  stages : int;
}

let of_sources g ~sources =
  let stage = Traverse.longest_path_dag g ~sources in
  let stages = 1 + Array.fold_left max (-1) stage in
  { stage; stages }

let vertices_at t s =
  let acc = ref [] in
  for v = Array.length t.stage - 1 downto 0 do
    if t.stage.(v) = s then acc := v :: !acc
  done;
  !acc

let stage_sizes t =
  let sizes = Array.make (max t.stages 0) 0 in
  Array.iter (fun s -> if s >= 0 then sizes.(s) <- sizes.(s) + 1) t.stage;
  sizes

let stage_edge_counts g t =
  let counts = Array.make (max t.stages 1) 0 in
  Digraph.iter_edges g (fun ~eid:_ ~src ~dst:_ ->
      let s = t.stage.(src) in
      if s >= 0 then counts.(s) <- counts.(s) + 1);
  counts
