type t = {
  pair_left : int array;
  pair_right : int array;
  size : int;
}

let infinity_dist = max_int

let matching ~n_left ~n_right ~adj =
  if Array.length adj <> n_left then invalid_arg "Hopcroft_karp.matching";
  let pair_left = Array.make n_left (-1) in
  let pair_right = Array.make n_right (-1) in
  let dist = Array.make n_left 0 in
  let queue = Queue.create () in
  (* BFS layers from free left vertices; returns true if an augmenting
     path exists. *)
  let bfs () =
    Queue.clear queue;
    let found = ref false in
    for l = 0 to n_left - 1 do
      if pair_left.(l) = -1 then begin
        dist.(l) <- 0;
        Queue.add l queue
      end
      else dist.(l) <- infinity_dist
    done;
    while not (Queue.is_empty queue) do
      let l = Queue.pop queue in
      Array.iter
        (fun r ->
          let l' = pair_right.(r) in
          if l' = -1 then found := true
          else if dist.(l') = infinity_dist then begin
            dist.(l') <- dist.(l) + 1;
            Queue.add l' queue
          end)
        adj.(l)
    done;
    !found
  in
  let rec dfs l =
    let rec try_neighbours i =
      if i >= Array.length adj.(l) then begin
        dist.(l) <- infinity_dist;
        false
      end
      else begin
        let r = adj.(l).(i) in
        let l' = pair_right.(r) in
        let ok =
          if l' = -1 then true
          else if dist.(l') = dist.(l) + 1 then dfs l'
          else false
        in
        if ok then begin
          pair_left.(l) <- r;
          pair_right.(r) <- l;
          true
        end
        else try_neighbours (i + 1)
      end
    in
    try_neighbours 0
  in
  let size = ref 0 in
  while bfs () do
    for l = 0 to n_left - 1 do
      if pair_left.(l) = -1 && dfs l then incr size
    done
  done;
  { pair_left; pair_right; size = !size }
