module Bitset = Ftcsn_util.Bitset

let always _ = true

let bfs_core ~undirected ?(allowed = always) ?(edge_ok = always) g ~sources =
  let n = Digraph.vertex_count g in
  let dist = Array.make n (-1) in
  let queue = Queue.create () in
  List.iter
    (fun s ->
      if dist.(s) = -1 then begin
        dist.(s) <- 0;
        Queue.add s queue
      end)
    sources;
  let visit d v = if dist.(v) = -1 && allowed v then begin
    dist.(v) <- d;
    Queue.add v queue
  end
  in
  while not (Queue.is_empty queue) do
    let v = Queue.pop queue in
    let d = dist.(v) + 1 in
    Digraph.iter_out g v (fun ~dst ~eid -> if edge_ok eid then visit d dst);
    if undirected then
      Digraph.iter_in g v (fun ~src ~eid -> if edge_ok eid then visit d src)
  done;
  dist

let bfs_directed ?allowed ?edge_ok g ~sources =
  bfs_core ~undirected:false ?allowed ?edge_ok g ~sources

let bfs_undirected ?allowed ?edge_ok g ~sources =
  bfs_core ~undirected:true ?allowed ?edge_ok g ~sources

(* Scratch-buffer BFS: same visit discipline as [bfs_core ~undirected:false]
   (FIFO over out-edges in CSR order), but the queue and distance arrays are
   caller-provided so the steady state of a Monte-Carlo sweep performs no
   allocation.  BFS distances are independent of tie-breaking, so this is
   bit-identical to the allocating variant wherever only [dist] is read. *)
let bfs_directed_into ?(allowed = always) ?(edge_ok = always) g ~sources ~queue
    ~dist =
  let n = Digraph.vertex_count g in
  if Array.length queue < n || Array.length dist < n then
    invalid_arg "Traverse.bfs_directed_into: scratch arrays too small";
  Array.fill dist 0 n (-1);
  let head = ref 0 and tail = ref 0 in
  List.iter
    (fun s ->
      if dist.(s) = -1 then begin
        dist.(s) <- 0;
        queue.(!tail) <- s;
        incr tail
      end)
    sources;
  while !head < !tail do
    let v = queue.(!head) in
    incr head;
    let d = dist.(v) + 1 in
    Digraph.iter_out g v (fun ~dst ~eid ->
        if edge_ok eid && dist.(dst) = -1 && allowed dst then begin
          dist.(dst) <- d;
          queue.(!tail) <- dst;
          incr tail
        end)
  done

let bfs_directed_max_dist g ~sources =
  Array.fold_left max 0 (bfs_directed g ~sources)

let reachable ?allowed g ~sources =
  let dist = bfs_directed ?allowed g ~sources in
  let set = Bitset.create (Digraph.vertex_count g) in
  Array.iteri (fun v d -> if d >= 0 then Bitset.add set v) dist;
  set

(* Kahn's algorithm over the raw CSR.  [order] doubles as the FIFO:
   vertices are appended when their in-degree drops to zero and popped
   from [head], so the output is the order a queue would produce. *)
let topological_order ?(edge_ok = always) g =
  let n = Digraph.vertex_count g in
  let out_off = Digraph.Csr.out_off g
  and out_dst = Digraph.Csr.out_dst g
  and out_eid = Digraph.Csr.out_eid g in
  let indeg = Array.make n 0 in
  for k = 0 to out_off.(n) - 1 do
    if edge_ok out_eid.(k) then indeg.(out_dst.(k)) <- indeg.(out_dst.(k)) + 1
  done;
  let order = Array.make n (-1) in
  let tail = ref 0 in
  for v = 0 to n - 1 do
    if indeg.(v) = 0 then begin
      order.(!tail) <- v;
      incr tail
    end
  done;
  let head = ref 0 in
  while !head < !tail do
    let v = order.(!head) in
    incr head;
    for k = out_off.(v) to out_off.(v + 1) - 1 do
      if edge_ok out_eid.(k) then begin
        let w = out_dst.(k) in
        indeg.(w) <- indeg.(w) - 1;
        if indeg.(w) = 0 then begin
          order.(!tail) <- w;
          incr tail
        end
      end
    done
  done;
  if !tail = n then Some order else None

let is_acyclic g = topological_order g <> None

let longest_path_dag ?(edge_ok = always) g ~sources =
  match topological_order ~edge_ok g with
  | None -> invalid_arg "Traverse.longest_path_dag: cyclic graph"
  | Some order ->
      let out_off = Digraph.Csr.out_off g
      and out_dst = Digraph.Csr.out_dst g
      and out_eid = Digraph.Csr.out_eid g in
      let dist = Array.make (Digraph.vertex_count g) (-1) in
      List.iter (fun s -> dist.(s) <- 0) sources;
      Array.iter
        (fun v ->
          let d = dist.(v) in
          if d >= 0 then
            for k = out_off.(v) to out_off.(v + 1) - 1 do
              let w = out_dst.(k) in
              if edge_ok out_eid.(k) && d + 1 > dist.(w) then dist.(w) <- d + 1
            done)
        order;
      dist

let depth g ~inputs ~outputs =
  let dist = longest_path_dag g ~sources:inputs in
  List.fold_left (fun acc o -> max acc dist.(o)) (-1) outputs

(* Arena-based shortest path: FIFO over out-edges in CSR order, a vertex
   entered at most once, [dst] entered regardless of [allowed].  "Seen" is
   an epoch stamp instead of a freshly filled array, so a call touches
   only the vertices it visits (no O(V) fill), and the loop state lives
   in the arena's mutable int fields, so a call allocates zero minor
   words.  The test suite pins the paths against the allocating
   textbook BFS this replaced. *)
let shortest_path_arena_buf ~allowed ~edge_ok g ~(arena : Arena.t) ~src ~dst
    ~buf =
  let n = Digraph.vertex_count g in
  if Arena.size arena < n || Array.length buf < n then
    invalid_arg "Traverse.shortest_path_arena_buf: scratch too small";
  if src = dst then begin
    buf.(0) <- src;
    1
  end
  else begin
    let a = arena in
    let gen = Arena.next_generation a in
    let stamp = a.Arena.stamp
    and parent = a.Arena.parent
    and queue = a.Arena.queue in
    let out_off = Digraph.Csr.out_off g
    and out_dst = Digraph.Csr.out_dst g
    and out_eid = Digraph.Csr.out_eid g in
    stamp.(src) <- gen;
    queue.(0) <- src;
    a.Arena.head <- 0;
    a.Arena.tail <- 1;
    (* the scan of the current vertex's out-edges completes even once
       [dst] is found; the outer loop then stops *)
    while stamp.(dst) <> gen && a.Arena.head < a.Arena.tail do
      let u = queue.(a.Arena.head) in
      a.Arena.head <- a.Arena.head + 1;
      for i = out_off.(u) to out_off.(u + 1) - 1 do
        let v = out_dst.(i) in
        if edge_ok out_eid.(i) && stamp.(v) <> gen && (v = dst || allowed v)
        then begin
          stamp.(v) <- gen;
          parent.(v) <- u;
          if v <> dst then begin
            queue.(a.Arena.tail) <- v;
            a.Arena.tail <- a.Arena.tail + 1
          end
        end
      done
    done;
    if stamp.(dst) <> gen then -1
    else begin
      (* walk the parent chain twice — once to count, once to fill [buf]
         front-to-back — reusing the FIFO cursors as walk state so the
         extraction allocates nothing either *)
      a.Arena.tail <- 0;
      a.Arena.head <- dst;
      while a.Arena.head <> src do
        a.Arena.tail <- a.Arena.tail + 1;
        a.Arena.head <- parent.(a.Arena.head)
      done;
      let len = a.Arena.tail + 1 in
      a.Arena.head <- dst;
      a.Arena.tail <- len - 1;
      while a.Arena.tail >= 0 do
        buf.(a.Arena.tail) <- a.Arena.head;
        if a.Arena.tail > 0 then a.Arena.head <- parent.(a.Arena.head);
        a.Arena.tail <- a.Arena.tail - 1
      done;
      len
    end
  end

let shortest_path ?(allowed = always) ?(edge_ok = always) g ~src ~dst =
  let n = Digraph.vertex_count g in
  let buf = Array.make n 0 in
  let len =
    shortest_path_arena_buf ~allowed ~edge_ok g ~arena:(Arena.create n) ~src
      ~dst ~buf
  in
  if len < 0 then None else Some (Array.to_list (Array.sub buf 0 len))
