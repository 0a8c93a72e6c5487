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

let path_of_parents parents ~src ~dst =
  let rec walk v acc = if v = src then v :: acc else walk parents.(v) (v :: acc) in
  walk dst []

let shortest_path_core ~undirected ?(allowed = always) ?(edge_ok = always) g
    ~src ~dst =
  let n = Digraph.vertex_count g in
  if src = dst then Some [ src ]
  else begin
    let parent = Array.make n (-1) in
    let seen = Array.make n false in
    seen.(src) <- true;
    let queue = Queue.create () in
    Queue.add src queue;
    let found = ref false in
    let visit u v =
      if (not seen.(v)) && (v = dst || allowed v) then begin
        seen.(v) <- true;
        parent.(v) <- u;
        if v = dst then found := true else Queue.add v queue
      end
    in
    while (not !found) && not (Queue.is_empty queue) do
      let u = Queue.pop queue in
      Digraph.iter_out g u (fun ~dst:v ~eid -> if edge_ok eid then visit u v);
      if undirected then
        Digraph.iter_in g u (fun ~src:v ~eid -> if edge_ok eid then visit u v)
    done;
    if !found then Some (path_of_parents parent ~src ~dst) else None
  end

let shortest_path ?allowed ?edge_ok g ~src ~dst =
  shortest_path_core ~undirected:false ?allowed ?edge_ok g ~src ~dst

let shortest_path_undirected ?allowed ?edge_ok g ~src ~dst =
  shortest_path_core ~undirected:true ?allowed ?edge_ok g ~src ~dst

(* Scratch-buffer shortest path, directed only: mirrors
   [shortest_path_core ~undirected:false] exactly — same FIFO order, same
   visit condition — with caller-provided parent/queue arrays instead of
   fresh ones.  "Seen" is encoded as [v = src || parent.(v) >= 0], so only
   the parent array needs refilling per call.  The returned path list is
   the one remaining allocation. *)
let shortest_path_into ?(allowed = always) ?(edge_ok = always) g ~src ~dst
    ~parent ~queue =
  let n = Digraph.vertex_count g in
  if Array.length parent < n || Array.length queue < n then
    invalid_arg "Traverse.shortest_path_into: scratch arrays too small";
  if src = dst then Some [ src ]
  else begin
    Array.fill parent 0 n (-1);
    let head = ref 0 and tail = ref 0 in
    queue.(!tail) <- src;
    incr tail;
    let found = ref false in
    (* the expansion callback is hoisted out of the dequeue loop and
       reads the current vertex through [cur]: a closure capturing [u]
       directly would be freshly allocated for every dequeued vertex,
       and that O(V)-words-per-call cost dominates the DES call path on
       large networks *)
    let cur = ref src in
    let visit ~dst:v ~eid =
      if
        edge_ok eid
        && (not (v = src || parent.(v) >= 0))
        && (v = dst || allowed v)
      then begin
        parent.(v) <- !cur;
        if v = dst then found := true
        else begin
          queue.(!tail) <- v;
          incr tail
        end
      end
    in
    while (not !found) && !head < !tail do
      let u = queue.(!head) in
      incr head;
      cur := u;
      Digraph.iter_out g u visit
    done;
    if !found then Some (path_of_parents parent ~src ~dst) else None
  end

(* [shortest_path_into] with the path written into a caller buffer
   instead of a fresh list — the zero-allocation route of the DES call
   path.  The BFS loop is kept textually in sync with the list variant
   above; only the extraction differs (reverse parent walk into [buf],
   then an in-place reversal). *)
let shortest_path_into_buf ?(allowed = always) ?(edge_ok = always) g ~src ~dst
    ~parent ~queue ~buf =
  let n = Digraph.vertex_count g in
  if Array.length parent < n || Array.length queue < n || Array.length buf < n
  then invalid_arg "Traverse.shortest_path_into_buf: scratch arrays too small";
  if src = dst then begin
    buf.(0) <- src;
    1
  end
  else begin
    Array.fill parent 0 n (-1);
    let head = ref 0 and tail = ref 0 in
    queue.(!tail) <- src;
    incr tail;
    let found = ref false in
    (* hoisted expansion callback; see the note in [shortest_path_into] *)
    let cur = ref src in
    let visit ~dst:v ~eid =
      if
        edge_ok eid
        && (not (v = src || parent.(v) >= 0))
        && (v = dst || allowed v)
      then begin
        parent.(v) <- !cur;
        if v = dst then found := true
        else begin
          queue.(!tail) <- v;
          incr tail
        end
      end
    in
    while (not !found) && !head < !tail do
      let u = queue.(!head) in
      incr head;
      cur := u;
      Digraph.iter_out g u visit
    done;
    if not !found then -1
    else begin
      let len = ref 0 in
      let v = ref dst in
      while !v <> src do
        buf.(!len) <- !v;
        incr len;
        v := parent.(!v)
      done;
      buf.(!len) <- src;
      incr len;
      let i = ref 0 and j = ref (!len - 1) in
      while !i < !j do
        let tmp = buf.(!i) in
        buf.(!i) <- buf.(!j);
        buf.(!j) <- tmp;
        incr i;
        decr j
      done;
      !len
    end
  end

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

(* Arena-based shortest path: the same visit discipline as
   [shortest_path_into_buf] — FIFO over out-edges in CSR order, same
   seen/allowed condition — but "seen" is an epoch stamp instead of a
   refilled parent array, so a call touches only the vertices it visits
   (no O(V) [Array.fill]), and the loop state lives in the arena's
   mutable int fields, so a call allocates zero minor words.  Because the
   parent assignments mirror [shortest_path_into_buf] exactly (a vertex
   is stamped iff the into-variant would have set its parent), the
   extracted path is identical — the routers built on this are
   bit-compatible with the fill-based ones. *)
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
    (* like the into-variant, the scan of the current vertex's out-edges
       completes even once [dst] is found (the extra parent assignments
       are identical there and here); the outer loop then stops *)
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
