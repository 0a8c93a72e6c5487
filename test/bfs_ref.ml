(* The ALLOCATING shortest-path BFS, kept as a test oracle: every call
   fills a fresh parent/seen array pair and a [Queue.t], where the
   library's [Traverse.shortest_path_arena_buf] bumps an epoch stamp.
   test_fastroute and test_graph pin the arena search, and every router
   engine's accept/block verdict, against this copy.

   Do not "improve" this module; that would erase the oracle. *)

module Digraph = Ftcsn_graph.Digraph

let always _ = true

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
