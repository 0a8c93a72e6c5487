module Network = Ftcsn_networks.Network
module Digraph = Ftcsn_graph.Digraph
module Arena = Ftcsn_graph.Arena
module Traverse = Ftcsn_graph.Traverse
module Bitset = Ftcsn_util.Bitset
module Metrics = Ftcsn_obs.Metrics
module Counter = Ftcsn_obs.Counter

(* searches issued by every router in the process; lets the alloc test
   prove the hot path ran without adding state to [t] *)
let c_search = Metrics.counter Metrics.default "greedy.search"

type engine = [ `Bfs | `Staged | `Loop ]

(* each engine owns its scratch: the BFS arena's parent, stamp and
   queue arrays (3 words per vertex) exist only where BFS runs *)
type fast =
  | Fast_bfs of Arena.t
  | Fast_staged of Staged_route.t
  | Fast_loop of Loop_route.t

type t = {
  net : Network.t;
  allowed : int -> bool;
  edge_ok : int -> bool;
  busy_set : Bitset.t;
  (* [route]'s list result is built from this internal buffer, as long
     as the longest path the engine returns *)
  path_buf : int array;
  (* prebuilt idle-vertex predicate; per-call [let ok v = ...] closures
     would allocate on every route *)
  ok : int -> bool;
  fast : fast;
}

let create ?(allowed = fun _ -> true) ?(edge_ok = fun _ -> true)
    ?(engine = `Bfs) net =
  let n = Digraph.vertex_count net.Network.graph in
  let busy_set = Bitset.create n in
  let ok v = allowed v && not (Bitset.mem busy_set v) in
  (* epoch-stamped BFS scratch: starting a search is a generation bump,
     not an O(V) refill *)
  let bfs () = Fast_bfs (Arena.create n) in
  let fast =
    match engine with
    | `Bfs -> bfs ()
    | `Staged -> (
        match Staged_route.create net with
        | Some s -> Fast_staged s
        | None -> bfs ())
    | `Loop -> (
        match Loop_route.create net with
        | Some l -> Fast_loop l
        | None -> (
            match Staged_route.create net with
            | Some s -> Fast_staged s
            | None -> bfs ()))
  in
  {
    net;
    allowed;
    edge_ok;
    busy_set;
    path_buf =
      Array.make
        (match fast with
        | Fast_bfs _ -> n
        | Fast_staged s -> max 1 (Staged_route.stages s)
        | Fast_loop l -> Loop_route.path_length l)
        0;
    ok;
    fast;
  }

let network t = t.net

let engine_name t =
  match t.fast with
  | Fast_bfs _ -> "bfs"
  | Fast_staged _ -> "staged"
  | Fast_loop _ -> "loop"

let busy t v = Bitset.mem t.busy_set v

(* the deterministic search behind [route]/[route_into]: plain CSR-order
   BFS on the arena (path-identical to [Traverse.shortest_path]), or
   the structure-aware engine when one engaged at [create] *)
let search t ~src ~dst ~buf =
  Counter.incr c_search;
  match t.fast with
  | Fast_bfs arena ->
      Traverse.shortest_path_arena_buf ~allowed:t.ok ~edge_ok:t.edge_ok
        t.net.Network.graph ~arena ~src ~dst ~buf
  | Fast_staged s ->
      Staged_route.route_into s ~allowed:t.ok ~edge_ok:t.edge_ok ~src ~dst
        ~buf
  | Fast_loop l ->
      Loop_route.route_into l ~allowed:t.ok ~edge_ok:t.edge_ok ~src ~dst ~buf

let route t ~input ~output =
  if busy t input || busy t output then
    invalid_arg "Greedy.route: endpoint already busy";
  if not (t.ok input && t.ok output) then None
  else begin
    let len = search t ~src:input ~dst:output ~buf:t.path_buf in
    if len < 0 then None
    else begin
      let rec take i acc =
        if i < 0 then acc else take (i - 1) (t.path_buf.(i) :: acc)
      in
      let path = take (len - 1) [] in
      List.iter (Bitset.add t.busy_set) path;
      Some path
    end
  end

let release t path = List.iter (Bitset.remove t.busy_set) path

let occupy t path = List.iter (Bitset.add t.busy_set) path

(* Buffer variants of route/release: the DES call path routes into
   caller-owned arrays so a steady-state simulation makes no per-call
   allocations — the test suite asserts a zero [Gc.minor_words] delta
   over a routing loop.  The default deterministic BFS shares its visit
   discipline with [Traverse.shortest_path], so [route_into] yields
   exactly the path [route] would have returned as a list. *)
let route_into t ~input ~output ~buf =
  if busy t input || busy t output then
    invalid_arg "Greedy.route_into: endpoint already busy";
  if not (t.ok input && t.ok output) then -1
  else begin
    let len = search t ~src:input ~dst:output ~buf in
    for i = 0 to len - 1 do
      Bitset.add t.busy_set buf.(i)
    done;
    len
  end

let release_buf t buf ~len =
  for i = 0 to len - 1 do
    Bitset.remove t.busy_set buf.(i)
  done

let route_permutation t pi ~success =
  let inputs = t.net.Network.inputs and outputs = t.net.Network.outputs in
  Array.init (Array.length pi) (fun i ->
      match route t ~input:inputs.(i) ~output:outputs.(pi.(i)) with
      | Some p ->
          incr success;
          Some p
      | None -> None)

let clear t = Bitset.clear t.busy_set
