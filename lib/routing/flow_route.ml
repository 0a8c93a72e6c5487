module Network = Ftcsn_networks.Network
module Digraph = Ftcsn_graph.Digraph
module Menger = Ftcsn_flow.Menger
module Bitset = Ftcsn_util.Bitset
module Metrics = Ftcsn_obs.Metrics
module Counter = Ftcsn_obs.Counter

(* every throughput query, and those the greedy certificate answered;
   the difference is the number of Dinic runs *)
let c_probes = Metrics.counter Metrics.default "flow_route.probes"
let c_certified = Metrics.counter Metrics.default "flow_route.certified"

let never _ = false
let always _ = true

(* The greedy certificate's state: the dive router, the vertices taken
   by the paths routed so far and one path buffer.  [ok] is built once
   and reads the query's [forbidden] through the mutable field, so a
   query allocates nothing. *)
type cert = {
  staged : Staged_route.t;
  busy : Bitset.t;
  buf : int array;
  out_off : int array;
  out_dst : int array;
  out_eid : int array;
  mutable forbidden : int -> bool;
  ok : int -> bool;
}

(* One Menger arena per network, re-armed per Dinic run and built on
   the first query the certificate does not answer: the paper's network
   certifies nearly every probe, so most workspaces never need it.
   Input/output indices address the network's terminal arrays directly,
   which are exactly the arena's source/sink universes, so no vertex
   resolution (and no allocation) happens per call. *)
type ws = {
  net : Network.t;
  mutable arena : Menger.Workspace.t option;
  cert : cert option;
  (* vertices the last recorded certificate holds *)
  mutable nv : int;
}

let create_ws net =
  let g = net.Network.graph in
  let cert =
    Option.map
      (fun staged ->
        let busy = Bitset.create (Digraph.vertex_count g) in
        let rec c =
          {
            staged;
            busy;
            buf = Array.make (max 1 (Staged_route.stages staged)) 0;
            out_off = Digraph.Csr.out_off g;
            out_dst = Digraph.Csr.out_dst g;
            out_eid = Digraph.Csr.out_eid g;
            forbidden = never;
            ok = (fun v -> not (c.forbidden v || Bitset.mem busy v));
          }
        in
        c)
      (Staged_route.create net)
  in
  { net; arena = None; cert; nv = 0 }

let arena ws =
  match ws.arena with
  | Some a -> a
  | None ->
      let a =
        Menger.Workspace.create ws.net.Network.graph
          ~sources:ws.net.Network.inputs ~sinks:ws.net.Network.outputs
      in
      ws.arena <- Some a;
      a

(* an admitted edge [u -> v]; the dive crossed one *)
let live_edge c ~edge_ok u v =
  let i = ref c.out_off.(u) in
  while not (c.out_dst.(!i) = v && edge_ok c.out_eid.(!i)) do
    incr i
  done;
  c.out_eid.(!i)

(* Route input [input_indices.(j)] to output [output_indices.(j)] on
   the dive for every [j < r], each path avoiding the vertices of the
   earlier ones, and stop at the first pair that blocks.  [route_into]
   exempts its endpoints from [ok], so they are checked here.  True
   when all [r] pairs routed: [r] vertex-disjoint paths are a flow of
   value [r], the most the query admits.  With [record], the paths'
   vertices and edge ids go to the prefixes of [used_vertices] and
   [used_edges]; [ws.nv] counts the vertices, and the edges are [r]
   fewer (a path of [len] vertices has [len - 1] edges). *)
let route_pairs ws c ~forbidden ~edge_ok ~input_indices ~output_indices ~r
    ~record ~used_vertices ~used_edges =
  c.forbidden <- forbidden;
  Bitset.clear c.busy;
  ws.nv <- 0;
  let j = ref 0 and routed = ref true in
  while !routed && !j < r do
    let src = ws.net.Network.inputs.(input_indices.(!j))
    and dst = ws.net.Network.outputs.(output_indices.(!j)) in
    let len =
      if c.ok src && c.ok dst then
        Staged_route.route_into c.staged ~allowed:c.ok ~edge_ok ~src ~dst
          ~buf:c.buf
      else -1
    in
    if len < 0 then routed := false
    else begin
      for k = 0 to len - 1 do
        Bitset.add c.busy c.buf.(k)
      done;
      if record then begin
        let ne = ws.nv - !j in
        for k = 0 to len - 1 do
          used_vertices.(ws.nv + k) <- c.buf.(k)
        done;
        for k = 0 to len - 2 do
          used_edges.(ne + k) <- live_edge c ~edge_ok c.buf.(k) c.buf.(k + 1)
        done;
        ws.nv <- ws.nv + len
      end;
      incr j
    end
  done;
  !routed

(* counts the query; true when the certificate answers it *)
let certified ws ~forbidden ~edge_ok ~input_indices ~output_indices ~r ~record
    ~used_vertices ~used_edges =
  Counter.incr c_probes;
  match ws.cert with
  | None -> false
  | Some c ->
      let routed =
        route_pairs ws c
          ~forbidden:(Option.value forbidden ~default:never)
          ~edge_ok:(Option.value edge_ok ~default:always)
          ~input_indices ~output_indices ~r ~record ~used_vertices ~used_edges
      in
      if routed then Counter.incr c_certified;
      routed

let max_throughput_ws ?forbidden ?edge_ok ws ~input_indices ~output_indices =
  let r = min (Array.length input_indices) (Array.length output_indices) in
  if
    certified ws ~forbidden ~edge_ok ~input_indices ~output_indices ~r
      ~record:false ~used_vertices:[||] ~used_edges:[||]
  then r
  else
    Menger.Workspace.max_vertex_disjoint ?forbidden ?edge_ok (arena ws)
      ~source_slots:input_indices ~sink_slots:output_indices

let max_throughput_cert_ws ?forbidden ?edge_ok ws ~input_indices
    ~output_indices ~used_vertices ~used_edges =
  let r = min (Array.length input_indices) (Array.length output_indices) in
  if
    certified ws ~forbidden ~edge_ok ~input_indices ~output_indices ~r
      ~record:true ~used_vertices ~used_edges
  then (r, ws.nv, ws.nv - r)
  else
    Menger.Workspace.max_vertex_disjoint_cert ?forbidden ?edge_ok (arena ws)
      ~source_slots:input_indices ~sink_slots:output_indices ~used_vertices
      ~used_edges
