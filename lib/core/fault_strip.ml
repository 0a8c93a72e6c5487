module Network = Ftcsn_networks.Network
module Digraph = Ftcsn_graph.Digraph
module Fault = Ftcsn_reliability.Fault
module Survivor = Ftcsn_reliability.Survivor
module Scratch = Ftcsn_reliability.Scratch
module Bitset = Ftcsn_util.Bitset

(* Every per-trial structure (fault bitsets, union-find, BFS arrays)
   lives in a workspace created once per worker domain.  No survivor
   quotient or normal-edge subgraph is materialised: consumers route over
   the original graph with [ws_edge_ok] masking failed switches, which
   visits vertices in exactly the order a rebuilt subgraph would (CSR
   adjacency keeps ascending edge-id order). *)

type ws = {
  ws_net : Network.t;
  scratch : Scratch.t;
  terminal : Bitset.t;
  terminals : int list;
  outputs : int list;
  rev : Digraph.t;  (* reverse of the full graph; edge ids preserved *)
  faulty_set : Bitset.t;
  stripped_set : Bitset.t;
  current : Fault.pattern ref;  (* pattern of the last strip_into *)
  mutable shorted : (int * int) list;
  allowed_fn : int -> bool;
  edge_ok_fn : int -> bool;
}

let create_ws net =
  let g = net.Network.graph in
  let n = Digraph.vertex_count g in
  let scratch = Scratch.create g in
  let terminal = Bitset.create n in
  List.iter (Bitset.add terminal) (Network.terminals net);
  let stripped_set = Bitset.create n in
  let current = ref (Scratch.pattern scratch) in
  {
    ws_net = net;
    scratch;
    terminal;
    terminals = Network.terminals net;
    outputs = Array.to_list net.Network.outputs;
    rev = Digraph.reverse g;
    faulty_set = Bitset.create n;
    stripped_set;
    current;
    shorted = [];
    allowed_fn =
      (fun v -> Bitset.mem terminal v || not (Bitset.mem stripped_set v));
    edge_ok_fn = (fun e -> Fault.state_equal !current.(e) Fault.Normal);
  }

let ws_net ws = ws.ws_net

let ws_scratch ws = ws.scratch

let ws_pattern ws = Scratch.pattern ws.scratch

let ws_allowed ws = ws.allowed_fn

let ws_edge_ok ws = ws.edge_ok_fn

let ws_shorted_terminals ws = ws.shorted

let ws_healthy ws = ws.shorted = []

let ws_stripped ws = ws.stripped_set

let strip_into ?(radius = 0) ws pattern =
  let g = ws.ws_net.Network.graph in
  if Array.length pattern <> Digraph.edge_count g then
    invalid_arg "Fault_strip.strip_into: pattern arity";
  if radius < 0 then invalid_arg "Fault_strip.strip_into: negative radius";
  ws.current := pattern;
  Fault.faulty_vertices_into g pattern ws.faulty_set;
  Bitset.clear ws.stripped_set;
  Bitset.union_into ws.stripped_set ws.faulty_set;
  if radius > 0 then begin
    let frontier = ref (Bitset.to_list ws.faulty_set) in
    for _ = 1 to radius do
      let next = ref [] in
      List.iter
        (fun v ->
          Digraph.iter_out g v (fun ~dst ~eid:_ ->
              if not (Bitset.mem ws.stripped_set dst) then begin
                Bitset.add ws.stripped_set dst;
                next := dst :: !next
              end);
          Digraph.iter_in g v (fun ~src ~eid:_ ->
              if not (Bitset.mem ws.stripped_set src) then begin
                Bitset.add ws.stripped_set src;
                next := src :: !next
              end))
        !frontier;
      frontier := !next
    done
  end;
  Survivor.apply_into ws.scratch pattern;
  ws.shorted <- Survivor.merged_pairs_into ws.scratch ws.terminals

let ws_isolated_inputs ws =
  Ftcsn_graph.Traverse.bfs_directed_into ~allowed:ws.allowed_fn
    ~edge_ok:ws.edge_ok_fn ws.rev ~sources:ws.outputs
    ~queue:ws.scratch.Scratch.queue ~dist:ws.scratch.Scratch.dist;
  let dist = ws.scratch.Scratch.dist in
  let isolated = ref [] in
  Array.iteri
    (fun idx v -> if dist.(v) < 0 then isolated := idx :: !isolated)
    ws.ws_net.Network.inputs;
  List.rev !isolated
