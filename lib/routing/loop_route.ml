module Network = Ftcsn_networks.Network
module Benes = Ftcsn_networks.Benes
module Digraph = Ftcsn_graph.Digraph

type t = {
  g : Digraph.t;
  root : Benes.node;
  in_idx : int array;  (* vertex -> input index, -1 elsewhere *)
  out_idx : int array;  (* vertex -> output index, -1 elsewhere *)
  plen : int;  (* every input->output path has 2 log2 n vertices *)
  budget : int;  (* descent node-visit cap before falling back *)
  staged : Staged_route.t;  (* exact fallback inside faulted blocks *)
  mutable budget_left : int;
}

(* raised by the descent when the visit cap runs out; constant, so the
   raise itself allocates nothing *)
exception Budget_exhausted

let log2 n =
  let rec go acc n = if n <= 1 then acc else go (acc + 1) (n / 2) in
  go 0 n

let same_structure net reference =
  let g = net.Network.graph and r = reference.Network.graph in
  Digraph.vertex_count g = Digraph.vertex_count r
  && Digraph.edge_count g = Digraph.edge_count r
  && (let ok = ref true in
      let m = Digraph.edge_count g in
      for e = 0 to m - 1 do
        if
          Digraph.edge_src g e <> Digraph.edge_src r e
          || Digraph.edge_dst g e <> Digraph.edge_dst r e
        then ok := false
      done;
      !ok)
  && net.Network.inputs = reference.Network.inputs
  && net.Network.outputs = reference.Network.outputs

let create net =
  let n = Network.n_inputs net in
  if
    net.Network.name <> Printf.sprintf "benes-%d" n
    || n < 2
    || n land (n - 1) <> 0
  then None
  else begin
    (* the name is only a hint: rebuild the canonical Benes and require
       identical vertex numbering, edge list, and terminal arrays, so the
       block tree below provably describes this graph *)
    let reference = Benes.make n in
    if not (same_structure net (Benes.network reference)) then None
    else
      match Staged_route.create net with
      | None -> None
      | Some staged ->
          let nv = Digraph.vertex_count net.Network.graph in
          let in_idx = Array.make nv (-1) and out_idx = Array.make nv (-1) in
          Array.iteri (fun i v -> in_idx.(v) <- i) net.Network.inputs;
          Array.iteri (fun i v -> out_idx.(v) <- i) net.Network.outputs;
          Some
            {
              g = net.Network.graph;
              root = Benes.root reference;
              in_idx;
              out_idx;
              plen = 2 * log2 n;
              budget = 16 * ((2 * log2 n) - 1);
              staged;
              budget_left = 0;
            }
  end

let path_length t = t.plen

(* is there a live u -> v switch?  CSR scan of u's out-slots; Benes has no
   parallel edges but scanning all slots keeps this correct regardless *)
let rec live_edge_from out_dst out_eid edge_ok v i stop =
  i < stop
  && ((out_dst.(i) = v && edge_ok out_eid.(i))
     || live_edge_from out_dst out_eid edge_ok v (i + 1) stop)

(* Descend the block tree.  A request entering a Split at wire [r] bound
   for wire [o] has exactly two continuations — via the top or the bottom
   subnetwork — because entry switch r/2 only reaches top_in.(r/2) and
   bot_in.(r/2), and a sub-route cannot change halves.  Trying both
   therefore enumerates every i->o path in the graph: exhaustive failure
   is a true block, no search needed.  Each level writes its own two wire
   vertices at [lo]/[hi] and checks the two half-entry/exit vertices and
   the three wire switches it introduces; deeper vertices are checked as
   the recursion's own endpoints.  All helpers are top-level functions
   over ints and pre-built closures, so the descent allocates nothing. *)
let rec try_node t ~allowed ~edge_ok out_off out_dst out_eid node r o lo hi buf
    =
  t.budget_left <- t.budget_left - 1;
  if t.budget_left < 0 then raise Budget_exhausted;
  match node with
  | Benes.Switch { ins; outs } ->
      let u = ins.(r) and w = outs.(o) in
      buf.(lo) <- u;
      buf.(hi) <- w;
      live_edge_from out_dst out_eid edge_ok w out_off.(u) out_off.(u + 1)
  | Benes.Split { ins; outs; top_in; bot_in; top_out; bot_out; top; bot } ->
      let u = ins.(r) and w = outs.(o) in
      buf.(lo) <- u;
      buf.(hi) <- w;
      try_half t ~allowed ~edge_ok out_off out_dst out_eid top_in top_out top
        u w r o lo hi buf
      || try_half t ~allowed ~edge_ok out_off out_dst out_eid bot_in bot_out
           bot u w r o lo hi buf

and try_half t ~allowed ~edge_ok out_off out_dst out_eid h_in h_out sub u w r
    o lo hi buf =
  let hin = h_in.(r / 2) and hout = h_out.(o / 2) in
  allowed hin && allowed hout
  && live_edge_from out_dst out_eid edge_ok hin out_off.(u) out_off.(u + 1)
  && live_edge_from out_dst out_eid edge_ok w out_off.(hout)
       out_off.(hout + 1)
  && try_node t ~allowed ~edge_ok out_off out_dst out_eid sub (r / 2) (o / 2)
       (lo + 1) (hi - 1) buf

let route_into t ~allowed ~edge_ok ~src ~dst ~buf =
  let nv = Array.length t.in_idx in
  if src < 0 || src >= nv || dst < 0 || dst >= nv then
    invalid_arg "Loop_route.route_into: vertex out of range";
  (* the staged fallback's bound, so both routers refuse one buffer *)
  if Array.length buf < Staged_route.stages t.staged then
    invalid_arg "Loop_route.route_into: buffer too small";
  if src = dst then begin
    buf.(0) <- src;
    1
  end
  else begin
    let r = t.in_idx.(src) and o = t.out_idx.(dst) in
    if r < 0 || o < 0 then
      (* not an input->output request: the block tree says nothing, so
         answer with the exact staged search *)
      Staged_route.route_into t.staged ~allowed ~edge_ok ~src ~dst ~buf
    else begin
      t.budget_left <- t.budget;
      match
        try_node t ~allowed ~edge_ok
          (Digraph.Csr.out_off t.g)
          (Digraph.Csr.out_dst t.g)
          (Digraph.Csr.out_eid t.g)
          t.root r o 0 (t.plen - 1) buf
      with
      | true -> t.plen
      | false -> -1
      | exception Budget_exhausted ->
          Staged_route.route_into t.staged ~allowed ~edge_ok ~src ~dst ~buf
    end
  end
