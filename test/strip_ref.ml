(* The SUBGRAPH-REBUILDING fault strip, kept verbatim as a test oracle:
   every call materialises what the library's workspace path only masks
   — a quotient graph for the survivor semantics, a normal-edge subgraph
   for the strip, a fresh router per probe.  The qcheck suites pin
   [Survivor.*_into], [Fault_strip.strip_into] and [Pipeline.trial_ws]
   against this copy, so the masks provably changed nothing observable.
   Unlike the library it counts nothing in [Metrics.default].

   Do not "improve" this module; that would erase the oracle. *)

module Network = Ftcsn_networks.Network
module Digraph = Ftcsn_graph.Digraph
module Fault = Ftcsn_reliability.Fault
module Union_find = Uf_ref
module Bitset = Ftcsn_util.Bitset
module Rng = Ftcsn_prng.Rng
module Greedy = Ftcsn_routing.Greedy
module Pipeline = Ftcsn.Pipeline

(* ---------- survivor quotient ---------- *)

type survivor = {
  graph : Digraph.t;
  vertex_image : int array;
  edge_image : int array;
  contracted_classes : int;
}

let compress_labels uf =
  let n = Union_find.size uf in
  let label = Array.make n (-1) in
  let next = ref 0 in
  for i = 0 to n - 1 do
    let r = Union_find.find uf i in
    if label.(r) = -1 then begin
      label.(r) <- !next;
      incr next
    end
  done;
  for i = 0 to n - 1 do
    label.(i) <- label.(Union_find.find uf i)
  done;
  (label, !next)

let contraction_classes g pattern =
  let uf = Union_find.create (Digraph.vertex_count g) in
  Array.iteri
    (fun e s ->
      if Fault.state_equal s Fault.Closed_failure then begin
        let src, dst = Digraph.edge_endpoints g e in
        Union_find.union uf src dst
      end)
    pattern;
  compress_labels uf

let apply g pattern =
  if Array.length pattern <> Digraph.edge_count g then
    invalid_arg "Survivor.apply: pattern arity";
  let label, classes = contraction_classes g pattern in
  (* Keep only normal edges, then quotient; drop loops created by
     contraction (a switch both of whose links merged is useless). *)
  let normal, new_to_old =
    Graph_ref.subgraph_by_edges_map g ~keep:(fun e ->
        Fault.state_equal pattern.(e) Fault.Normal)
  in
  let quotient, qmap =
    Digraph.quotient normal ~label ~classes ~drop_self_loops:true
  in
  let edge_image = Array.make (Digraph.edge_count g) (-1) in
  Array.iteri
    (fun new_id old_id -> edge_image.(old_id) <- qmap.(new_id))
    new_to_old;
  { graph = quotient; vertex_image = label; edge_image; contracted_classes = classes }

(* Terminal lists are tiny (the network's inputs and outputs), so the
   duplicate-class checks use pairwise list scans instead of per-call hash
   tables. *)
let terminals_distinct t terminals =
  let rec distinct_from c = function
    | [] -> true
    | w :: rest -> t.vertex_image.(w) <> c && distinct_from c rest
  in
  let rec go = function
    | [] -> true
    | v :: rest -> distinct_from t.vertex_image.(v) rest && go rest
  in
  go terminals

let merged_pairs t terminals =
  (* a terminal pairs with the *most recent* earlier terminal of its
     class, and pairs are reported in terminal order *)
  let pairs = ref [] in
  let rec go rev_prefix = function
    | [] -> ()
    | v :: rest ->
        let c = t.vertex_image.(v) in
        (match List.find_opt (fun w -> t.vertex_image.(w) = c) rev_prefix with
        | Some w -> pairs := (w, v) :: !pairs
        | None -> ());
        go (v :: rev_prefix) rest
  in
  go [] terminals;
  List.rev !pairs

let shorted_by_closure g pattern ~a ~b =
  let uf = Union_find.create (Digraph.vertex_count g) in
  Array.iteri
    (fun e s ->
      if Fault.state_equal s Fault.Closed_failure then begin
        let src, dst = Digraph.edge_endpoints g e in
        Union_find.union uf src dst
      end)
    pattern;
  Union_find.equiv uf a b

let connected_ignoring_opens g pattern ~a ~b =
  (* Conducting edges are those that still exist: normal or closed. *)
  let exists_edge e = not (Fault.state_equal pattern.(e) Fault.Open_failure) in
  let sub = Graph_ref.subgraph_by_edges g ~keep:exists_edge in
  let dist = Ftcsn_graph.Traverse.bfs_directed sub ~sources:[ a ] in
  dist.(b) >= 0

(* ---------- strip ---------- *)

type strip = {
  allowed : int -> bool;
  faulty : Bitset.t;
  stripped : Bitset.t;
  shorted_terminals : (int * int) list;
  normal_graph : Digraph.t;
}

let strip ?(radius = 0) net pattern =
  let g = net.Network.graph in
  let faulty = Bitset.create (Digraph.vertex_count g) in
  Fault.faulty_vertices_into g pattern faulty;
  let stripped = Bitset.copy faulty in
  if radius > 0 then begin
    let frontier = ref (Bitset.to_list faulty) in
    for _ = 1 to radius do
      let next = ref [] in
      List.iter
        (fun v ->
          Digraph.iter_out g v (fun ~dst ~eid:_ ->
              if not (Bitset.mem stripped dst) then begin
                Bitset.add stripped dst;
                next := dst :: !next
              end);
          Digraph.iter_in g v (fun ~src ~eid:_ ->
              if not (Bitset.mem stripped src) then begin
                Bitset.add stripped src;
                next := src :: !next
              end))
        !frontier;
      frontier := !next
    done
  end;
  (* terminals always stay routable endpoints *)
  let terminal = Bitset.create (Digraph.vertex_count g) in
  List.iter (Bitset.add terminal) (Network.terminals net);
  let allowed v = Bitset.mem terminal v || not (Bitset.mem stripped v) in
  let survivor = apply g pattern in
  let shorted_terminals = merged_pairs survivor (Network.terminals net) in
  let normal_graph =
    Graph_ref.subgraph_by_edges g ~keep:(fun e ->
        Fault.state_equal pattern.(e) Fault.Normal)
  in
  { allowed; faulty; stripped; shorted_terminals; normal_graph }

let healthy t = t.shorted_terminals = []

let stripped_fraction net t =
  let n = Digraph.vertex_count net.Network.graph in
  if n = 0 then 0.0 else float_of_int (Bitset.cardinal t.stripped) /. float_of_int n

let surviving_network net t =
  { net with Network.graph = t.normal_graph }

let isolated_inputs net t =
  let reach_out =
    Ftcsn_graph.Traverse.bfs_directed ~allowed:t.allowed
      (Digraph.reverse t.normal_graph)
      ~sources:(Array.to_list net.Network.outputs)
  in
  let isolated = ref [] in
  Array.iteri
    (fun idx v -> if reach_out.(v) < 0 then isolated := idx :: !isolated)
    net.Network.inputs;
  List.rev !isolated

(* ---------- probe trial ---------- *)

let route_probe ~rng ~(probe : Pipeline.probe) ~allowed net =
  let n = min (Network.n_inputs net) (Network.n_outputs net) in
  let failures = ref 0 in
  for _ = 1 to probe.greedy_permutations do
    let pi = Rng.permutation rng n in
    let router = Greedy.create ~allowed net in
    let success = ref 0 in
    let _paths = Greedy.route_permutation router pi ~success in
    failures := !failures + (n - !success)
  done;
  for _ = 1 to probe.sc_probes do
    let r = 1 + Rng.int rng n in
    let s = Rng.sample_without_replacement rng ~n ~k:r in
    let t = Rng.sample_without_replacement rng ~n ~k:r in
    let forbidden v = not (allowed v) in
    let achieved =
      Flow_ref.max_throughput ~forbidden net ~input_indices:s ~output_indices:t
    in
    if achieved < r then failures := !failures + (r - achieved)
  done;
  !failures

let trial ~rng ~eps ?(strip_radius = 0) ?(probe = Pipeline.default_probe) net =
  let m = Digraph.edge_count net.Network.graph in
  let pattern = Fault.sample rng ~eps_open:eps ~eps_close:eps ~m in
  let strip = strip ~radius:strip_radius net pattern in
  if strip.shorted_terminals <> [] then
    Pipeline.Shorted strip.shorted_terminals
  else begin
    match isolated_inputs net strip with
    | _ :: _ as isolated -> Pipeline.Isolated isolated
    | [] ->
        (* route on the normal-switch subgraph so that failed switches can
           never carry probe traffic, even between terminals *)
        let surviving = surviving_network net strip in
        let failures = route_probe ~rng ~probe ~allowed:strip.allowed surviving in
        if failures = 0 then Pipeline.Survived else Pipeline.Unroutable failures
  end
