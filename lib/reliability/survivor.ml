module Digraph = Ftcsn_graph.Digraph
module Union_find = Ftcsn_util.Union_find
module Metrics = Ftcsn_obs.Metrics

(* telemetry: survivor-graph operations are the inner loop of every
   stochastic reliability estimate, so their call volumes are the first
   thing to look at when a sweep is slow.  Atomic, write-only — safe from
   worker domains and invisible to the PRNG, so determinism holds. *)
let c_apply = Metrics.counter Metrics.default "survivor.apply"

let c_shorted = Metrics.counter Metrics.default "survivor.shorted_by_closure"

let c_connected =
  Metrics.counter Metrics.default "survivor.connected_ignoring_opens"

(* Reload the workspace union-find with the pattern's closed-failure
   contraction classes.  The quotient-rebuilding oracle every operation
   here is pinned against lives in [test/strip_ref.ml]. *)
let contract sc pattern =
  let g = sc.Scratch.graph and uf = sc.Scratch.suf in
  Union_find.Stamped.reset uf;
  Array.iteri
    (fun e s ->
      if Fault.state_equal s Fault.Closed_failure then begin
        let src, dst = Digraph.edge_endpoints g e in
        Union_find.Stamped.union uf src dst
      end)
    pattern

let apply_into sc pattern ~edges ~count =
  Ftcsn_obs.Counter.incr c_apply;
  let g = sc.Scratch.graph and uf = sc.Scratch.suf in
  if Array.length pattern <> Digraph.edge_count g then
    invalid_arg "Survivor.apply_into: pattern arity";
  Union_find.Stamped.reset uf;
  for i = 0 to count - 1 do
    let e = edges.(i) in
    if Fault.state_equal pattern.(e) Fault.Closed_failure then
      Union_find.Stamped.union uf (Digraph.edge_src g e) (Digraph.edge_dst g e)
  done

let merged_pairs_into sc terminals =
  let gen = Scratch.next_generation sc in
  let mark = sc.Scratch.mark
  and mark_value = sc.Scratch.mark_value
  and uf = sc.Scratch.suf in
  let pairs = ref [] in
  List.iter
    (fun v ->
      let r = Union_find.Stamped.find uf v in
      if mark.(r) = gen then pairs := (mark_value.(r), v) :: !pairs;
      mark.(r) <- gen;
      mark_value.(r) <- v)
    terminals;
  List.rev !pairs

let shorted_by_closure_into sc pattern ~a ~b =
  Ftcsn_obs.Counter.incr c_shorted;
  contract sc pattern;
  Union_find.Stamped.equiv sc.Scratch.suf a b

let connected_ignoring_opens_into sc pattern ~a ~b =
  Ftcsn_obs.Counter.incr c_connected;
  (* BFS over the original CSR with open edges masked: subgraphs keep all
     vertices and preserve adjacency order, so reachability is identical
     to a BFS over the rebuilt non-open subgraph. *)
  Ftcsn_graph.Traverse.bfs_directed_into sc.Scratch.graph
    ~edge_ok:(fun e -> not (Fault.state_equal pattern.(e) Fault.Open_failure))
    ~sources:[ a ] ~queue:sc.Scratch.queue ~dist:sc.Scratch.dist;
  sc.Scratch.dist.(b) >= 0
