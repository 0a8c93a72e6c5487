module Digraph = Ftcsn_graph.Digraph
module Union_find = Ftcsn_util.Union_find
module Bitset = Ftcsn_util.Bitset
module Metrics = Ftcsn_obs.Metrics

(* One workspace is created per 256-trial chunk (an estimator's ~init
   hook) and reused for every trial of the chunk, so this counter staying
   at the chunk count while the survivor.* operation counters grow with
   the trial count is what makes the zero-allocation claim observable in
   `ftnet --metrics` output. *)
let c_create = Metrics.counter Metrics.default "scratch.create"

type t = {
  graph : Digraph.t;
  pattern : Fault.pattern;
  faulty : Bitset.t;
  suf : Union_find.t;
  queue : int array;
  dist : int array;
  mark : int array;
  mark_value : int array;
  mutable generation : int;
}

let create graph =
  Ftcsn_obs.Counter.incr c_create;
  let n = Digraph.vertex_count graph in
  let m = Digraph.edge_count graph in
  {
    graph;
    pattern = Fault.all_normal m;
    faulty = Bitset.create n;
    suf = Union_find.create n;
    queue = Array.make n 0;
    dist = Array.make n (-1);
    mark = Array.make n 0;
    mark_value = Array.make n 0;
    generation = 0;
  }

let graph t = t.graph

let pattern t = t.pattern

let faulty t = t.faulty

let next_generation t =
  (* generation 0 is the array fill value, so the first bump must skip
     it; wrap-around would take 2^62 trials and is ignored *)
  t.generation <- t.generation + 1;
  t.generation
