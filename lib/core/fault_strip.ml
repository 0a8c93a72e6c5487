module Network = Ftcsn_networks.Network
module Digraph = Ftcsn_graph.Digraph
module Fault = Ftcsn_reliability.Fault
module Survivor = Ftcsn_reliability.Survivor
module Scratch = Ftcsn_reliability.Scratch
module Bitset = Ftcsn_util.Bitset

(* Every per-trial structure (fault bitsets, union-find, search arrays)
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
  faulty_set : Bitset.t;
  stripped_set : Bitset.t;
  current : Fault.pattern ref;  (* pattern of the last strip *)
  mutable shorted : (int * int) list;
  allowed_fn : int -> bool;
  edge_ok_fn : int -> bool;
  listed : int array;  (* a list of non-normal edges, one slot per edge *)
  (* the isolated-input search ([reaches_output]): a stamp and a trail
     position per vertex, the DFS stack with each slot's CSR cursor and
     lowlink, and the trail *)
  stamp : int array;
  pos : int array;
  mutable epoch : int;
  stack : int array;
  cursor : int array;
  low : int array;
  trail : int array;
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
    faulty_set = Bitset.create n;
    stripped_set;
    current;
    shorted = [];
    allowed_fn =
      (fun v -> Bitset.mem terminal v || not (Bitset.mem stripped_set v));
    edge_ok_fn = (fun e -> Fault.state_equal !current.(e) Fault.Normal);
    listed = Array.make (Digraph.edge_count g) 0;
    stamp = Array.make n 0;
    pos = Array.make n 0;
    epoch = 0;
    stack = Array.make n 0;
    cursor = Array.make n 0;
    low = Array.make n 0;
    trail = Array.make n 0;
  }

let ws_net ws = ws.ws_net

let ws_pattern ws = Scratch.pattern ws.scratch

let ws_allowed ws = ws.allowed_fn

let ws_edge_ok ws = ws.edge_ok_fn

let ws_shorted_terminals ws = ws.shorted

let ws_healthy ws = ws.shorted = []

let ws_stripped ws = ws.stripped_set

let check ~name ~radius ws pattern =
  if Array.length pattern <> Digraph.edge_count ws.ws_net.Network.graph then
    invalid_arg (name ^ ": pattern arity");
  if radius < 0 then invalid_arg (name ^ ": negative radius")

(* The strip from the non-normal edges [edges.(0 .. count-1)]: the
   faulty set is their endpoints, the contraction their closed ones, so
   at radius 0 a strip costs O(count + n/63) whatever the graph's size. *)
let strip_core ~radius ws pattern ~edges ~count =
  let g = ws.ws_net.Network.graph in
  ws.current := pattern;
  Bitset.clear ws.faulty_set;
  for i = 0 to count - 1 do
    Bitset.add ws.faulty_set (Digraph.edge_src g edges.(i));
    Bitset.add ws.faulty_set (Digraph.edge_dst g edges.(i))
  done;
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
  Survivor.apply_into ws.scratch pattern ~edges ~count;
  ws.shorted <- Survivor.merged_pairs_into ws.scratch ws.terminals

let ws_listed ws = ws.listed

let strip_listed ?(radius = 0) ws pattern ~edges ~count =
  check ~name:"Fault_strip.strip_listed" ~radius ws pattern;
  strip_core ~radius ws pattern ~edges ~count

let strip_into ?(radius = 0) ws pattern =
  check ~name:"Fault_strip.strip_into" ~radius ws pattern;
  let count = ref 0 in
  for e = 0 to Array.length pattern - 1 do
    match pattern.(e) with
    | Fault.Normal -> ()
    | Fault.Open_failure | Fault.Closed_failure ->
        ws.listed.(!count) <- e;
        incr count
  done;
  strip_core ~radius ws pattern ~edges:ws.listed ~count:!count

let next_epoch ws =
  ws.epoch <- ws.epoch + 1;
  ws.epoch

(* put [w] on the search's trail at [t] and on its stack at [d] *)
let enter ws ~here ~out_off w ~d ~t =
  ws.stamp.(w) <- here;
  ws.pos.(w) <- t;
  ws.trail.(t) <- w;
  ws.stack.(d) <- w;
  ws.cursor.(d) <- out_off.(w);
  ws.low.(d) <- t

(* Does [v], stamped neither [alive] nor [dead], reach an output?  An
   iterative DFS over the forward CSR under the strip's masks, with
   Tarjan's lowlinks, so that every vertex it enters leaves stamped
   [alive] or [dead] and no later search of the call explores it again.
   Outputs are stamped [alive] up front; [here] marks the trail, the
   entered vertices whose fate is open, in entry order.  A stack slot's
   lowlink is the least trail position its subtree reached.  A vertex
   popped with a lowlink below its own position reaches a vertex still
   on the stack (the graph may have cycles), so it stays on the trail.
   One popped with its own position has explored its strongly connected
   component and all beyond it without reaching an output, so the trail
   from it up is dead.  On success the stack reaches an output and every
   vertex on the trail reaches the stack, so the whole trail is alive. *)
let reaches_output ws ~alive ~dead ~here v =
  let g = ws.ws_net.Network.graph in
  let out_off = Digraph.Csr.out_off g
  and out_dst = Digraph.Csr.out_dst g
  and out_eid = Digraph.Csr.out_eid g in
  let pattern = !(ws.current) in
  let stamp = ws.stamp and pos = ws.pos and trail = ws.trail in
  let stack = ws.stack and cursor = ws.cursor and low = ws.low in
  enter ws ~here ~out_off v ~d:0 ~t:0;
  let depth = ref 1 and n_trail = ref 1 and found = ref false in
  while (not !found) && !depth > 0 do
    let top = !depth - 1 in
    let u = stack.(top) in
    let i = cursor.(top) in
    if i = out_off.(u + 1) then begin
      decr depth;
      if low.(top) = pos.(u) then
        while !n_trail > pos.(u) do
          decr n_trail;
          stamp.(trail.(!n_trail)) <- dead
        done
      else if low.(top) < low.(top - 1) then low.(top - 1) <- low.(top)
    end
    else begin
      cursor.(top) <- i + 1;
      let w = out_dst.(i) in
      let s = stamp.(w) in
      if
        s <> dead
        && (match pattern.(out_eid.(i)) with
           | Fault.Normal -> true
           | Fault.Open_failure | Fault.Closed_failure -> false)
        && (Bitset.mem ws.terminal w || not (Bitset.mem ws.stripped_set w))
      then
        if s = alive then found := true
        else if s = here then begin
          if pos.(w) < low.(top) then low.(top) <- pos.(w)
        end
        else begin
          enter ws ~here ~out_off w ~d:!depth ~t:!n_trail;
          incr depth;
          incr n_trail
        end
    end
  done;
  if !found then
    for j = 0 to !n_trail - 1 do
      stamp.(trail.(j)) <- alive
    done;
  !found

let ws_isolated_inputs ws =
  let alive = next_epoch ws in
  let dead = next_epoch ws in
  let here = next_epoch ws in
  let outputs = ws.ws_net.Network.outputs
  and inputs = ws.ws_net.Network.inputs in
  for j = 0 to Array.length outputs - 1 do
    ws.stamp.(outputs.(j)) <- alive
  done;
  let isolated = ref [] in
  for idx = 0 to Array.length inputs - 1 do
    let v = inputs.(idx) in
    let s = ws.stamp.(v) in
    if s = dead || (s <> alive && not (reaches_output ws ~alive ~dead ~here v))
    then isolated := idx :: !isolated
  done;
  List.rev !isolated
