module Digraph = Ftcsn_graph.Digraph
module Csr = Ftcsn_graph.Digraph.Csr
module Metrics = Ftcsn_obs.Metrics

let c_rebuild = Metrics.counter Metrics.default "dyn_conn.rebuilds"

(* Closed-failure connectivity as a fully dynamic overlay.

   The union-find trees are exactly the closed-contraction classes.
   Closing an edge unions its endpoints — O(alpha) — and each root keeps
   its class's terminal count, with [shorted] counting the classes that
   hold two or more terminals, so the Lemma-7 verdict is a read.
   Reopening an edge can split its class in two: a BFS from each
   endpoint over the still-closed incident edges finds the pieces, and
   each piece is relabelled flat under its endpoint as the new root.
   The first BFS stops as soon as it reaches the other endpoint — the
   class did not split and its tree is still valid.  A reopen thus costs
   O(sum of degrees over the old class): O(degree) for the isolated
   closed switches of any survivable regime. *)
type t = {
  graph : Digraph.t;
  is_terminal : bool array;
  parent : int array;
  size : int array;  (* class size, valid at roots *)
  tcount : int array;  (* terminals in the class, valid at roots *)
  closed : Bytes.t;  (* '\001' at closed edge ids *)
  (* reopen BFS scratch: [mark.(v) = epoch] means visited; the pieces
     of a split class sit back to back in [queue] *)
  mark : int array;
  queue : int array;
  mutable epoch : int;
  mutable tail : int;
  mutable shorted : int;  (* classes holding two or more terminals *)
}

let create ~terminals graph =
  let n = Digraph.vertex_count graph in
  let is_terminal = Array.make n false in
  List.iter (fun v -> is_terminal.(v) <- true) terminals;
  {
    graph;
    is_terminal;
    parent = Array.init n Fun.id;
    size = Array.make n 1;
    tcount = Array.map (fun b -> if b then 1 else 0) is_terminal;
    closed = Bytes.make (Digraph.edge_count graph) '\000';
    mark = Array.make n 0;
    queue = Array.make n 0;
    epoch = 0;
    tail = 0;
    shorted = 0;
  }

let is_closed t e = Bytes.get t.closed e <> '\000'

let short c = if c >= 2 then 1 else 0

let rec find p v =
  let q = p.(v) in
  if q = v then v
  else begin
    let r = find p q in
    p.(v) <- r;
    r
  end

let link t ~root ~child =
  let c = t.tcount.(root) + t.tcount.(child) in
  t.shorted <-
    t.shorted + short c - short t.tcount.(root) - short t.tcount.(child);
  t.parent.(child) <- root;
  t.size.(root) <- t.size.(root) + t.size.(child);
  t.tcount.(root) <- c

let close t e =
  if not (is_closed t e) then begin
    Bytes.set t.closed e '\001';
    let ru = find t.parent (Digraph.edge_src t.graph e)
    and rv = find t.parent (Digraph.edge_dst t.graph e) in
    if ru <> rv then
      if t.size.(ru) >= t.size.(rv) then link t ~root:ru ~child:rv
      else link t ~root:rv ~child:ru
  end

let visit t v =
  if t.mark.(v) <> t.epoch then begin
    t.mark.(v) <- t.epoch;
    t.queue.(t.tail) <- v;
    t.tail <- t.tail + 1
  end

(* BFS over closed edges, both directions, from [s]: appends [s]'s class
   to [queue] at [tail], stopping early once [stop] is visited *)
let sweep t s ~stop =
  let g = t.graph in
  let out_off = Csr.out_off g and out_dst = Csr.out_dst g in
  let out_eid = Csr.out_eid g and in_off = Csr.in_off g in
  let in_src = Csr.in_src g and in_eid = Csr.in_eid g in
  let head = ref t.tail in
  visit t s;
  while !head < t.tail && not (stop >= 0 && t.mark.(stop) = t.epoch) do
    let x = t.queue.(!head) in
    incr head;
    for k = out_off.(x) to out_off.(x + 1) - 1 do
      if is_closed t out_eid.(k) then visit t out_dst.(k)
    done;
    for k = in_off.(x) to in_off.(x + 1) - 1 do
      if is_closed t in_eid.(k) then visit t in_src.(k)
    done
  done

(* make queue.(lo) the flat root of queue.(lo .. hi-1); its terminals *)
let relabel t lo hi =
  let root = t.queue.(lo) in
  let terms = ref 0 in
  for i = lo to hi - 1 do
    let v = t.queue.(i) in
    t.parent.(v) <- root;
    if t.is_terminal.(v) then incr terms
  done;
  t.size.(root) <- hi - lo;
  t.tcount.(root) <- !terms;
  !terms

let reopen t e =
  if is_closed t e then begin
    Bytes.set t.closed e '\000';
    Ftcsn_obs.Counter.incr c_rebuild;
    let u = Digraph.edge_src t.graph e and v = Digraph.edge_dst t.graph e in
    if u <> v then begin
      let before = t.tcount.(find t.parent u) in
      t.epoch <- t.epoch + 1;
      t.tail <- 0;
      sweep t u ~stop:v;
      if t.mark.(v) <> t.epoch then begin
        let mid = t.tail in
        sweep t v ~stop:(-1);
        let a = relabel t 0 mid in
        let b = relabel t mid t.tail in
        t.shorted <- t.shorted + short a + short b - short before
      end
    end
  end

let connected t a b = find t.parent a = find t.parent b

let terminals_shorted t = t.shorted > 0
