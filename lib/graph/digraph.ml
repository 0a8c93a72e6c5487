module Vec = Ftcsn_util.Vec

type t = {
  n : int;
  m : int;
  out_off : int array;
  out_dst : int array;
  out_eid : int array;
  in_off : int array;
  in_src : int array;
  in_eid : int array;
  esrc : int array;
  edst : int array;
}

(* Build CSR offsets/adjacency from flat endpoint arrays by counting sort. *)
let csr_of_endpoints n m esrc edst =
  let out_off = Array.make (n + 1) 0 in
  let in_off = Array.make (n + 1) 0 in
  for e = 0 to m - 1 do
    out_off.(esrc.(e) + 1) <- out_off.(esrc.(e) + 1) + 1;
    in_off.(edst.(e) + 1) <- in_off.(edst.(e) + 1) + 1
  done;
  for v = 0 to n - 1 do
    out_off.(v + 1) <- out_off.(v + 1) + out_off.(v);
    in_off.(v + 1) <- in_off.(v + 1) + in_off.(v)
  done;
  let out_dst = Array.make m 0 and out_eid = Array.make m 0 in
  let in_src = Array.make m 0 and in_eid = Array.make m 0 in
  let out_cursor = Array.copy out_off and in_cursor = Array.copy in_off in
  for e = 0 to m - 1 do
    let s = esrc.(e) and d = edst.(e) in
    out_dst.(out_cursor.(s)) <- d;
    out_eid.(out_cursor.(s)) <- e;
    out_cursor.(s) <- out_cursor.(s) + 1;
    in_src.(in_cursor.(d)) <- s;
    in_eid.(in_cursor.(d)) <- e;
    in_cursor.(d) <- in_cursor.(d) + 1
  done;
  { n; m; out_off; out_dst; out_eid; in_off; in_src; in_eid; esrc; edst }

module Builder = struct
  type t = {
    mutable vertices : int;
    srcs : int Vec.t;
    dsts : int Vec.t;
  }

  let create ?expected_vertices:_ () =
    { vertices = 0; srcs = Vec.create (); dsts = Vec.create () }

  let add_vertex b =
    let v = b.vertices in
    b.vertices <- v + 1;
    v

  let add_vertices b k =
    if k < 0 then invalid_arg "Builder.add_vertices";
    let first = b.vertices in
    b.vertices <- first + k;
    first

  let vertex_count b = b.vertices

  let add_edge b ~src ~dst =
    if src < 0 || src >= b.vertices || dst < 0 || dst >= b.vertices then
      invalid_arg "Builder.add_edge: unknown vertex";
    let e = Vec.length b.srcs in
    Vec.push b.srcs src;
    Vec.push b.dsts dst;
    e

  let edge_count b = Vec.length b.srcs

  let freeze b =
    let esrc = Vec.to_array b.srcs and edst = Vec.to_array b.dsts in
    csr_of_endpoints b.vertices (Array.length esrc) esrc edst
end

let of_edges ~n edges =
  let m = Array.length edges in
  let esrc = Array.make m 0 and edst = Array.make m 0 in
  Array.iteri
    (fun e (s, d) ->
      if s < 0 || s >= n || d < 0 || d >= n then invalid_arg "Digraph.of_edges";
      esrc.(e) <- s;
      edst.(e) <- d)
    edges;
  csr_of_endpoints n m esrc edst

let vertex_count g = g.n

let edge_count g = g.m

let edge_src g e = g.esrc.(e)

let edge_dst g e = g.edst.(e)

let edge_endpoints g e = (g.esrc.(e), g.edst.(e))

let out_degree g v = g.out_off.(v + 1) - g.out_off.(v)

let in_degree g v = g.in_off.(v + 1) - g.in_off.(v)

let iter_out g v f =
  for i = g.out_off.(v) to g.out_off.(v + 1) - 1 do
    f ~dst:g.out_dst.(i) ~eid:g.out_eid.(i)
  done

let iter_in g v f =
  for i = g.in_off.(v) to g.in_off.(v + 1) - 1 do
    f ~src:g.in_src.(i) ~eid:g.in_eid.(i)
  done

let fold_out g v ~init ~f =
  let acc = ref init in
  iter_out g v (fun ~dst ~eid -> acc := f !acc ~dst ~eid);
  !acc

let fold_in g v ~init ~f =
  let acc = ref init in
  iter_in g v (fun ~src ~eid -> acc := f !acc ~src ~eid);
  !acc

let iter_edges g f =
  for e = 0 to g.m - 1 do
    f ~eid:e ~src:g.esrc.(e) ~dst:g.edst.(e)
  done

let max_degree g =
  let best = ref 0 in
  for v = 0 to g.n - 1 do
    let d = out_degree g v + in_degree g v in
    if d > !best then best := d
  done;
  !best

let reverse g =
  csr_of_endpoints g.n g.m (Array.copy g.edst) (Array.copy g.esrc)

let quotient g ~label ~classes ~drop_self_loops =
  if Array.length label <> g.n then invalid_arg "Digraph.quotient";
  let srcs = Vec.create () and dsts = Vec.create () in
  let edge_image = Array.make g.m (-1) in
  for e = 0 to g.m - 1 do
    let s = label.(g.esrc.(e)) and d = label.(g.edst.(e)) in
    if not (drop_self_loops && s = d) then begin
      edge_image.(e) <- Vec.length srcs;
      Vec.push srcs s;
      Vec.push dsts d
    end
  done;
  let esrc = Vec.to_array srcs and edst = Vec.to_array dsts in
  (csr_of_endpoints classes (Array.length esrc) esrc edst, edge_image)

(* Raw CSR access for the allocation-free routers: closure-free loops
   over the adjacency need the arrays themselves, not an iterator. *)
module Csr = struct
  let out_off g = g.out_off
  let out_dst g = g.out_dst
  let out_eid g = g.out_eid
  let in_off g = g.in_off
  let in_src g = g.in_src
  let in_eid g = g.in_eid
end
