module Digraph = Ftcsn_graph.Digraph

let log2_exact n =
  let rec go k acc = if acc = n then k else go (k + 1) (acc * 2) in
  if n < 1 then invalid_arg "Butterfly: n" else go 0 1

let make n =
  if n < 2 || n land (n - 1) <> 0 then
    invalid_arg "Butterfly.make: n must be a power of two >= 2";
  let k = log2_exact n in
  let b = Digraph.Builder.create () in
  let _first = Digraph.Builder.add_vertices b ((k + 1) * n) in
  let id level row = (level * n) + row in
  for level = 0 to k - 1 do
    for row = 0 to n - 1 do
      ignore (Digraph.Builder.add_edge b ~src:(id level row) ~dst:(id (level + 1) row));
      ignore
        (Digraph.Builder.add_edge b ~src:(id level row)
           ~dst:(id (level + 1) (row lxor (1 lsl level))))
    done
  done;
  Network.make
    ~name:(Printf.sprintf "butterfly-%d" n)
    ~graph:(Digraph.Builder.freeze b)
    ~inputs:(Array.init n (fun row -> id 0 row))
    ~outputs:(Array.init n (fun row -> id k row))
