module Digraph = Ftcsn_graph.Digraph
module Rng = Ftcsn_prng.Rng

let make ~rng ~degree n =
  if n < 2 || n land (n - 1) <> 0 then
    invalid_arg "Multibutterfly.make: n must be a power of two >= 2";
  if degree < 1 then invalid_arg "Multibutterfly.make: degree";
  let k =
    let rec go k acc = if acc = n then k else go (k + 1) (acc * 2) in
    go 0 1
  in
  let b = Digraph.Builder.create () in
  let _first = Digraph.Builder.add_vertices b ((k + 1) * n) in
  let id level row = (level * n) + row in
  for level = 0 to k - 1 do
    let block = n lsr level in
    let half = block / 2 in
    for row = 0 to n - 1 do
      let base = row land lnot (block - 1) in
      (* upper half keeps bit [k-1-level] clear, lower half sets it; a
         vertex gets [degree] random targets in each half *)
      let connect_half half_base =
        let d = min degree half in
        let targets = Rng.sample_without_replacement rng ~n:half ~k:d in
        Array.iter
          (fun t ->
            ignore
              (Digraph.Builder.add_edge b ~src:(id level row)
                 ~dst:(id (level + 1) (half_base + t))))
          targets
      in
      connect_half base;
      connect_half (base + half)
    done
  done;
  Network.make
    ~name:(Printf.sprintf "multibutterfly-%d-d%d" n degree)
    ~graph:(Digraph.Builder.freeze b)
    ~inputs:(Array.init n (fun row -> id 0 row))
    ~outputs:(Array.init n (fun row -> id k row))
