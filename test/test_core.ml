(* Tests for the core library: directed grids, the FT construction,
   fault stripping, majority access, Lemma-1 tree paths, the Theorem-1
   certificates, and the end-to-end pipeline. *)

module Directed_grid = Ftcsn.Directed_grid
module Ft_params = Ftcsn.Ft_params
module Ft_network = Ftcsn.Ft_network
module Fault_strip = Ftcsn.Fault_strip
module Majority_access = Ftcsn.Majority_access
module Tree_paths = Ftcsn.Tree_paths
module Lower_bound = Ftcsn.Lower_bound
module Pipeline = Ftcsn.Pipeline
module Network = Ftcsn_networks.Network
module Digraph = Ftcsn_graph.Digraph
module Fault = Ftcsn_reliability.Fault
module Rng = Ftcsn_prng.Rng
module Traffic = Ftcsn_des.Traffic

let check = Alcotest.(check int)
let checkb = Alcotest.(check bool)

(* ---------- Directed_grid ---------- *)

let test_grid_counts () =
  let s = Directed_grid.make ~rows:4 ~stages:8 in
  check "vertices" 32 (Digraph.vertex_count s.Directed_grid.graph);
  check "edges" (Directed_grid.edge_count ~rows:4 ~stages:8)
    (Digraph.edge_count s.Directed_grid.graph);
  check "edge formula" (2 * 4 * 7) (Directed_grid.edge_count ~rows:4 ~stages:8)

let test_grid_structure_fig4 () =
  (* Fig. 4 is the (4, 8)-directed grid: every non-last-column vertex has a
     straight and a wrapping diagonal successor *)
  let s = Directed_grid.make ~rows:4 ~stages:8 in
  let g = s.Directed_grid.graph in
  for col = 0 to 6 do
    for row = 0 to 3 do
      let v = Directed_grid.vertex_at s.Directed_grid.grid ~row ~col in
      check "out degree" 2 (Digraph.out_degree g v);
      let targets = Digraph.fold_out g v ~init:[] ~f:(fun acc ~dst ~eid:_ -> dst :: acc) in
      checkb "straight" true
        (List.mem (Directed_grid.vertex_at s.Directed_grid.grid ~row ~col:(col + 1)) targets);
      checkb "diagonal wraps" true
        (List.mem
           (Directed_grid.vertex_at s.Directed_grid.grid ~row:((row + 1) mod 4)
              ~col:(col + 1))
           targets)
    done
  done;
  (* last column has no successors *)
  for row = 0 to 3 do
    check "last col sinks" 0
      (Digraph.out_degree g (Directed_grid.vertex_at s.Directed_grid.grid ~row ~col:7))
  done

let test_grid_single_row () =
  let s = Directed_grid.make ~rows:1 ~stages:5 in
  check "chain edges" 4 (Digraph.edge_count s.Directed_grid.graph)

let test_grid_splice () =
  let b = Digraph.Builder.create () in
  let pre = Array.init 3 (fun _ -> Digraph.Builder.add_vertex b) in
  let grid = Directed_grid.build ~builder:b ~rows:3 ~stages:4 ~first_column:pre () in
  Alcotest.(check (array int)) "first column reused" pre grid.Directed_grid.columns.(0);
  let g = Digraph.Builder.freeze b in
  check "vertices" (3 * 4) (Digraph.vertex_count g);
  Alcotest.check_raises "arity"
    (Invalid_argument "Directed_grid.build: first_column arity") (fun () ->
      let b2 = Digraph.Builder.create () in
      let bad = Array.init 2 (fun _ -> Digraph.Builder.add_vertex b2) in
      ignore (Directed_grid.build ~builder:b2 ~rows:3 ~stages:4 ~first_column:bad ()))

let test_grid_render () =
  let s = Directed_grid.make ~rows:4 ~stages:8 in
  let art = Directed_grid.render s in
  checkb "rendered" true (String.length art > 50)

let test_grid_column_cut () =
  (* cutting one full column separates first and last columns: the min cut
     is exactly [rows] (Lemma 3's counting starts at cuts of size l) *)
  let s = Directed_grid.make ~rows:5 ~stages:6 in
  let grid = s.Directed_grid.grid in
  let sources = Array.to_list grid.Directed_grid.columns.(0) in
  let sinks = Array.to_list grid.Directed_grid.columns.(5) in
  let cut =
    Flow_ref.min_vertex_cut_size s.Directed_grid.graph
      ~sources:(Array.of_list sources) ~sinks:(Array.of_list sinks)
  in
  check "min cut = rows" 5 cut

(* ---------- Ft_params ---------- *)

let test_params_paper () =
  let p = Ft_params.paper ~u:2 in
  check "n" 16 (Ft_params.n p);
  (* gamma = ceil(log4 68) = 4 (4^3=64 < 68 <= 256=4^4) *)
  check "gamma" 4 p.Ft_params.gamma;
  check "grid rows" (64 * 256) (Ft_params.grid_rows p);
  checkb "validates" true (Ft_params.validate p = Ok ())

let test_params_scaled_and_validation () =
  let p = Ft_params.scaled ~u:3 () in
  check "n" 8 (Ft_params.n p);
  check "levels" 5 (Ft_params.middle_levels p);
  checkb "validates" true (Ft_params.validate p = Ok ());
  Alcotest.check_raises "u=0" (Invalid_argument "Ft_params.scaled") (fun () ->
      ignore (Ft_params.scaled ~u:0 ()))

let test_params_predictions_match_build () =
  let rng = Rng.create ~seed:1 in
  List.iter
    (fun u ->
      let p = Ft_params.scaled ~u () in
      let ft = Ft_network.make ~rng p in
      check
        (Printf.sprintf "size u=%d" u)
        (Ft_params.predicted_size p)
        (Network.size ft.Ft_network.net);
      check
        (Printf.sprintf "depth u=%d" u)
        (Ft_params.predicted_depth p)
        (Network.depth ft.Ft_network.net))
    [ 1; 2; 3; 4 ]

(* ---------- Ft_network ---------- *)

let build_small () =
  let rng = Rng.create ~seed:2 in
  Ft_network.make ~rng (Ft_params.scaled ~u:2 ())

let test_ft_structure () =
  let ft = build_small () in
  let net = ft.Ft_network.net in
  check "inputs" 4 (Network.n_inputs net);
  check "outputs" 4 (Network.n_outputs net);
  checkb "acyclic" true (Network.is_acyclic net);
  check "input grids" 4 (Array.length ft.Ft_network.input_grids);
  check "output grids" 4 (Array.length ft.Ft_network.output_grids)

let test_ft_grid_identification () =
  (* the middle's first stage must literally be the grids' last columns *)
  let ft = build_small () in
  let p = ft.Ft_network.params in
  let rows = Ft_params.grid_rows p in
  let first_stage = ft.Ft_network.middle.Ftcsn_networks.Recursive_nb.stages.(0) in
  Array.iteri
    (fun i grid ->
      let last_col = grid.Directed_grid.columns.(p.Ft_params.grid_stages - 1) in
      Alcotest.(check (array int))
        (Printf.sprintf "grid %d identified" i)
        last_col
        (Array.sub first_stage (i * rows) rows))
    ft.Ft_network.input_grids

let test_ft_input_fanout () =
  let ft = build_small () in
  let g = ft.Ft_network.net.Network.graph in
  let rows = Ft_params.grid_rows ft.Ft_network.params in
  Array.iter
    (fun i -> check "input fan-out = grid rows" rows (Digraph.out_degree g i))
    ft.Ft_network.net.Network.inputs;
  Array.iter
    (fun o -> check "output fan-in = grid rows" rows (Digraph.in_degree g o))
    ft.Ft_network.net.Network.outputs

let test_ft_every_pair_connected () =
  let ft = build_small () in
  let net = ft.Ft_network.net in
  Array.iter
    (fun i ->
      let d = Ftcsn_graph.Traverse.bfs_directed net.Network.graph ~sources:[ i ] in
      Array.iter (fun o -> checkb "pair connected" true (d.(o) >= 0)) net.Network.outputs)
    net.Network.inputs

let test_ft_stage_census () =
  let ft = build_small () in
  let census = Ft_network.stage_census ft in
  (match census with
  | ("inputs", n, _) :: _ -> check "first row inputs" 4 n
  | _ -> Alcotest.fail "census starts with inputs");
  (match List.rev census with
  | ("outputs", n, 0) :: _ -> check "last row outputs" 4 n
  | _ -> Alcotest.fail "census ends with outputs");
  (* interior stage widths all equal wf * beta^(u+gamma) = 4 * 2^4 = 64 *)
  List.iter
    (fun (label, width, _) ->
      if label <> "inputs" && label <> "outputs" then
        check ("width at " ^ label) 64 width)
    census

let test_ft_fault_free_routes_everything () =
  let ft = build_small () in
  let rng = Rng.create ~seed:3 in
  for _ = 1 to 10 do
    let r = Ftcsn_routing.Greedy.create ft.Ft_network.net in
    let pi = Rng.permutation rng 4 in
    let success = ref 0 in
    ignore (Ftcsn_routing.Greedy.route_permutation r pi ~success);
    check "all greedy-routed" 4 !success
  done

let test_ft_rejects_bad_params () =
  let rng = Rng.create ~seed:4 in
  let p = { (Ft_params.scaled ~u:2 ()) with Ft_params.gamma = 0 } in
  Alcotest.check_raises "gamma 0"
    (Invalid_argument
       "Ft_network.make: gamma must be >= 1 (grids need a block to land on)")
    (fun () -> ignore (Ft_network.make ~rng p))

(* ---------- Fault_strip ---------- *)

let test_strip_no_faults () =
  let ft = build_small () in
  let net = ft.Ft_network.net in
  let pattern = Fault.all_normal (Network.size net) in
  let s = Strip_ref.strip net pattern in
  checkb "healthy" true (Strip_ref.healthy s);
  Alcotest.(check (float 1e-9)) "nothing stripped" 0.0
    (Strip_ref.stripped_fraction net s);
  Alcotest.(check (list int)) "no isolation" [] (Strip_ref.isolated_inputs net s)

let test_strip_marks_faulty_endpoints () =
  let g = Digraph.of_edges ~n:4 [| (0, 1); (1, 2); (2, 3) |] in
  let net = Network.make ~name:"chain" ~graph:g ~inputs:[| 0 |] ~outputs:[| 3 |] in
  let pattern = [| Fault.Normal; Fault.Open_failure; Fault.Normal |] in
  let s = Strip_ref.strip net pattern in
  checkb "vertex 1 stripped" false (s.Strip_ref.allowed 1);
  checkb "vertex 2 stripped" false (s.Strip_ref.allowed 2);
  (* input becomes isolated: its only route used vertex 1 *)
  Alcotest.(check (list int)) "isolated" [ 0 ] (Strip_ref.isolated_inputs net s)

let test_strip_radius_one () =
  let g = Digraph.of_edges ~n:5 [| (0, 1); (1, 2); (2, 3); (3, 4) |] in
  let net = Network.make ~name:"chain" ~graph:g ~inputs:[| 0 |] ~outputs:[| 4 |] in
  let pattern = [| Fault.Normal; Fault.Open_failure; Fault.Normal; Fault.Normal |] in
  let s0 = Strip_ref.strip ~radius:0 net pattern in
  let s1 = Strip_ref.strip ~radius:1 net pattern in
  checkb "radius 0 keeps 3" true (s0.Strip_ref.allowed 3);
  checkb "radius 1 strips 3" false (s1.Strip_ref.allowed 3);
  checkb "radius 1 strips 0's neighbourhood correctly" true
    (Ftcsn_util.Bitset.cardinal s1.Strip_ref.stripped
    > Ftcsn_util.Bitset.cardinal s0.Strip_ref.stripped);
  Alcotest.check_raises "negative radius"
    (Invalid_argument "Fault_strip.strip_into: negative radius") (fun () ->
      Fault_strip.strip_into ~radius:(-1) (Fault_strip.create_ws net) pattern)

let test_strip_terminals_stay_allowed () =
  let g = Digraph.of_edges ~n:3 [| (0, 1); (1, 2) |] in
  let net = Network.make ~name:"chain" ~graph:g ~inputs:[| 0 |] ~outputs:[| 2 |] in
  let pattern = [| Fault.Open_failure; Fault.Normal |] in
  let s = Strip_ref.strip net pattern in
  checkb "faulty input still allowed (terminal)" true (s.Strip_ref.allowed 0)

let test_strip_detects_short () =
  let g = Digraph.of_edges ~n:2 [| (0, 1) |] in
  let net = Network.make ~name:"pair" ~graph:g ~inputs:[| 0 |] ~outputs:[| 1 |] in
  let s = Strip_ref.strip net [| Fault.Closed_failure |] in
  checkb "short detected" false (Strip_ref.healthy s);
  Alcotest.(check (list (pair int int))) "pair" [ (0, 1) ]
    s.Strip_ref.shorted_terminals

(* ---------- majority access (§6) and Lemma 3's grid access ---------- *)

(* §6's definition checked exhaustively, the validator of the FT
   construction: for each input, the outputs it reaches through idle
   allowed vertices ([-1] for a busy input) *)
let input_access_counts net ~allowed ~busy =
  let ok v = allowed v && not (busy v) in
  Array.map
    (fun i ->
      if busy i then -1
      else if not (ok i) then 0
      else
        let dist =
          Ftcsn_graph.Traverse.bfs_directed ~allowed:ok net.Network.graph
            ~sources:[ i ]
        in
        Array.fold_left
          (fun acc o -> if dist.(o) >= 0 && ok o then acc + 1 else acc)
          0 net.Network.outputs)
    net.Network.inputs

let is_majority_access net ~allowed ~busy =
  let half = Network.n_outputs net / 2 in
  Array.for_all
    (fun c -> c = -1 || c > half)
    (input_access_counts net ~allowed ~busy)

(* Lemma 3's quantity on a directed grid: the last-column vertices
   reachable from row [source_row] of column 0 through non-faulty
   vertices *)
let grid_last_column_access (s : Directed_grid.standalone) ~faulty ~source_row
    =
  let grid = s.Directed_grid.grid in
  let src = Directed_grid.vertex_at grid ~row:source_row ~col:0 in
  if faulty src then 0
  else
    let ok v = not (faulty v) in
    let dist =
      Ftcsn_graph.Traverse.bfs_directed ~allowed:ok s.Directed_grid.graph
        ~sources:[ src ]
    in
    Array.fold_left
      (fun acc v -> if dist.(v) >= 0 && ok v then acc + 1 else acc)
      0
      grid.Directed_grid.columns.(grid.Directed_grid.stages - 1)

let test_majority_access_clean () =
  let ft = build_small () in
  let net = ft.Ft_network.net in
  checkb "fault-free majority access" true
    (is_majority_access net
       ~allowed:(fun _ -> true)
       ~busy:(fun _ -> false))

let test_majority_access_busy_input_skipped () =
  let net = Ftcsn_networks.Crossbar.square 3 in
  let busy v = v = net.Network.inputs.(0) in
  let counts =
    input_access_counts net ~allowed:(fun _ -> true) ~busy
  in
  check "busy marked" (-1) counts.(0);
  check "idle sees all" 3 counts.(1)

let test_majority_access_with_block () =
  (* an input with all its outputs cut off fails the majority test *)
  let g = Digraph.of_edges ~n:4 [| (0, 2); (1, 2); (2, 3) |] in
  let net = Network.make ~name:"y" ~graph:g ~inputs:[| 0; 1 |] ~outputs:[| 3 |] in
  checkb "fails when junction forbidden" false
    (is_majority_access net ~allowed:(fun v -> v <> 2)
       ~busy:(fun _ -> false))

let test_grid_access_lemma3 () =
  let s = Directed_grid.make ~rows:6 ~stages:5 in
  (* the row index can only grow by one per stage, so 4 transitions from
     one source row reach exactly 5 of the 6 last-column rows *)
  check "access when healthy" 5
    (grid_last_column_access s ~faulty:(fun _ -> false)
       ~source_row:2);
  (* kill one full column except one vertex: access drops to <= rows but
     stays positive through the surviving vertex *)
  let grid = s.Directed_grid.grid in
  let col2 = grid.Directed_grid.columns.(2) in
  let survivor = col2.(0) in
  let faulty v = Array.exists (fun w -> w = v) col2 && v <> survivor in
  let access =
    grid_last_column_access s ~faulty ~source_row:0
  in
  checkb "bottleneck narrows but keeps access" true (access >= 1 && access <= 6);
  (* kill the whole column: no access *)
  check "column cut isolates" 0
    (grid_last_column_access s
       ~faulty:(fun v -> Array.exists (fun w -> w = v) col2)
       ~source_row:0)

(* ---------- Tree_paths (Lemma 1) ---------- *)

(* Lemma 1's hypotheses, checked on the trees Tree_paths builds: no
   edge closes a cycle, and no vertex has degree 2 *)
let is_forest (t : Tree_paths.t) =
  let module Uf = Ftcsn_util.Union_find in
  let uf = Uf.create t.Tree_paths.n in
  let ok = ref true in
  Array.iteri
    (fun v adj ->
      Array.iter
        (fun w ->
          if v < w then
            if Uf.equiv uf v w then ok := false else Uf.union uf v w)
        adj)
    t.Tree_paths.adj;
  !ok

let internal_degrees_ok (t : Tree_paths.t) =
  Array.for_all (fun adj -> Array.length adj <> 2) t.Tree_paths.adj

let test_tree_paths_star () =
  (* star with 3 leaves: all pairs within distance 2 *)
  let t = Tree_paths.of_edges ~n:4 [ (0, 1); (0, 2); (0, 3) ] in
  Alcotest.(check (list int)) "leaves" [ 1; 2; 3 ] (Tree_paths.leaves t);
  checkb "forest" true (is_forest t);
  checkb "internal ok" true (internal_degrees_ok t);
  let paths = Tree_paths.short_leaf_paths t in
  check "one disjoint path" 1 (List.length paths)

let test_tree_paths_two_cherries () =
  (* path of two internal nodes each with two leaves: two disjoint paths *)
  let t =
    Tree_paths.of_edges ~n:6 [ (0, 1); (0, 2); (0, 3); (3, 4); (3, 5) ]
  in
  let paths = Tree_paths.short_leaf_paths t in
  check "two paths" 2 (List.length paths);
  (* edge-disjointness *)
  let edges_of path =
    let rec go = function
      | a :: (b :: _ as rest) -> (min a b, max a b) :: go rest
      | _ -> []
    in
    go path
  in
  let all = List.concat_map edges_of paths in
  check "edge-disjoint" (List.length all) (List.length (List.sort_uniq compare all))

let test_tree_paths_lemma1_bound_random () =
  let rng = Rng.create ~seed:8 in
  List.iter
    (fun l ->
      let t = Tree_paths.random_internal3_tree ~rng ~leaves:l in
      check (Printf.sprintf "leaf count %d" l) l (List.length (Tree_paths.leaves t));
      checkb "forest" true (is_forest t);
      checkb "degrees" true (internal_degrees_ok t);
      let paths = Tree_paths.short_leaf_paths t in
      List.iter
        (fun p -> checkb "short" true (List.length p <= 4))
        paths;
      checkb
        (Printf.sprintf "lemma bound at l=%d" l)
        true
        (List.length paths >= Tree_paths.lemma1_lower_bound ~leaves:l))
    [ 3; 10; 50; 200; 1000 ]

let test_contract_stretches () =
  (* path a-b-c-d-e with internal degree-2 chain contracts to one edge *)
  let t = Tree_paths.of_edges ~n:5 [ (0, 1); (1, 2); (2, 3); (3, 4) ] in
  let c = Tree_paths.contract_stretches t in
  check "endpoints joined" 1 (Tree_paths.degree c 0);
  Alcotest.(check (list int)) "0 adj 4" [ 4 ] (Array.to_list c.Tree_paths.adj.(0));
  check "interior isolated" 0 (Tree_paths.degree c 2)

let test_contract_preserves_branching () =
  (* Y with stretched arms: contraction restores degree-3 centre *)
  let t =
    Tree_paths.of_edges ~n:7
      [ (0, 1); (1, 2); (0, 3); (3, 4); (0, 5); (5, 6) ]
  in
  let c = Tree_paths.contract_stretches t in
  check "centre degree" 3 (Tree_paths.degree c 0);
  Alcotest.(check (list int)) "centre adj" [ 2; 4; 6 ]
    (List.sort compare (Array.to_list c.Tree_paths.adj.(0)));
  checkb "no degree-2 left" true (internal_degrees_ok c)

let test_fig_gadgets () =
  let t1, bad = Tree_paths.fig1_bad_leaf () in
  checkb "fig1 forest" true (is_forest t1);
  checkb "fig1 degrees" true (internal_degrees_ok t1);
  check "bad leaf isolated at distance 4" 4 (Tree_paths.nearest_leaf_distance t1 bad);
  let t3, path = Tree_paths.fig3_path_with_unlucky () in
  checkb "fig3 forest" true (is_forest t3);
  check "central path length 3" 4 (List.length path);
  (* the central path's ends are leaves at distance 3 *)
  (match path with
  | first :: _ -> check "end is leaf" 1 (Tree_paths.degree t3 first)
  | [] -> Alcotest.fail "empty path")

let test_of_edges_validation () =
  Alcotest.check_raises "duplicate" (Invalid_argument "Tree_paths.of_edges: duplicate")
    (fun () -> ignore (Tree_paths.of_edges ~n:3 [ (0, 1); (1, 0) ]));
  Alcotest.check_raises "self loop" (Invalid_argument "Tree_paths.of_edges: bad edge")
    (fun () -> ignore (Tree_paths.of_edges ~n:3 [ (1, 1) ]))

(* ---------- Lower_bound (Theorem 1) ---------- *)

let test_lower_bound_defaults () =
  check "threshold at n=4096" 1 (Lower_bound.default_threshold ~n:4096);
  check "threshold large" 2 (Lower_bound.default_threshold ~n:(1 lsl 24));
  check "radius" 1 (Lower_bound.default_radius ~threshold:3);
  checkb "theorem bounds positive" true
    (Lower_bound.theorem1_size_bound ~n:1024 > 0.0
    && Lower_bound.theorem1_depth_bound ~n:1024 > 0.0)

let test_good_inputs_spread () =
  (* in a crossbar all inputs are within distance 2 of each other, so a
     threshold of 3 keeps only one good input *)
  let net = Ftcsn_networks.Crossbar.square 4 in
  let good threshold =
    Array.length (Lower_bound.analyse ~threshold net).Lower_bound.good_input_vertices
  in
  check "one survivor" 1 (good 3);
  (* threshold 1 keeps everything *)
  check "all survive" 4 (good 1)

let test_zones_on_chain () =
  (* chain 0-1-2-3-4: zones around 0 have exactly one edge each *)
  let g = Digraph.of_edges ~n:5 [| (0, 1); (1, 2); (2, 3); (3, 4) |] in
  let net = Network.make ~name:"chain" ~graph:g ~inputs:[| 0 |] ~outputs:[| 4 |] in
  match (Lower_bound.analyse ~threshold:1 ~radius:3 net).Lower_bound.zones with
  | [ z ] ->
      Alcotest.(check (array int)) "zone sizes" [| 1; 1; 1 |] z.Lower_bound.zone_sizes;
      check "min" 1 z.Lower_bound.min_zone;
      check "total" 3 z.Lower_bound.neighbourhood_edges
  | _ -> Alcotest.fail "one input, one zone"

let test_zones_on_ft_network () =
  let ft = build_small () in
  let report = Lower_bound.analyse ~threshold:3 ~radius:1 ft.Ft_network.net in
  checkb "some good inputs" true (Array.length report.Lower_bound.good_input_vertices >= 1);
  List.iter
    (fun z ->
      (* zone 1 around an input counts its fan-out switches *)
      check "first zone = grid rows"
        (Ft_params.grid_rows ft.Ft_network.params)
        z.Lower_bound.min_zone)
    report.Lower_bound.zones;
  check "depth certificate" 2 report.Lower_bound.depth_certificate

let test_analyse_depth_certificate_validity () =
  (* the certificate must never exceed the true depth *)
  let ft = build_small () in
  let report = Lower_bound.analyse ~threshold:3 ~radius:1 ft.Ft_network.net in
  checkb "certificate <= actual depth" true
    (report.Lower_bound.depth_certificate <= Network.depth ft.Ft_network.net)

let test_lemma2_certificate_crossbar () =
  (* crossbar inputs are all within distance 2: every input links, and
     short shorting families exist in quantity *)
  let net = Ftcsn_networks.Crossbar.square 8 in
  let cert = Lower_bound.lemma2_certificate ~threshold:3 net in
  check "all inputs linked" 8 cert.Lower_bound.linked_inputs;
  checkb "families found" true (List.length cert.Lower_bound.shorting_families >= 2);
  (* every family joins two distinct inputs via an edge-disjoint path *)
  let all_edges =
    List.concat_map
      (fun path ->
        let rec go = function
          | a :: (b :: _ as rest) -> (min a b, max a b) :: go rest
          | _ -> []
        in
        go path)
      cert.Lower_bound.shorting_families
  in
  check "edge-disjoint families" (List.length all_edges)
    (List.length (List.sort_uniq compare all_edges))

let test_lemma2_certificate_ft_sparse () =
  (* FT nets keep inputs far apart: at the same threshold no input links,
     so there are no cheap shorting opportunities — the structural
     dichotomy Lemma 2 turns into the depth bound *)
  let ft = build_small () in
  let cert = Lower_bound.lemma2_certificate ~threshold:3 ft.Ft_network.net in
  check "no inputs linked" 0 cert.Lower_bound.linked_inputs;
  check "no families" 0 (List.length cert.Lower_bound.shorting_families)

let test_lemma2_certificate_benes () =
  let net = Ftcsn_networks.Benes.network (Ftcsn_networks.Benes.make 16) in
  let cert = Lower_bound.lemma2_certificate ~threshold:3 net in
  (* sibling inputs share a switch: they all link at distance 2 *)
  check "all inputs linked" 16 cert.Lower_bound.linked_inputs;
  checkb "families found" true (cert.Lower_bound.shorting_families <> [])

(* ---------- Pipeline ---------- *)

let test_pipeline_no_faults_survive () =
  let ft = build_small () in
  let rng = Rng.create ~seed:9 in
  let v = Strip_ref.trial ~rng ~eps:0.0 ft.Ft_network.net in
  checkb "survives" true (v = Pipeline.Survived)

let test_pipeline_total_failure () =
  let ft = build_small () in
  let rng = Rng.create ~seed:10 in
  (* eps = 0.5/0.5: every switch fails; terminals short or isolate *)
  let v = Strip_ref.trial ~rng ~eps:0.5 ft.Ft_network.net in
  checkb "fails" true (v <> Pipeline.Survived)

let test_pipeline_survival_monotone () =
  let ft = build_small () in
  let rng = Rng.create ~seed:11 in
  let at eps =
    (Pipeline.survival ~trials:30 ~rng ~eps ft.Ft_network.net)
      .Ftcsn_reliability.Monte_carlo.mean
  in
  let lo = at 1e-4 and hi = at 0.2 in
  checkb "more faults, less survival" true (lo >= hi);
  checkb "low eps survives mostly" true (lo > 0.8)

let test_pipeline_ft_beats_benes () =
  let ft = build_small () in
  let benes = Ftcsn_networks.Benes.network (Ftcsn_networks.Benes.make 4) in
  let rng = Rng.create ~seed:12 in
  let eps = 0.02 in
  let ft_s =
    (Pipeline.survival ~trials:40 ~rng ~eps ~probe:Pipeline.sc_probe_only
       ft.Ft_network.net)
      .Ftcsn_reliability.Monte_carlo.mean
  in
  let bn_s =
    (Pipeline.survival ~trials:40 ~rng ~eps ~probe:Pipeline.sc_probe_only benes)
      .Ftcsn_reliability.Monte_carlo.mean
  in
  checkb "headline: FT construction wins under faults" true (ft_s > bn_s)

let test_pipeline_probe_presets () =
  check "default greedy" 1 Pipeline.default_probe.Pipeline.greedy_permutations;
  check "sc-only has no perms" 0 Pipeline.sc_probe_only.Pipeline.greedy_permutations;
  check "sc-only probes flows" 3 Pipeline.sc_probe_only.Pipeline.sc_probes

let curve_estimates_equal a b =
  Array.for_all2
    (fun (x : Ftcsn_reliability.Monte_carlo.estimate)
         (y : Ftcsn_reliability.Monte_carlo.estimate) ->
      x.successes = y.successes && x.trials = y.trials)
    a b

let test_survival_curve_matches_independent () =
  (* the CRN curve, which bisects each trial's grid for its first
     failing point, must be pointwise bit-identical to independent
     survival runs, for sorted and unsorted grids, flow-only and mixed
     probes, at every jobs *)
  let benes = Ftcsn_networks.Benes.network (Ftcsn_networks.Benes.make 8) in
  let trials = 120 in
  List.iter
    (fun eps ->
      List.iter
        (fun (pname, probe) ->
          List.iter
            (fun jobs ->
              let curve =
                let rng = Rng.create ~seed:2718 in
                Pipeline.survival_curve ~jobs ~trials ~rng ~eps ~probe benes
              in
              Array.iteri
                (fun k e ->
                  let rng = Rng.create ~seed:2718 in
                  let single =
                    Pipeline.survival ~trials ~rng ~eps:eps.(k) ~probe benes
                  in
                  check
                    (Printf.sprintf "%s jobs=%d point %d successes" pname jobs
                       k)
                    single.Ftcsn_reliability.Monte_carlo.successes
                    e.Ftcsn_reliability.Monte_carlo.successes;
                  check
                    (Printf.sprintf "%s jobs=%d point %d trials" pname jobs k)
                    single.Ftcsn_reliability.Monte_carlo.trials
                    e.Ftcsn_reliability.Monte_carlo.trials)
                curve)
            [ 1; 4 ])
        [
          ("sc", Pipeline.sc_probe_only); ("default", Pipeline.default_probe);
        ])
    [
      [| 1e-3; 1e-2; 0.05; 0.12 |];
      [| 0.05; 1e-3; 0.12 |] (* visited in ascending order *);
    ]

(* [survival] and [survival_curve] reuse the last workspace built on a
   domain while the network is the same.  A workspace reused after a
   survival run (its pattern buffer full of sampled faults), after a
   curve on another network, and after runs that raised must give what
   a fresh one gave, at every jobs; 300 trials make two chunks, so
   jobs = 2 puts one on a worker domain. *)
let test_curve_workspace_slot () =
  let net spec =
    match
      Ftcsn_networks.Topology.build_string ~rng:(Rng.create ~seed:3) spec
    with
    | Ok b -> b.Ftcsn_networks.Topology.net
    | Error e -> failwith e
  in
  let a = net "benes:16" and b = net "butterfly:16" in
  let grid = [| 1e-3; 4e-3; 1.6e-2; 6.4e-2; 0.25 |] in
  List.iter
    (fun jobs ->
      List.iter
        (fun (pname, probe) ->
          let curve ?strip_radius eps net =
            Pipeline.survival_curve ~jobs ~trials:300 ~rng:(Rng.create ~seed:9)
              ~eps ?strip_radius ~probe net
          in
          let label what = Printf.sprintf "%s jobs=%d: %s" pname jobs what in
          let first = curve grid a in
          ignore
            (Pipeline.survival ~jobs ~trials:300 ~rng:(Rng.create ~seed:1)
               ~eps:0.05 ~probe a);
          checkb (label "after survival") true
            (curve_estimates_equal first (curve grid a));
          ignore (curve grid b);
          List.iter
            (fun (what, run) ->
              match run () with
              | _ -> Alcotest.failf "%s" (label (what ^ " did not raise"))
              | exception Invalid_argument _ -> ())
            [
              ("eps 0.7", fun () -> curve [| 1e-3; 0.7 |] a);
              ("radius -1", fun () -> curve ~strip_radius:(-1) grid a);
            ];
          checkb (label "after raising runs") true
            (curve_estimates_equal first (curve grid a)))
        [
          ("sc", Pipeline.sc_probe_only); ("default", Pipeline.default_probe);
        ])
    [ 1; 2 ]

(* A trial strips each grid point at most once: the bisection decides
   the points it visits, and after it only the unvisited points below
   the first failing one are stripped.  So one curve adds at most
   trials × points to [survivor.apply]: on ft:16 with flow-only probes
   on perfbench's grid, and on benes:16 with the default preset on a
   grid whose points mostly pass the bisection, where greedy routing
   fails at the points it visits. *)
let test_curve_strips_each_point_once () =
  Ftcsn.Ft_topology.install ();
  let applies =
    Ftcsn_obs.Metrics.counter Ftcsn_obs.Metrics.default "survivor.apply"
  in
  (* 8 log-spaced points from [lo] to 1000 lo *)
  let grid lo =
    Array.init 8 (fun i -> lo *. (10.0 ** (3.0 *. float_of_int i /. 7.0)))
  in
  List.iter
    (fun (spec, probe, trials, eps) ->
      let net =
        match
          Ftcsn_networks.Topology.build_string ~rng:(Rng.create ~seed:3) spec
        with
        | Ok b -> b.Ftcsn_networks.Topology.net
        | Error e -> failwith e
      in
      let before = Ftcsn_obs.Counter.get applies in
      ignore
        (Pipeline.survival_curve ~jobs:1 ~trials ~rng:(Rng.create ~seed:1) ~eps
           ~probe net);
      let strips = Ftcsn_obs.Counter.get applies - before in
      let bound = trials * Array.length eps in
      checkb
        (Printf.sprintf "%s: %d strips <= %d" spec strips bound)
        true (strips <= bound))
    [
      ("ft:16", Pipeline.sc_probe_only, 400, grid 1e-4);
      ("benes:16", Pipeline.default_probe, 300, grid 1e-6);
    ]

(* ---------- Paper_bounds ---------- *)

let test_paper_bounds_regimes () =
  let eps = Ftcsn.Paper_bounds.paper_epsilon in
  (* at the paper's eps = 1e-6 the bound is tiny for moderate u *)
  checkb "lemma7 tiny" true (Ftcsn.Paper_bounds.lemma7_shorting_bound ~u:8 ~eps < 1e-20)

(* ---------- Majority-access probe (Lemma 6) ---------- *)

let test_majority_probe_ft_clean () =
  let ft = build_small () in
  let rng = Rng.create ~seed:80 in
  checkb "fault-free ft keeps sampled majority access" true
    (Majority_access.sampled_busy_majority ~trials:5 ~rng
       ~allowed:(fun _ -> true)
       ft.Ft_network.net)

let test_majority_probe_detects_violation () =
  (* a funnel network loses majority access as soon as a call occupies the
     junction *)
  let g =
    Digraph.of_edges ~n:6 [| (0, 2); (1, 2); (2, 3); (3, 4); (3, 5) |]
  in
  let net =
    Network.make ~name:"funnel" ~graph:g ~inputs:[| 0; 1 |] ~outputs:[| 4; 5 |]
  in
  let rng = Rng.create ~seed:81 in
  checkb "funnel violates under load" false
    (Majority_access.sampled_busy_majority ~trials:20 ~load:0.5 ~rng
       ~allowed:(fun _ -> true)
       net)

(* ---------- §3 transfer: gadget substitution ---------- *)

module Sp_network = Ftcsn_reliability.Sp_network
module Substitution = Ftcsn_reliability.Substitution

(* ε-invariance made concrete: every switch of [net] becomes a
   Proposition-1 gadget whose open and short probabilities at component
   rate [eps] are both below [eps'] *)
let harden ~eps ~eps' net =
  let spec = Sp_network.design ~eps ~eps' in
  let sub =
    Substitution.substitute net.Network.graph ~gadget:(Sp_network.build spec)
  in
  let image v = sub.Substitution.vertex_image.(v) in
  let hardened =
    Network.make
      ~name:(net.Network.name ^ "-hardened")
      ~graph:sub.Substitution.graph
      ~inputs:(Array.map image net.Network.inputs)
      ~outputs:(Array.map image net.Network.outputs)
  in
  (spec, sub, hardened)

let test_transfer_harden_accounting () =
  let benes = Ftcsn_networks.Benes.network (Ftcsn_networks.Benes.make 4) in
  let spec, _, h = harden ~eps:0.1 ~eps':0.01 benes in
  check "size multiplied"
    (Network.size benes * Sp_network.size spec)
    (Network.size h);
  check "depth multiplied"
    (Network.depth benes * Sp_network.depth spec)
    (Network.depth h);
  checkb "logical open under target" true
    (Sp_network.open_prob spec ~eps_open:0.1 ~eps_close:0.1 < 0.01);
  checkb "logical short under target" true
    (Sp_network.short_prob spec ~eps_open:0.1 ~eps_close:0.1 < 0.01)

let test_transfer_logical_roundtrip () =
  let benes = Ftcsn_networks.Benes.network (Ftcsn_networks.Benes.make 4) in
  let _, sub, h = harden ~eps:0.1 ~eps':0.01 benes in
  let logical =
    Substitution.logical_pattern sub (Fault.all_normal (Network.size h))
  in
  check "logical arity" (Network.size benes) (Array.length logical);
  Array.iter
    (fun s -> checkb "healthy" true (Fault.state_equal s Fault.Normal))
    logical

let test_transfer_improves_survival () =
  (* hardened Benes must beat bare Benes at the component failure rate it
     was designed for, judged at the logical level *)
  let rng = Rng.create ~seed:70 in
  let benes = Ftcsn_networks.Benes.network (Ftcsn_networks.Benes.make 4) in
  let eps = 0.05 in
  let _, sub, h = harden ~eps ~eps':1e-3 benes in
  let trials = 300 in
  let bare_fail = ref 0 and hard_fail = ref 0 in
  let logical_fails pattern =
    Array.exists (fun s -> not (Fault.state_equal s Fault.Normal)) pattern
  in
  for _ = 1 to trials do
    let bare = Fault.sample rng ~eps_open:eps ~eps_close:eps ~m:(Network.size benes) in
    if logical_fails bare then incr bare_fail;
    let phys =
      Fault.sample rng ~eps_open:eps ~eps_close:eps ~m:(Network.size h)
    in
    if logical_fails (Substitution.logical_pattern sub phys) then incr hard_fail
  done;
  checkb "hardening reduces logical failures" true (!hard_fail * 4 < !bare_fail)

(* ---------- degradation: Traffic with permanent failures ---------- *)

(* a per-tick hazard becomes the failure clock's mean time between
   failures (1/hazard), repairs stay off, and the ticks are the horizon *)
let mtbf_of hazard = if hazard > 0.0 then 1.0 /. hazard else infinity

let degrade_run ~seed ~hazard ~ticks net =
  let config =
    Traffic.config ~load:0.6 ~mtbf:(mtbf_of hazard) ~mttr:infinity
      ~stop:(Traffic.Horizon (float_of_int ticks)) ()
  in
  Traffic.run ~rng:(Rng.create ~seed) ~config net

(* mean time to the first service failure under saturating traffic: a
   run stops there or at the horizon, so its sim_time is that time *)
let mttd ~rng ~hazard ~trials ~max_ticks net =
  let config =
    Traffic.config ~load:0.0 ~mtbf:(mtbf_of hazard) ~mttr:infinity
      ~stop:(Traffic.Horizon (float_of_int max_ticks)) ~saturate:true
      ~stop_on_degradation:true ()
  in
  let s = Traffic.estimate ~trials ~rng ~config net in
  s.Traffic.t_sim_time /. float_of_int s.Traffic.replications

let test_degrade_no_hazard_is_clean () =
  let ft = build_small () in
  let s = degrade_run ~seed:71 ~hazard:0.0 ~ticks:300 ft.Ft_network.net in
  checkb "full horizon" true (s.Traffic.sim_time = 300.0);
  check "no drops" 0 s.Traffic.dropped;
  check "no blocks" 0 (s.Traffic.blocked - s.Traffic.blocked_full);
  check "no failures" 0 s.Traffic.failures;
  checkb "no catastrophe" true (s.Traffic.catastrophe_at = None);
  checkb "traffic flowed" true (s.Traffic.served > 20)

let test_degrade_hazard_accumulates () =
  let ft = build_small () in
  let s = degrade_run ~seed:72 ~hazard:1e-4 ~ticks:400 ft.Ft_network.net in
  checkb "some switches failed" true (s.Traffic.failures > 0);
  checkb "reroutes covered drops" true (s.Traffic.rerouted <= s.Traffic.dropped)

let test_degrade_catastrophe_under_heavy_hazard () =
  let ft = build_small () in
  let s = degrade_run ~seed:73 ~hazard:0.05 ~ticks:500 ft.Ft_network.net in
  (* at 5% per tick the fabric must melt within the horizon *)
  checkb "catastrophe happened" true (s.Traffic.catastrophe_at <> None);
  checkb "ended early" true (s.Traffic.sim_time < 500.0)

let test_degrade_mttd_ordering () =
  (* Fair comparison: equal expected switch failures per tick (hazard
     scaled inversely to size), so MTTD measures pure redundancy — how
     many failures a fabric absorbs before service degrades.  At equal
     per-switch hazard the FT net's larger switch count means
     proportionally more exposure, which is the size-vs-tolerance trade
     the paper prices, not a defect. *)
  let ft = build_small () in
  let benes = Ftcsn_networks.Benes.network (Ftcsn_networks.Benes.make 4) in
  let rng = Rng.create ~seed:74 in
  let failures_per_tick = 0.05 in
  let mttd net =
    let hazard = failures_per_tick /. float_of_int (Network.size net) in
    mttd ~rng ~hazard ~trials:10 ~max_ticks:4000 net
  in
  let t_ft = mttd ft.Ft_network.net and t_benes = mttd benes in
  checkb
    (Printf.sprintf "ft %.0f > benes %.0f" t_ft t_benes)
    true (t_ft > t_benes)

let test_degrade_mttd_monotone_in_hazard () =
  let ft = build_small () in
  let rng = Rng.create ~seed:75 in
  let mttd hazard =
    mttd ~rng ~hazard ~trials:8 ~max_ticks:2000 ft.Ft_network.net
  in
  let slow = mttd 5e-5 and fast = mttd 2e-3 in
  checkb (Printf.sprintf "slow %.0f >= fast %.0f" slow fast) true (slow >= fast)

(* ---------- routing on 𝒩 (Greedy) ---------- *)

let test_ft_route_fault_free_all_perms () =
  let ft = build_small () in
  List.iter
    (fun engine ->
      let r = Ftcsn_routing.Greedy.create ~engine ft.Ft_network.net in
      Ftcsn_util.Perm.iter_all 4 (fun pi ->
          let success = ref 0 in
          ignore (Ftcsn_routing.Greedy.route_permutation r pi ~success);
          check
            (Ftcsn_routing.Greedy.engine_name r ^ ": all 4 routed")
            4 !success;
          Ftcsn_routing.Greedy.clear r))
    [ `Bfs; `Staged ]

let test_ft_route_paths_valid () =
  let rng = Rng.create ~seed:90 in
  let ft = Ft_network.make ~rng (Ft_params.scaled ~u:3 ()) in
  let net = ft.Ft_network.net in
  let g = net.Network.graph in
  let r = Ftcsn_routing.Greedy.create net in
  for _ = 1 to 10 do
    let pi = Rng.permutation rng 8 in
    let success = ref 0 in
    let paths = Ftcsn_routing.Greedy.route_permutation r pi ~success in
    Ftcsn_routing.Greedy.clear r;
    check "all routed" 8 !success;
    let all = Array.to_list paths |> List.filter_map Fun.id |> List.concat in
    check "disjoint" (List.length all) (List.length (List.sort_uniq compare all));
    Array.iteri
      (fun i p ->
        match p with
        | None -> ()
        | Some p ->
            check "starts at input" net.Network.inputs.(i) (List.hd p);
            check "ends at output" net.Network.outputs.(pi.(i))
              (List.hd (List.rev p));
            let rec edges = function
              | a :: (b :: _ as rest) ->
                  checkb "edge exists" true
                    (Digraph.fold_out g a ~init:false ~f:(fun acc ~dst ~eid:_ ->
                         acc || dst = b));
                  edges rest
              | _ -> ()
            in
            edges p)
      paths
  done

let test_ft_route_respects_allowed () =
  let ft = build_small () in
  let net = ft.Ft_network.net in
  (* forbid everything internal: no route can exist *)
  let terminals = Network.terminals net in
  let allowed v = List.mem v terminals in
  let r = Ftcsn_routing.Greedy.create ~allowed net in
  checkb "no route through forbidden interior" true
    (Ftcsn_routing.Greedy.route r ~input:net.Network.inputs.(0)
       ~output:net.Network.outputs.(0)
    = None)

(* ---------- qcheck properties ---------- *)

let prop_ft_network_predictions =
  QCheck2.Test.make ~name:"Ft_network matches analytic size/depth for random params"
    ~count:30
    QCheck2.Gen.(
      tup5 (int_range 1 3) (int_range 1 2) (int_range 2 3) (int_range 1 3)
        (int_range 1 4))
    (fun (u, gamma, branching, width_factor, degree) ->
      let p =
        Ft_params.scaled ~branching ~width_factor ~degree ~gamma ~u ()
      in
      let rng = Rng.create ~seed:(Hashtbl.hash (u, gamma, branching, width_factor, degree)) in
      let ft = Ft_network.make ~rng p in
      Network.size ft.Ft_network.net = Ft_params.predicted_size p
      && Network.depth ft.Ft_network.net = Ft_params.predicted_depth p
      && Network.is_acyclic ft.Ft_network.net)

let prop_fault_strip_soundness =
  QCheck2.Test.make ~name:"stripped internal vertices are never allowed"
    ~count:60
    QCheck2.Gen.(pair (int_range 0 100000) (int_range 1 30))
    (fun (seed, pct) ->
      let rng = Rng.create ~seed in
      let net = Ftcsn_networks.Benes.network (Ftcsn_networks.Benes.make 8) in
      let eps = float_of_int pct /. 100.0 /. 2.0 in
      let pattern =
        Fault.sample rng ~eps_open:eps ~eps_close:eps ~m:(Network.size net)
      in
      let strip = Strip_ref.strip net pattern in
      let terminals = Network.terminals net in
      let ok = ref true in
      Ftcsn_util.Bitset.iter
        (fun v ->
          if (not (List.mem v terminals)) && strip.Strip_ref.allowed v then
            ok := false)
        strip.Strip_ref.stripped;
      (* and the surviving graph carries exactly the normal switches *)
      !ok
      && Digraph.edge_count strip.Strip_ref.normal_graph
         = Fault.count pattern Fault.Normal)

let prop_grid_degrees =
  QCheck2.Test.make ~name:"directed grids have the Fig-4 degree structure"
    ~count:50
    QCheck2.Gen.(pair (int_range 1 10) (int_range 1 10))
    (fun (rows, stages) ->
      let s = Directed_grid.make ~rows ~stages in
      let g = s.Directed_grid.graph in
      let expected_out col = if col = stages - 1 then 0 else if rows > 1 then 2 else 1 in
      let ok = ref true in
      for col = 0 to stages - 1 do
        for row = 0 to rows - 1 do
          let v = Directed_grid.vertex_at s.Directed_grid.grid ~row ~col in
          if Digraph.out_degree g v <> expected_out col then ok := false
        done
      done;
      !ok
      && Digraph.edge_count g = Directed_grid.edge_count ~rows ~stages)

let prop_tree_paths_invariants =
  QCheck2.Test.make ~name:"short_leaf_paths: edge-disjoint, short, leaf-ended"
    ~count:40
    QCheck2.Gen.(pair (int_range 3 120) int)
    (fun (leaves, seed) ->
      let rng = Rng.create ~seed in
      let tree = Tree_paths.random_internal3_tree ~rng ~leaves in
      let paths = Tree_paths.short_leaf_paths tree in
      let edge_of a b = (min a b, max a b) in
      let edges =
        List.concat_map
          (fun path ->
            let rec go = function
              | a :: (b :: _ as rest) -> edge_of a b :: go rest
              | _ -> []
            in
            go path)
          paths
      in
      List.length edges = List.length (List.sort_uniq compare edges)
      && List.for_all
           (fun path ->
             List.length path <= 4
             && Tree_paths.degree tree (List.hd path) = 1
             && Tree_paths.degree tree (List.hd (List.rev path)) = 1)
           paths
      && List.length paths >= Tree_paths.lemma1_lower_bound ~leaves)

let prop_transfer_size_accounting =
  QCheck2.Test.make ~name:"harden multiplies size by the gadget size" ~count:20
    QCheck2.Gen.(int_range 2 4)
    (fun log_n ->
      let n = 1 lsl log_n in
      let net = Ftcsn_networks.Benes.network (Ftcsn_networks.Benes.make n) in
      let spec, _, h = harden ~eps:0.1 ~eps':0.05 net in
      Network.size h = Network.size net * Sp_network.size spec)

let prop_pipeline_ws_matches_trial =
  QCheck2.Test.make
    ~name:"Pipeline.trial_ws = Pipeline.trial on shared substreams" ~count:15
    QCheck2.Gen.(pair (int_range 0 100000) (int_range 1 20))
    (fun (seed, pct) ->
      let ft = build_small () in
      let net = ft.Ft_network.net in
      let eps = float_of_int pct /. 100.0 in
      let ws = Pipeline.create_ws net in
      let root = Rng.create ~seed in
      let ok = ref true in
      (* the workspace is reused across trials, the legacy path allocates
         afresh; identical substreams must give identical verdicts *)
      for i = 0 to 9 do
        let legacy = Strip_ref.trial ~rng:(Rng.substream root i) ~eps net in
        let ws_v = Pipeline.trial_ws ws ~rng:(Rng.substream root i) ~eps in
        if legacy <> ws_v then ok := false
      done;
      !ok)

let prop_pipeline_survival_jobs_identical =
  QCheck2.Test.make
    ~name:"Pipeline.survival: workspace engine = legacy loop, every jobs"
    ~count:5
    QCheck2.Gen.(int_range 0 100000)
    (fun seed ->
      let ft = build_small () in
      let net = ft.Ft_network.net in
      let trials = 60 in
      let eps = 0.05 in
      let run jobs =
        let rng = Rng.create ~seed in
        Pipeline.survival ~jobs ~trials ~rng ~eps net
      in
      (* reference: the legacy allocating trial on the same substreams *)
      let legacy =
        let rng = Rng.create ~seed in
        Ftcsn_reliability.Monte_carlo.estimate ~trials ~rng (fun sub ->
            Strip_ref.trial ~rng:sub ~eps net = Pipeline.Survived)
      in
      let e1 = run 1 in
      run 2 = e1 && run 4 = e1 && legacy = e1)

(* Cycles the isolated-input search must not misread.  Edges in id
   order: i0 -> a, a -> b, b -> a, a -> o, i1 -> b, then i2 -> c,
   c -> d, d -> e, e -> c, c -> o', i3 -> e.  Input i0's search enters b,
   finds only a (on its stack) beyond it, pops b and succeeds through
   a -> o; a search that marked the popped b dead would call i1
   isolated, though i1 -> b -> a -> o is open.  Input i2's search pops e
   and then d, each reaching only c beyond it; one that did not carry
   e's lowlink up to d would take d for the root of a component of its
   own, mark d and e dead and call i3 isolated. *)
let cyclic_net =
  let i0 = 0 and i1 = 1 and a = 2 and b = 3 and o = 4 in
  let i2 = 5 and i3 = 6 and c = 7 and d = 8 and e = 9 and o' = 10 in
  Network.make ~name:"cycle"
    ~graph:
      (Digraph.of_edges ~n:11
         [|
           (i0, a); (a, b); (b, a); (a, o); (i1, b);
           (i2, c); (c, d); (d, e); (e, c); (c, o'); (i3, e);
         |])
    ~inputs:[| i0; i1; i2; i3 |] ~outputs:[| o; o' |]

(* the workspace strip against the subgraph-rebuilding oracle, one
   workspace reused across radii out of order and across a sampled and
   a fault-free pattern: vertex masks, stripped set, shorted pairs,
   isolated inputs, and an edge mask passing exactly the normal
   switches *)
let prop_strip_into_matches_oracle =
  let benes = Ftcsn_networks.Benes.network (Ftcsn_networks.Benes.make 8) in
  let ft = (build_small ()).Ft_network.net in
  QCheck2.Test.make
    ~name:"Fault_strip.strip_into = Strip_ref.strip at radius 0, 1 and 2"
    ~count:90
    QCheck2.Gen.(triple (int_range 0 100000) (int_range 1 30) (int_range 0 2))
    (fun (seed, pct, which) ->
      let net = [| ft; benes; cyclic_net |].(which) in
      let g = net.Network.graph in
      let eps = float_of_int pct /. 100.0 /. 2.0 in
      let rng = Rng.create ~seed in
      let sampled =
        Fault.sample rng ~eps_open:eps ~eps_close:eps ~m:(Network.size net)
      in
      let ws = Fault_strip.create_ws net in
      List.for_all
        (fun (pattern, radius) ->
          let reference = Strip_ref.strip ~radius net pattern in
          Fault_strip.strip_into ~radius ws pattern;
          let allowed = Fault_strip.ws_allowed ws in
          let same_mask = ref true in
          for v = 0 to Digraph.vertex_count g - 1 do
            if allowed v <> reference.Strip_ref.allowed v then
              same_mask := false
          done;
          let passed = ref 0 in
          for e = 0 to Digraph.edge_count g - 1 do
            if Fault_strip.ws_edge_ok ws e then incr passed
          done;
          !same_mask
          && Ftcsn_util.Bitset.to_list (Fault_strip.ws_stripped ws)
             = Ftcsn_util.Bitset.to_list reference.Strip_ref.stripped
          && Fault_strip.ws_shorted_terminals ws
             = reference.Strip_ref.shorted_terminals
          && Fault_strip.ws_isolated_inputs ws
             = Strip_ref.isolated_inputs net reference
          && !passed = Fault.count pattern Fault.Normal
          && !passed = Digraph.edge_count reference.Strip_ref.normal_graph)
        (let clean = Fault.all_normal (Network.size net) in
         [ (sampled, 2); (clean, 0); (sampled, 0); (clean, 1); (sampled, 1) ]))

(* The curve visits its points in ascending ε, bisects for each trial's
   first failing point and decides the others by their shorted
   terminals and greedy permutations.  Whatever the grid's order and
   repeats, the preset and the strip radius, every point must be what an
   independent survival run at its ε gives. *)
let prop_curve_matches_independent_runs =
  let nets =
    lazy
      (Ftcsn.Ft_topology.install ();
       Array.of_list
         (List.concat_map
            (fun family ->
              List.map
                (fun n ->
                  match
                    Ftcsn_networks.Topology.build_string ~rng:(Rng.create ~seed:3)
                      (Printf.sprintf "%s:%d" family n)
                  with
                  | Ok b -> b.Ftcsn_networks.Topology.net
                  | Error e -> failwith e)
                [ 8; 16 ])
            [ "benes"; "butterfly"; "valiant-sc"; "ft"; "cantor" ]))
  in
  QCheck2.Test.make
    ~name:"survival curve point = independent run, any grid" ~count:30
    QCheck2.Gen.(
      pair
        (quad (int_range 0 100000) (int_range 0 9) (int_range 2 8) bool)
        (pair bool (int_range 0 1)))
    (fun ((seed, which, points, shuffle), (flow_only, strip_radius)) ->
      let net = (Lazy.force nets).(which) in
      let rng = Rng.create ~seed in
      (* log-uniform in [1e-3, 0.3], a point repeated now and then *)
      let grid = Array.make points 0.0 in
      for k = 0 to points - 1 do
        grid.(k) <-
          (if k > 0 && Rng.int rng 4 = 0 then grid.(k - 1)
           else 1e-3 *. (300.0 ** Rng.float rng))
      done;
      Array.sort Float.compare grid;
      let grid =
        if shuffle then Array.map (fun k -> grid.(k)) (Rng.permutation rng points)
        else grid
      in
      let probe =
        if flow_only then Pipeline.sc_probe_only else Pipeline.default_probe
      in
      let trials = 30 in
      let curve =
        Pipeline.survival_curve ~trials ~rng:(Rng.create ~seed) ~eps:grid
          ~strip_radius ~probe net
      in
      Array.for_all Fun.id
        (Array.mapi
           (fun k (e : Ftcsn_reliability.Monte_carlo.estimate) ->
             let single =
               Pipeline.survival ~trials ~rng:(Rng.create ~seed) ~eps:grid.(k)
                 ~strip_radius ~probe net
             in
             single.successes = e.successes && single.trials = e.trials)
           curve))

let prop_pipeline_ws_matches_trial_radius1 =
  QCheck2.Test.make
    ~name:"Pipeline.trial_ws = Strip_ref.trial at strip radius 1" ~count:15
    QCheck2.Gen.(pair (int_range 0 100000) (int_range 1 20))
    (fun (seed, permille) ->
      let net = (build_small ()).Ft_network.net in
      let eps = float_of_int permille /. 1000.0 in
      let ws = Pipeline.create_ws net in
      let root = Rng.create ~seed in
      let ok = ref true in
      for i = 0 to 9 do
        let reference =
          Strip_ref.trial ~rng:(Rng.substream root i) ~eps ~strip_radius:1 net
        in
        let ws_v =
          Pipeline.trial_ws ~strip_radius:1 ws ~rng:(Rng.substream root i) ~eps
        in
        if reference <> ws_v then ok := false
      done;
      !ok)

let core_props =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_ft_network_predictions;
      prop_fault_strip_soundness;
      prop_grid_degrees;
      prop_tree_paths_invariants;
      prop_transfer_size_accounting;
      prop_pipeline_ws_matches_trial;
      prop_pipeline_survival_jobs_identical;
      prop_strip_into_matches_oracle;
      prop_pipeline_ws_matches_trial_radius1;
      prop_curve_matches_independent_runs;
    ]

let () =
  Alcotest.run "ftcsn_core"
    [
      ( "directed-grid",
        [
          Alcotest.test_case "counts" `Quick test_grid_counts;
          Alcotest.test_case "fig4 structure" `Quick test_grid_structure_fig4;
          Alcotest.test_case "single row" `Quick test_grid_single_row;
          Alcotest.test_case "splice" `Quick test_grid_splice;
          Alcotest.test_case "render" `Quick test_grid_render;
          Alcotest.test_case "column cut" `Quick test_grid_column_cut;
        ] );
      ( "ft-params",
        [
          Alcotest.test_case "paper" `Quick test_params_paper;
          Alcotest.test_case "scaled" `Quick test_params_scaled_and_validation;
          Alcotest.test_case "predictions" `Quick test_params_predictions_match_build;
        ] );
      ( "ft-network",
        [
          Alcotest.test_case "structure" `Quick test_ft_structure;
          Alcotest.test_case "grid identification" `Quick test_ft_grid_identification;
          Alcotest.test_case "terminal fans" `Quick test_ft_input_fanout;
          Alcotest.test_case "pairs connected" `Quick test_ft_every_pair_connected;
          Alcotest.test_case "stage census" `Quick test_ft_stage_census;
          Alcotest.test_case "fault-free routing" `Quick
            test_ft_fault_free_routes_everything;
          Alcotest.test_case "param validation" `Quick test_ft_rejects_bad_params;
        ] );
      ( "fault-strip",
        [
          Alcotest.test_case "no faults" `Quick test_strip_no_faults;
          Alcotest.test_case "marks endpoints" `Quick test_strip_marks_faulty_endpoints;
          Alcotest.test_case "radius 1" `Quick test_strip_radius_one;
          Alcotest.test_case "terminals stay" `Quick test_strip_terminals_stay_allowed;
          Alcotest.test_case "detects short" `Quick test_strip_detects_short;
        ] );
      ( "majority-access",
        [
          Alcotest.test_case "clean" `Quick test_majority_access_clean;
          Alcotest.test_case "busy input" `Quick test_majority_access_busy_input_skipped;
          Alcotest.test_case "blocked junction" `Quick test_majority_access_with_block;
          Alcotest.test_case "lemma 3 grid access" `Quick test_grid_access_lemma3;
        ] );
      ( "tree-paths",
        [
          Alcotest.test_case "star" `Quick test_tree_paths_star;
          Alcotest.test_case "two cherries" `Quick test_tree_paths_two_cherries;
          Alcotest.test_case "lemma 1 bound" `Quick test_tree_paths_lemma1_bound_random;
          Alcotest.test_case "contract stretches" `Quick test_contract_stretches;
          Alcotest.test_case "contract branching" `Quick test_contract_preserves_branching;
          Alcotest.test_case "figure gadgets" `Quick test_fig_gadgets;
          Alcotest.test_case "validation" `Quick test_of_edges_validation;
        ] );
      ( "lower-bound",
        [
          Alcotest.test_case "defaults" `Quick test_lower_bound_defaults;
          Alcotest.test_case "good inputs" `Quick test_good_inputs_spread;
          Alcotest.test_case "zones chain" `Quick test_zones_on_chain;
          Alcotest.test_case "zones ft" `Quick test_zones_on_ft_network;
          Alcotest.test_case "certificate validity" `Quick
            test_analyse_depth_certificate_validity;
          Alcotest.test_case "lemma2 crossbar" `Quick test_lemma2_certificate_crossbar;
          Alcotest.test_case "lemma2 ft sparse" `Quick test_lemma2_certificate_ft_sparse;
          Alcotest.test_case "lemma2 benes" `Quick test_lemma2_certificate_benes;
        ] );
      ( "paper-bounds",
        [ Alcotest.test_case "regimes" `Quick test_paper_bounds_regimes ] );
      ( "majority-probe",
        [
          Alcotest.test_case "ft clean" `Quick test_majority_probe_ft_clean;
          Alcotest.test_case "funnel violation" `Quick
            test_majority_probe_detects_violation;
        ] );
      ( "transfer",
        [
          Alcotest.test_case "accounting" `Quick test_transfer_harden_accounting;
          Alcotest.test_case "logical roundtrip" `Quick test_transfer_logical_roundtrip;
          Alcotest.test_case "improves survival" `Quick test_transfer_improves_survival;
        ] );
      ( "degradation",
        [
          Alcotest.test_case "no hazard" `Quick test_degrade_no_hazard_is_clean;
          Alcotest.test_case "hazard accumulates" `Quick
            test_degrade_hazard_accumulates;
          Alcotest.test_case "catastrophe" `Quick
            test_degrade_catastrophe_under_heavy_hazard;
          Alcotest.test_case "mttd ordering" `Slow test_degrade_mttd_ordering;
          Alcotest.test_case "mttd monotone" `Slow
            test_degrade_mttd_monotone_in_hazard;
        ] );
      ( "pipeline",
        [
          Alcotest.test_case "no faults" `Quick test_pipeline_no_faults_survive;
          Alcotest.test_case "total failure" `Quick test_pipeline_total_failure;
          Alcotest.test_case "monotone" `Quick test_pipeline_survival_monotone;
          Alcotest.test_case "ft beats benes" `Quick test_pipeline_ft_beats_benes;
          Alcotest.test_case "probe presets" `Quick test_pipeline_probe_presets;
          Alcotest.test_case "survival curve = independent runs" `Quick
            test_survival_curve_matches_independent;
          Alcotest.test_case "one workspace per domain" `Quick
            test_curve_workspace_slot;
          Alcotest.test_case "one strip per curve point" `Quick
            test_curve_strips_each_point_once;
        ] );
      ( "ft-route",
        [
          Alcotest.test_case "all perms" `Quick test_ft_route_fault_free_all_perms;
          Alcotest.test_case "paths valid" `Quick test_ft_route_paths_valid;
          Alcotest.test_case "respects allowed" `Quick test_ft_route_respects_allowed;
        ] );
      ("properties", core_props);
    ]
