(* Tests for the graph substrate: CSR digraphs, traversals, staging,
   quotients, rendering. *)

module Digraph = Ftcsn_graph.Digraph
module Traverse = Ftcsn_graph.Traverse
module Staged = Ftcsn_graph.Staged
module Render = Ftcsn_graph.Render
module Rng = Ftcsn_prng.Rng

let check = Alcotest.(check int)
let checkb = Alcotest.(check bool)

(* small diamond: 0 -> 1 -> 3, 0 -> 2 -> 3 *)
let diamond () = Digraph.of_edges ~n:4 [| (0, 1); (0, 2); (1, 3); (2, 3) |]

(* a path with a detached vertex *)
let path_plus () = Digraph.of_edges ~n:5 [| (0, 1); (1, 2); (2, 3) |]

let test_builder_ids () =
  let b = Digraph.Builder.create () in
  check "v0" 0 (Digraph.Builder.add_vertex b);
  check "v1" 1 (Digraph.Builder.add_vertex b);
  check "first of batch" 2 (Digraph.Builder.add_vertices b 3);
  check "count" 5 (Digraph.Builder.vertex_count b);
  check "e0" 0 (Digraph.Builder.add_edge b ~src:0 ~dst:4);
  check "e1" 1 (Digraph.Builder.add_edge b ~src:4 ~dst:1);
  let g = Digraph.Builder.freeze b in
  check "frozen vertices" 5 (Digraph.vertex_count g);
  check "frozen edges" 2 (Digraph.edge_count g);
  Alcotest.(check (pair int int)) "endpoints" (0, 4) (Digraph.edge_endpoints g 0)

let test_builder_rejects_unknown_vertex () =
  let b = Digraph.Builder.create () in
  ignore (Digraph.Builder.add_vertex b);
  Alcotest.check_raises "bad edge"
    (Invalid_argument "Builder.add_edge: unknown vertex") (fun () ->
      ignore (Digraph.Builder.add_edge b ~src:0 ~dst:5))

let test_adjacency () =
  let g = diamond () in
  check "out 0" 2 (Digraph.out_degree g 0);
  check "in 3" 2 (Digraph.in_degree g 3);
  check "out 3" 0 (Digraph.out_degree g 3);
  Alcotest.(check (list int)) "out neighbours sorted" [ 1; 2 ]
    (List.sort compare
       (Digraph.fold_out g 0 ~init:[] ~f:(fun acc ~dst ~eid:_ -> dst :: acc)));
  check "max degree" 2 (Digraph.max_degree g)

let test_iter_edges_consistency () =
  let g = diamond () in
  let count = ref 0 in
  Digraph.iter_edges g (fun ~eid ~src ~dst ->
      incr count;
      Alcotest.(check (pair int int))
        (Printf.sprintf "edge %d endpoints" eid)
        (Digraph.edge_src g eid, Digraph.edge_dst g eid)
        (src, dst));
  check "edge count" 4 !count

let test_parallel_edges_and_loops () =
  let g = Digraph.of_edges ~n:2 [| (0, 1); (0, 1); (1, 1) |] in
  check "parallel kept" 2 (Digraph.out_degree g 0);
  check "loop kept" 1
    (Digraph.fold_out g 1 ~init:0 ~f:(fun acc ~dst ~eid:_ ->
         if dst = 1 then acc + 1 else acc))

let test_reverse () =
  let g = diamond () in
  let r = Digraph.reverse g in
  check "out 3 in reverse" 2 (Digraph.out_degree r 3);
  check "in 0 in reverse" 2 (Digraph.in_degree r 0);
  (* edge ids preserved *)
  Alcotest.(check (pair int int)) "edge 0 flipped" (1, 0)
    (Digraph.edge_endpoints r 0)

let test_subgraph_by_edges () =
  let g = diamond () in
  let sub, mapping = Graph_ref.subgraph_by_edges_map g ~keep:(fun e -> e <> 1) in
  check "edges" 3 (Digraph.edge_count sub);
  check "vertices unchanged" 4 (Digraph.vertex_count sub);
  Alcotest.(check (array int)) "mapping" [| 0; 2; 3 |] mapping;
  check "out 0 after removal" 1 (Digraph.out_degree sub 0)

let test_quotient () =
  let g = diamond () in
  (* merge 1 and 2 into one class *)
  let label = [| 0; 1; 1; 2 |] in
  let q, edge_image = Digraph.quotient g ~label ~classes:3 ~drop_self_loops:true in
  check "vertices" 3 (Digraph.vertex_count q);
  check "edges (parallel collapse not applied)" 4 (Digraph.edge_count q);
  Array.iter (fun e -> checkb "all survive" true (e >= 0)) edge_image;
  (* now merge the two ends of edge 0 -> self loop dropped *)
  let label2 = [| 0; 0; 1; 2 |] in
  let q2, image2 = Digraph.quotient g ~label:label2 ~classes:3 ~drop_self_loops:true in
  check "loop dropped" 3 (Digraph.edge_count q2);
  check "dropped edge marked" (-1) image2.(0)

let test_bfs_directed () =
  let g = path_plus () in
  let d = Traverse.bfs_directed g ~sources:[ 0 ] in
  Alcotest.(check (array int)) "distances" [| 0; 1; 2; 3; -1 |] d

let test_bfs_allowed () =
  let g = diamond () in
  (* forbid vertex 1: still reach 3 through 2 *)
  let d = Traverse.bfs_directed ~allowed:(fun v -> v <> 1) g ~sources:[ 0 ] in
  check "reaches 3 avoiding 1" 2 d.(3);
  check "1 unvisited" (-1) d.(1)

let test_shortest_path () =
  let g = diamond () in
  (match Traverse.shortest_path g ~src:0 ~dst:3 with
  | Some p -> check "path length" 3 (List.length p)
  | None -> Alcotest.fail "no path");
  (match Traverse.shortest_path ~allowed:(fun v -> v <> 1 && v <> 2) g ~src:0 ~dst:3 with
  | Some _ -> Alcotest.fail "blocked path found"
  | None -> ());
  Alcotest.(check (option (list int))) "self path" (Some [ 2 ])
    (Traverse.shortest_path g ~src:2 ~dst:2)

let test_shortest_path_undirected () =
  let g = path_plus () in
  match Bfs_ref.shortest_path_undirected g ~src:3 ~dst:0 with
  | Some p -> Alcotest.(check (list int)) "against edges" [ 3; 2; 1; 0 ] p
  | None -> Alcotest.fail "no undirected path"

let test_topological () =
  let g = diamond () in
  (match Traverse.topological_order g with
  | None -> Alcotest.fail "diamond is acyclic"
  | Some order ->
      let pos = Array.make 4 0 in
      Array.iteri (fun i v -> pos.(v) <- i) order;
      Digraph.iter_edges g (fun ~eid:_ ~src ~dst ->
          checkb "edge respects order" true (pos.(src) < pos.(dst))));
  let cyc = Digraph.of_edges ~n:2 [| (0, 1); (1, 0) |] in
  checkb "cycle detected" false (Traverse.is_acyclic cyc)

let test_longest_path_and_depth () =
  let g =
    Digraph.of_edges ~n:5 [| (0, 1); (1, 2); (2, 3); (0, 3); (3, 4) |]
  in
  let d = Traverse.longest_path_dag g ~sources:[ 0 ] in
  check "longest to 3" 3 d.(3);
  check "longest to 4" 4 d.(4);
  check "network depth" 4 (Traverse.depth g ~inputs:[ 0 ] ~outputs:[ 4 ]);
  check "unreachable output" (-1) (Traverse.depth g ~inputs:[ 4 ] ~outputs:[ 0 ])

let test_reachable () =
  let g = path_plus () in
  let set = Traverse.reachable g ~sources:[ 1 ] in
  Alcotest.(check (list int)) "reach set" [ 1; 2; 3 ]
    (Ftcsn_util.Bitset.to_list set)

let test_staged () =
  let g = diamond () in
  let staged = Staged.of_sources g ~sources:[ 0 ] in
  check "stages" 3 staged.Staged.stages;
  checkb "strict" true (Graph_ref.is_strictly_staged g staged);
  Alcotest.(check (list int)) "stage 1" [ 1; 2 ] (Staged.vertices_at staged 1);
  Alcotest.(check (array int)) "sizes" [| 1; 2; 1 |] (Staged.stage_sizes staged);
  Alcotest.(check (array int)) "edge counts" [| 2; 2; 0 |]
    (Staged.stage_edge_counts g staged)

let test_staged_violation () =
  (* 0 -> 1 -> 2 plus skip edge 0 -> 2 breaks strict staging *)
  let g = Digraph.of_edges ~n:3 [| (0, 1); (1, 2); (0, 2) |] in
  let staged = Staged.of_sources g ~sources:[ 0 ] in
  checkb "not strict" false (Graph_ref.is_strictly_staged g staged)

let test_dot_render () =
  let g = diamond () in
  let dot = Render.to_dot ~name:"d" g in
  checkb "mentions edge" true
    (let needle = "v0 -> v1" in
     let rec go i =
       i + String.length needle <= String.length dot
       && (String.sub dot i (String.length needle) = needle || go (i + 1))
     in
     go 0)

let test_ascii_stages () =
  let g = diamond () in
  let s = Render.ascii_stages g ~inputs:[ 0 ] in
  checkb "non-empty" true (String.length s > 10)

module Metrics = Ftcsn_graph.Metrics

let test_metrics_profile () =
  let g = diamond () in
  let p = Metrics.degree_profile g in
  check "min in" 0 p.Metrics.min_in;
  check "max in" 2 p.Metrics.max_in;
  check "min out" 0 p.Metrics.min_out;
  check "max out" 2 p.Metrics.max_out;
  Alcotest.(check (float 1e-9)) "mean" 1.0 p.Metrics.mean_out

let test_metrics_eccentricity_and_diameter () =
  let g = path_plus () in
  check "ecc of 0" 3 (Metrics.directed_eccentricity g 0);
  check "ecc of 3" 0 (Metrics.directed_eccentricity g 3);
  let rng = Rng.create ~seed:9 in
  let d = Metrics.diameter_lower_bound g ~samples:20 ~rng in
  checkb "diameter bound sane" true (d >= 0 && d <= 3)

let prop_quotient_preserves_edge_count =
  QCheck2.Test.make ~name:"quotient without loop-drop preserves edges" ~count:100
    QCheck2.Gen.(int_range 0 1000)
    (fun seed ->
      let rng = Rng.create ~seed in
      let n = 2 + Rng.int rng 20 in
      let m = Rng.int rng 40 in
      let edges =
        Array.init m (fun _ -> (Rng.int rng n, Rng.int rng n))
      in
      let g = Digraph.of_edges ~n edges in
      let label = Array.init n (fun _ -> Rng.int rng 3) in
      let q, _ = Digraph.quotient g ~label ~classes:3 ~drop_self_loops:false in
      Digraph.edge_count q = m)

let prop_reverse_involution =
  QCheck2.Test.make ~name:"reverse . reverse = id (as edge sets)" ~count:100
    QCheck2.Gen.(int_range 0 1000)
    (fun seed ->
      let rng = Rng.create ~seed in
      let n = 2 + Rng.int rng 15 in
      let m = Rng.int rng 30 in
      let edges = Array.init m (fun _ -> (Rng.int rng n, Rng.int rng n)) in
      let g = Digraph.of_edges ~n edges in
      let rr = Digraph.reverse (Digraph.reverse g) in
      let endpoints h =
        List.init (Digraph.edge_count h) (fun e -> Digraph.edge_endpoints h e)
        |> List.sort compare
      in
      endpoints g = endpoints rr)

let prop_bfs_triangle_inequality =
  QCheck2.Test.make ~name:"BFS dist satisfies triangle inequality over edges"
    ~count:100
    QCheck2.Gen.(int_range 0 1000)
    (fun seed ->
      let rng = Rng.create ~seed in
      let n = 2 + Rng.int rng 20 in
      let m = Rng.int rng 50 in
      let edges = Array.init m (fun _ -> (Rng.int rng n, Rng.int rng n)) in
      let g = Digraph.of_edges ~n edges in
      let d = Traverse.bfs_directed g ~sources:[ 0 ] in
      let ok = ref true in
      Digraph.iter_edges g (fun ~eid:_ ~src ~dst ->
          if d.(src) >= 0 && (d.(dst) < 0 || d.(dst) > d.(src) + 1) then
            ok := false);
      !ok)

(* [Traverse.shortest_path] (the arena search) returns exactly the
   allocating oracle's path on random multigraphs with self-loops and
   cycles, under random forbidden vertices and failed edges *)
let prop_shortest_path_matches_oracle =
  QCheck2.Test.make ~name:"shortest_path = allocating BFS oracle under masks"
    ~count:100
    QCheck2.Gen.(int_range 0 100000)
    (fun seed ->
      let rng = Rng.create ~seed in
      let n = 2 + Rng.int rng 20 in
      let m = Rng.int rng 60 in
      let edges = Array.init m (fun _ -> (Rng.int rng n, Rng.int rng n)) in
      let g = Digraph.of_edges ~n edges in
      let bad_v = Array.init n (fun _ -> Rng.int rng 5 = 0) in
      let bad_e = Array.init m (fun _ -> Rng.int rng 5 = 0) in
      let allowed v = not bad_v.(v) and edge_ok e = not bad_e.(e) in
      let ok = ref true in
      for src = 0 to n - 1 do
        for dst = 0 to n - 1 do
          if
            Traverse.shortest_path ~allowed ~edge_ok g ~src ~dst
            <> Bfs_ref.shortest_path ~allowed ~edge_ok g ~src ~dst
          then ok := false
        done
      done;
      !ok)

let props =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_quotient_preserves_edge_count;
      prop_reverse_involution;
      prop_bfs_triangle_inequality;
      prop_shortest_path_matches_oracle;
    ]

let () =
  Alcotest.run "ftcsn_graph"
    [
      ( "digraph",
        [
          Alcotest.test_case "builder ids" `Quick test_builder_ids;
          Alcotest.test_case "builder validation" `Quick
            test_builder_rejects_unknown_vertex;
          Alcotest.test_case "adjacency" `Quick test_adjacency;
          Alcotest.test_case "iter_edges" `Quick test_iter_edges_consistency;
          Alcotest.test_case "parallel/loops" `Quick test_parallel_edges_and_loops;
          Alcotest.test_case "reverse" `Quick test_reverse;
          Alcotest.test_case "subgraph" `Quick test_subgraph_by_edges;
          Alcotest.test_case "quotient" `Quick test_quotient;
        ] );
      ( "traverse",
        [
          Alcotest.test_case "bfs directed" `Quick test_bfs_directed;
          Alcotest.test_case "bfs allowed" `Quick test_bfs_allowed;
          Alcotest.test_case "shortest path" `Quick test_shortest_path;
          Alcotest.test_case "shortest undirected" `Quick
            test_shortest_path_undirected;
          Alcotest.test_case "topological" `Quick test_topological;
          Alcotest.test_case "longest/depth" `Quick test_longest_path_and_depth;
          Alcotest.test_case "reachable" `Quick test_reachable;
        ] );
      ( "staged",
        [
          Alcotest.test_case "diamond" `Quick test_staged;
          Alcotest.test_case "violation" `Quick test_staged_violation;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "profile" `Quick test_metrics_profile;
          Alcotest.test_case "eccentricity" `Quick test_metrics_eccentricity_and_diameter;
        ] );
      ( "render",
        [
          Alcotest.test_case "dot" `Quick test_dot_render;
          Alcotest.test_case "ascii stages" `Quick test_ascii_stages;
        ] );
      ("properties", props);
    ]
