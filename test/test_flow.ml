(* Tests for max-flow, Menger certificates, and bipartite matching.  The
   library's only flow network is [Menger.Workspace]; every disjoint-path
   count here is also computed by the allocating node-split oracle
   [Flow_ref], and the two must agree. *)

module Digraph = Ftcsn_graph.Digraph
module Maxflow = Ftcsn_flow.Maxflow
module Menger = Ftcsn_flow.Menger
module Hopcroft_karp = Ftcsn_flow.Hopcroft_karp
module Rng = Ftcsn_prng.Rng

let check = Alcotest.(check int)
let checkb = Alcotest.(check bool)

(* the workspace's count over every source and sink slot *)
let ws_value ?forbidden g ~sources ~sinks =
  let ws = Menger.Workspace.create g ~sources ~sinks in
  Menger.Workspace.max_vertex_disjoint ?forbidden ws
    ~source_slots:(Array.mapi (fun i _ -> i) sources)
    ~sink_slots:(Array.mapi (fun i _ -> i) sinks)

(* workspace and oracle must agree; the common value is returned *)
let disjoint ?forbidden g ~sources ~sinks =
  let v = ws_value ?forbidden g ~sources ~sinks in
  check "workspace = oracle"
    (Flow_ref.max_vertex_disjoint ?forbidden g ~sources ~sinks)
    v;
  v

let test_maxflow_single_edge () =
  let net = Maxflow.create ~n:2 in
  let a = Maxflow.add_edge net ~src:0 ~dst:1 ~cap:5 in
  check "flow value" 5 (Maxflow.max_flow net ~source:0 ~sink:1);
  check "arc flow" 5 (Maxflow.flow_on net a)

let test_maxflow_bottleneck () =
  (* 0 -> 1 (cap 3) -> 2 (cap 2): bottleneck 2 *)
  let net = Maxflow.create ~n:3 in
  ignore (Maxflow.add_edge net ~src:0 ~dst:1 ~cap:3);
  ignore (Maxflow.add_edge net ~src:1 ~dst:2 ~cap:2);
  check "bottleneck" 2 (Maxflow.max_flow net ~source:0 ~sink:2)

let test_maxflow_classic () =
  (* classic CLRS-style instance with known max flow 23 *)
  let net = Maxflow.create ~n:6 in
  let edges =
    [
      (0, 1, 16); (0, 2, 13); (1, 2, 10); (2, 1, 4); (1, 3, 12); (3, 2, 9);
      (2, 4, 14); (4, 3, 7); (3, 5, 20); (4, 5, 4);
    ]
  in
  List.iter (fun (s, d, c) -> ignore (Maxflow.add_edge net ~src:s ~dst:d ~cap:c)) edges;
  check "clrs flow" 23 (Maxflow.max_flow net ~source:0 ~sink:5)

let test_maxflow_disconnected () =
  let net = Maxflow.create ~n:3 in
  ignore (Maxflow.add_edge net ~src:0 ~dst:1 ~cap:1);
  check "no route" 0 (Maxflow.max_flow net ~source:0 ~sink:2)

let test_min_cut_side () =
  let net = Maxflow.create ~n:4 in
  ignore (Maxflow.add_edge net ~src:0 ~dst:1 ~cap:1);
  ignore (Maxflow.add_edge net ~src:1 ~dst:2 ~cap:10);
  ignore (Maxflow.add_edge net ~src:2 ~dst:3 ~cap:10);
  ignore (Maxflow.max_flow net ~source:0 ~sink:3);
  let side = Maxflow.min_cut_source_side net ~source:0 in
  Alcotest.(check (list int)) "source side is just 0" [ 0 ]
    (Ftcsn_util.Bitset.to_list side)

let diamond () = Digraph.of_edges ~n:4 [| (0, 1); (0, 2); (1, 3); (2, 3) |]

let test_menger_diamond () =
  let g = diamond () in
  (* endpoints count toward disjointness: a single source yields one path
     even though two edge-disjoint routes exist *)
  check "single pair" 1
    (disjoint g ~sources:[| 0 |] ~sinks:[| 3 |]);
  (* the two middles each reach the sink, but they share it *)
  check "shared sink" 1
    (disjoint g ~sources:[| 1; 2 |] ~sinks:[| 3 |])

let test_menger_parallel_rails () =
  (* two independent rails 0->2->4 and 1->3->5 *)
  let g = Digraph.of_edges ~n:6 [| (0, 2); (2, 4); (1, 3); (3, 5) |] in
  check "two rails" 2
    (disjoint g ~sources:[| 0; 1 |] ~sinks:[| 4; 5 |]);
  let paths =
    Flow_ref.vertex_disjoint_paths g ~sources:[| 0; 1 |] ~sinks:[| 4; 5 |]
  in
  check "two paths" 2 (List.length paths);
  let all = List.concat paths in
  check "disjoint vertices" (List.length all)
    (List.length (List.sort_uniq compare all))

let test_menger_shared_midpoint () =
  (* both rails forced through vertex 6: only one disjoint path *)
  let g =
    Digraph.of_edges ~n:7 [| (0, 6); (1, 6); (6, 4); (6, 5) |]
  in
  check "cut vertex" 1
    (disjoint g ~sources:[| 0; 1 |] ~sinks:[| 4; 5 |])

let test_menger_forbidden () =
  let g = Digraph.of_edges ~n:6 [| (0, 2); (2, 4); (1, 3); (3, 5) |] in
  check "forbid one rail" 1
    (disjoint
       ~forbidden:(fun v -> v = 2)
       g ~sources:[| 0; 1 |] ~sinks:[| 4; 5 |])

let test_menger_paths_valid_edges () =
  let rng = Rng.create ~seed:5 in
  for _ = 1 to 20 do
    let n = 8 + Rng.int rng 8 in
    let m = 2 * n in
    let edges =
      Array.init m (fun _ ->
          let a = Rng.int rng n and b = Rng.int rng n in
          (min a b, max a b + if a = b then 1 else 0))
    in
    let edges = Array.map (fun (a, b) -> (a, min b (n - 1))) edges in
    let g = Digraph.of_edges ~n edges in
    let sources = [| 0; 1 |] and sinks = [| n - 2; n - 1 |] in
    let paths = Flow_ref.vertex_disjoint_paths g ~sources ~sinks in
    List.iter
      (fun path ->
        let rec pairs = function
          | a :: (b :: _ as rest) ->
              let found =
                Digraph.fold_out g a ~init:false ~f:(fun acc ~dst ~eid:_ ->
                    acc || dst = b)
              in
              checkb "edge exists" true found;
              pairs rest
          | _ -> ()
        in
        pairs path)
      paths
  done

let test_hopcroft_karp_perfect () =
  (* K3,3 minus a perfect matching still has a perfect matching *)
  let adj = [| [| 1; 2 |]; [| 0; 2 |]; [| 0; 1 |] |] in
  let m = Hopcroft_karp.matching ~n_left:3 ~n_right:3 ~adj in
  check "size" 3 m.Hopcroft_karp.size;
  checkb "perfect" true (Hopcroft_karp.is_perfect_on_left m);
  (* matching is consistent *)
  Array.iteri
    (fun l r -> check "pair consistency" l m.Hopcroft_karp.pair_right.(r))
    m.Hopcroft_karp.pair_left

let test_hopcroft_karp_deficient () =
  (* two lefts share a single right: Hall violation *)
  let adj = [| [| 0 |]; [| 0 |] |] in
  let m = Hopcroft_karp.matching ~n_left:2 ~n_right:1 ~adj in
  check "size" 1 m.Hopcroft_karp.size;
  checkb "not perfect" false (Hopcroft_karp.is_perfect_on_left m)

let test_hopcroft_karp_empty () =
  let m = Hopcroft_karp.matching ~n_left:3 ~n_right:3 ~adj:[| [||]; [||]; [||] |] in
  check "empty" 0 m.Hopcroft_karp.size

let test_hopcroft_karp_skewed () =
  (* left i connects to rights {i, i+1}: greedy could go wrong; HK finds 4 *)
  let adj = [| [| 0; 1 |]; [| 1; 2 |]; [| 2; 3 |]; [| 3; 4 |] |] in
  let m = Hopcroft_karp.matching ~n_left:4 ~n_right:5 ~adj in
  check "size" 4 m.Hopcroft_karp.size

(* Menger duality: max disjoint paths = flow value; matching in bipartite
   graph = vertex-disjoint paths in its 2-layer digraph. *)
let prop_matching_equals_menger =
  QCheck2.Test.make ~name:"Hopcroft-Karp size = Menger disjoint paths" ~count:60
    QCheck2.Gen.(int_range 0 100000)
    (fun seed ->
      let rng = Rng.create ~seed in
      let nl = 1 + Rng.int rng 8 and nr = 1 + Rng.int rng 8 in
      let adj =
        Array.init nl (fun _ ->
            let deg = Rng.int rng (nr + 1) in
            Rng.sample_without_replacement rng ~n:nr ~k:deg)
      in
      let m = Hopcroft_karp.matching ~n_left:nl ~n_right:nr ~adj in
      (* bipartite digraph: lefts 0..nl-1, rights nl..nl+nr-1 *)
      let b = Digraph.Builder.create () in
      ignore (Digraph.Builder.add_vertices b (nl + nr));
      Array.iteri
        (fun l row ->
          Array.iter
            (fun r -> ignore (Digraph.Builder.add_edge b ~src:l ~dst:(nl + r)))
            row)
        adj;
      let g = Digraph.Builder.freeze b in
      let flow =
        ws_value g
          ~sources:(Array.init nl Fun.id)
          ~sinks:(Array.init nr (fun r -> nl + r))
      in
      flow = m.Hopcroft_karp.size)

let prop_paths_count_matches_value =
  QCheck2.Test.make ~name:"extracted path count = flow value" ~count:60
    QCheck2.Gen.(int_range 0 100000)
    (fun seed ->
      let rng = Rng.create ~seed in
      let n = 6 + Rng.int rng 10 in
      let m = 2 * n in
      let edges = Array.init m (fun _ -> (Rng.int rng n, Rng.int rng n)) in
      let g = Digraph.of_edges ~n edges in
      let sources = [| 0; 1; 2 |] and sinks = [| n - 3; n - 2; n - 1 |] in
      let value = ws_value g ~sources ~sinks in
      let paths = Flow_ref.vertex_disjoint_paths g ~sources ~sinks in
      List.length paths = value)

let prop_paths_are_disjoint =
  QCheck2.Test.make ~name:"extracted paths are vertex-disjoint" ~count:60
    QCheck2.Gen.(int_range 0 100000)
    (fun seed ->
      let rng = Rng.create ~seed in
      let n = 6 + Rng.int rng 10 in
      let m = 3 * n in
      let edges = Array.init m (fun _ -> (Rng.int rng n, Rng.int rng n)) in
      let g = Digraph.of_edges ~n edges in
      let sources = [| 0; 1 |] and sinks = [| n - 2; n - 1 |] in
      let paths = Flow_ref.vertex_disjoint_paths g ~sources ~sinks in
      let all = List.concat paths in
      List.length all = List.length (List.sort_uniq compare all))

(* One workspace answers every query on its graph: random slot subsets
   (a terminal vertex may fill several slots), forbidden vertices and
   failed edges, each against the oracle run on the pruned graph it
   stands for. *)
let prop_workspace_matches_oracle =
  QCheck2.Test.make ~name:"workspace = node-split oracle under masks" ~count:60
    QCheck2.Gen.(int_range 0 100000)
    (fun seed ->
      let rng = Rng.create ~seed in
      let n = 6 + Rng.int rng 12 in
      let edges =
        Array.init (3 * n) (fun _ -> (Rng.int rng n, Rng.int rng n))
      in
      let g = Digraph.of_edges ~n edges in
      let pick k = Array.init k (fun _ -> Rng.int rng n) in
      let sources = pick 4 and sinks = pick 4 in
      let ws = Menger.Workspace.create g ~sources ~sinks in
      let ok = ref true in
      for _ = 1 to 8 do
        let bad_v = Array.init n (fun _ -> Rng.int rng 6 = 0) in
        let bad_e = Array.init (3 * n) (fun _ -> Rng.int rng 5 = 0) in
        let forbidden v = bad_v.(v) and edge_ok e = not bad_e.(e) in
        let slots () =
          Rng.sample_without_replacement rng ~n:4 ~k:(1 + Rng.int rng 4)
        in
        let source_slots = slots () in
        let sink_slots = slots () in
        let value =
          Menger.Workspace.max_vertex_disjoint ~forbidden ~edge_ok ws
            ~source_slots ~sink_slots
        in
        let oracle =
          Flow_ref.max_vertex_disjoint ~forbidden
            (Digraph.subgraph_by_edges g ~keep:edge_ok)
            ~sources:(Array.map (fun i -> sources.(i)) source_slots)
            ~sinks:(Array.map (fun i -> sinks.(i)) sink_slots)
        in
        if value <> oracle then ok := false
      done;
      !ok)

let props =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_matching_equals_menger;
      prop_paths_count_matches_value;
      prop_paths_are_disjoint;
      prop_workspace_matches_oracle;
    ]

let () =
  Alcotest.run "ftcsn_flow"
    [
      ( "maxflow",
        [
          Alcotest.test_case "single edge" `Quick test_maxflow_single_edge;
          Alcotest.test_case "bottleneck" `Quick test_maxflow_bottleneck;
          Alcotest.test_case "classic instance" `Quick test_maxflow_classic;
          Alcotest.test_case "disconnected" `Quick test_maxflow_disconnected;
          Alcotest.test_case "min cut side" `Quick test_min_cut_side;
        ] );
      ( "menger",
        [
          Alcotest.test_case "diamond" `Quick test_menger_diamond;
          Alcotest.test_case "parallel rails" `Quick test_menger_parallel_rails;
          Alcotest.test_case "shared midpoint" `Quick test_menger_shared_midpoint;
          Alcotest.test_case "forbidden" `Quick test_menger_forbidden;
          Alcotest.test_case "paths use real edges" `Quick
            test_menger_paths_valid_edges;
        ] );
      ( "hopcroft-karp",
        [
          Alcotest.test_case "perfect" `Quick test_hopcroft_karp_perfect;
          Alcotest.test_case "deficient" `Quick test_hopcroft_karp_deficient;
          Alcotest.test_case "empty" `Quick test_hopcroft_karp_empty;
          Alcotest.test_case "skewed" `Quick test_hopcroft_karp_skewed;
        ] );
      ("properties", props);
    ]
