(* Tests for the network constructions: crossbar, Clos, Benes (+ looping
   algorithm), butterfly, multibutterfly, Cantor, Valiant
   superconcentrator, and the recursive [P82] construction. *)

module Network = Ftcsn_networks.Network
module Crossbar = Ftcsn_networks.Crossbar
module Clos = Ftcsn_networks.Clos
module Benes = Ftcsn_networks.Benes
module Butterfly = Ftcsn_networks.Butterfly
module Multibutterfly = Ftcsn_networks.Multibutterfly
module Cantor = Ftcsn_networks.Cantor
module Valiant_sc = Ftcsn_networks.Valiant_sc
module Recursive_nb = Ftcsn_networks.Recursive_nb
module Delta = Ftcsn_networks.Delta
module Butterfly_pair = Ftcsn_networks.Butterfly_pair
module Digraph = Ftcsn_graph.Digraph
module Perm = Ftcsn_util.Perm
module Rng = Ftcsn_prng.Rng
module Greedy = Ftcsn_routing.Greedy

let check = Alcotest.(check int)
let checkb = Alcotest.(check bool)

let log2_exact n =
  let rec go k acc = if acc = n then k else go (k + 1) (acc * 2) in
  go 0 1

(* ---------- Network ---------- *)

let test_network_validation () =
  let g = Digraph.of_edges ~n:3 [| (0, 1); (1, 2) |] in
  Alcotest.check_raises "duplicate terminal"
    (Invalid_argument "Network.make: duplicate terminal") (fun () ->
      ignore (Network.make ~name:"x" ~graph:g ~inputs:[| 0 |] ~outputs:[| 0 |]));
  Alcotest.check_raises "range"
    (Invalid_argument "Network.make: terminal out of range") (fun () ->
      ignore (Network.make ~name:"x" ~graph:g ~inputs:[| 7 |] ~outputs:[| 2 |]))

let test_network_reverse () =
  let net = Crossbar.square 3 in
  let rev = Network.reverse net in
  check "inputs swap" 3 (Network.n_inputs rev);
  check "size preserved" (Network.size net) (Network.size rev);
  check "depth preserved" (Network.depth net) (Network.depth rev);
  Alcotest.(check (array int)) "mirror inputs" net.Network.outputs rev.Network.inputs

(* ---------- Crossbar ---------- *)

let test_crossbar_counts () =
  let net = Crossbar.make ~n:3 ~m:5 () in
  check "size" 15 (Network.size net);
  check "depth" 1 (Network.depth net);
  check "inputs" 3 (Network.n_inputs net);
  check "outputs" 5 (Network.n_outputs net);
  checkb "acyclic" true (Network.is_acyclic net)

(* ---------- Clos ---------- *)

let test_clos_counts () =
  let p = { Clos.m = 3; k = 2; r = 2 } in
  let net = Clos.make p in
  check "terminals" 4 (Network.n_inputs net);
  (* 2rkm + mr^2 = 2*2*2*3 + 3*4 = 36 *)
  check "size" 36 (Network.size net);
  check "depth" 3 (Network.depth net);
  checkb "snb params" true (Clos.strictly_nonblocking_params p);
  checkb "rearr params" true (Clos.rearrangeable_params p);
  checkb "m=1 not rearr for k=2" false
    (Clos.rearrangeable_params { Clos.m = 1; k = 2; r = 2 })

let test_clos_presets () =
  let nb = Clos.nonblocking ~n:9 in
  check "nb terminals" 9 (Network.n_inputs nb);
  let re = Clos.rearrangeable ~n:9 in
  checkb "rearrangeable smaller" true (Network.size re < Network.size nb)

(* ---------- Clos routing (Slepian–Duguid) ---------- *)

let check_clos_routing built pi =
  let net = built.Clos.net in
  let paths = Clos.route built pi in
  let n = Array.length pi in
  check "one path per request" n (Array.length paths);
  let all = Array.to_list paths |> List.concat in
  check "vertex-disjoint" (List.length all)
    (List.length (List.sort_uniq compare all));
  Array.iteri
    (fun i path ->
      (match path with
      | first :: _ -> check "starts at input" net.Network.inputs.(i) first
      | [] -> Alcotest.fail "empty path");
      (match List.rev path with
      | last :: _ -> check "ends at output" net.Network.outputs.(pi.(i)) last
      | [] -> ());
      let rec edges = function
        | a :: (b :: _ as rest) ->
            let exists =
              Digraph.fold_out net.Network.graph a ~init:false
                ~f:(fun acc ~dst ~eid:_ -> acc || dst = b)
            in
            checkb "edge exists" true exists;
            edges rest
        | _ -> ()
      in
      edges path)
    paths

let test_clos_route_all_perms_small () =
  (* m = k = 2, r = 2: the tightest rearrangeable instance; every
     permutation of its 4 terminals must route *)
  let built = Clos.make_built { Clos.m = 2; k = 2; r = 2 } in
  Perm.iter_all 4 (fun pi -> check_clos_routing built (Array.copy pi))

let test_clos_route_random_larger () =
  let rng = Rng.create ~seed:55 in
  List.iter
    (fun (m, k, r) ->
      let built = Clos.make_built { Clos.m; k; r } in
      for _ = 1 to 15 do
        check_clos_routing built (Rng.permutation rng (r * k))
      done)
    [ (3, 3, 3); (4, 4, 5); (5, 4, 8); (7, 7, 7) ]

let test_clos_route_structured () =
  let built = Clos.make_built { Clos.m = 4; k = 4; r = 4 } in
  check_clos_routing built (Perm.identity 16);
  check_clos_routing built (Perm.reversal 16);
  check_clos_routing built (Perm.rotation 16 7);
  (* the "all traffic between one ingress and one egress" worst case *)
  check_clos_routing built
    (Array.init 16 (fun i -> (i + 4) mod 16))

let test_clos_route_validation () =
  let built = Clos.make_built { Clos.m = 1; k = 2; r = 2 } in
  Alcotest.check_raises "m < k rejected"
    (Invalid_argument "Clos.route: need m >= k (rearrangeable)") (fun () ->
      ignore (Clos.route built (Perm.identity 4)));
  let built2 = Clos.make_built { Clos.m = 2; k = 2; r = 2 } in
  Alcotest.check_raises "arity" (Invalid_argument "Clos.route: arity")
    (fun () -> ignore (Clos.route built2 (Perm.identity 3)))

let test_clos_route_spare_middles () =
  (* extra middles (m > k) must not confuse the decomposition *)
  let built = Clos.make_built { Clos.m = 6; k = 3; r = 4 } in
  let rng = Rng.create ~seed:56 in
  for _ = 1 to 10 do
    check_clos_routing built (Rng.permutation rng 12)
  done

(* ---------- Benes ---------- *)

let test_benes_size_depth () =
  List.iter
    (fun n ->
      let b = Benes.make n in
      let net = Benes.network b in
      let k = log2_exact n in
      (* (2k-1) columns of n/2 switches, 4 edges per switch *)
      check
        (Printf.sprintf "size n=%d" n)
        (4 * (n / 2) * ((2 * k) - 1))
        (Network.size net);
      check (Printf.sprintf "depth n=%d" n) ((2 * k) - 1) (Network.depth net);
      check "columns" ((2 * k) - 1) (Benes.switch_columns b))
    [ 2; 4; 8; 16; 32 ]

let test_benes_rejects_bad_n () =
  Alcotest.check_raises "not power of two"
    (Invalid_argument "Benes.make: n must be a power of two >= 2") (fun () ->
      ignore (Benes.make 6))

let check_routing b net pi =
  let paths = Benes.route b pi in
  let n = Array.length pi in
  check "one path per request" n (Array.length paths);
  (* vertex-disjointness *)
  let all = Array.to_list paths |> List.concat in
  check "disjoint" (List.length all) (List.length (List.sort_uniq compare all));
  (* endpoints and edge validity *)
  Array.iteri
    (fun i path ->
      (match path with
      | first :: _ -> check "starts at input" net.Network.inputs.(i) first
      | [] -> Alcotest.fail "empty path");
      (match List.rev path with
      | last :: _ -> check "ends at target" net.Network.outputs.(pi.(i)) last
      | [] -> ());
      let rec edges = function
        | a :: (b :: _ as rest) ->
            let exists =
              Digraph.fold_out net.Network.graph a ~init:false
                ~f:(fun acc ~dst ~eid:_ -> acc || dst = b)
            in
            checkb "edge exists" true exists;
            edges rest
        | _ -> ()
      in
      edges path)
    paths

let test_benes_routes_all_perms_n4 () =
  let b = Benes.make 4 in
  let net = Benes.network b in
  Perm.iter_all 4 (fun pi -> check_routing b net (Array.copy pi))

let test_benes_routes_random_perms () =
  let rng = Rng.create ~seed:20 in
  List.iter
    (fun n ->
      let b = Benes.make n in
      let net = Benes.network b in
      for _ = 1 to 10 do
        check_routing b net (Rng.permutation rng n)
      done)
    [ 8; 16; 32; 64 ]

let test_benes_routes_structured_perms () =
  let b = Benes.make 16 in
  let net = Benes.network b in
  check_routing b net (Perm.identity 16);
  check_routing b net (Perm.reversal 16);
  check_routing b net (Perm.rotation 16 5)

let test_benes_route_arity () =
  let b = Benes.make 8 in
  Alcotest.check_raises "arity" (Invalid_argument "Benes.route: arity")
    (fun () -> ignore (Benes.route b [| 0 |]))

(* ---------- Butterfly ---------- *)

let test_butterfly_counts () =
  let net = Butterfly.make 8 in
  check "size" (2 * 8 * 3) (Network.size net);
  check "depth" 3 (Network.depth net);
  check "vertices" (4 * 8) (Digraph.vertex_count net.Network.graph)

let test_butterfly_unique_path () =
  let n = 8 in
  let net = Butterfly.make n in
  for input = 0 to n - 1 do
    for output = 0 to n - 1 do
      let p = Butterfly.unique_path ~n ~input ~output in
      check "length" (log2_exact n + 1) (List.length p);
      (match p with
      | first :: _ -> check "start" net.Network.inputs.(input) first
      | [] -> Alcotest.fail "empty");
      match List.rev p with
      | last :: _ -> check "end" net.Network.outputs.(output) last
      | [] -> ()
    done
  done

(* ---------- Multibutterfly ---------- *)

let test_multibutterfly_structure () =
  let rng = Rng.create ~seed:21 in
  let net = Multibutterfly.make ~rng ~degree:2 16 in
  check "inputs" 16 (Network.n_inputs net);
  check "depth" 4 (Network.depth net);
  checkb "acyclic" true (Network.is_acyclic net);
  (* every input reaches every output (redundant splitters) *)
  let d =
    Ftcsn_graph.Traverse.bfs_directed net.Network.graph
      ~sources:[ net.Network.inputs.(0) ]
  in
  Array.iter (fun o -> checkb "reachable" true (d.(o) >= 0)) net.Network.outputs

let test_multibutterfly_degree_bound () =
  let rng = Rng.create ~seed:22 in
  let net = Multibutterfly.make ~rng ~degree:3 16 in
  (* out-degree of an internal vertex is at most 2*degree *)
  let g = net.Network.graph in
  for v = 0 to Digraph.vertex_count g - 1 do
    checkb "degree bound" true (Digraph.out_degree g v <= 6)
  done

(* Greedy on a multibutterfly: vertex [level * n + row], every edge climbs
   one level, so each routed path has levels + 1 = 5 vertices at n = 16 *)
let test_multibutterfly_structured_routing () =
  let rng = Rng.create ~seed:31 in
  let net = Multibutterfly.make ~rng ~degree:2 16 in
  let g = net.Network.graph in
  let r = Greedy.create net in
  for _ = 1 to 10 do
    let pi = Rng.permutation rng 16 in
    let success = ref 0 in
    let paths = Greedy.route_permutation r pi ~success in
    Greedy.clear r;
    (* greedy circuit-switching cannot serve full permutations on a
       multibutterfly (that is what [ALM]'s heavier machinery is for), but
       a degree-2 splitter carries well over half; every returned path
       must be valid and level-monotone *)
    checkb "majority routed" true (!success >= 9);
    let all = Array.to_list paths |> List.filter_map Fun.id |> List.concat in
    check "disjoint" (List.length all) (List.length (List.sort_uniq compare all));
    Array.iteri
      (fun i p ->
        match p with
        | None -> ()
        | Some p ->
            check "length = levels + 1" 5 (List.length p);
            List.iteri (fun level v -> check "level" level (v / 16)) p;
            check "start" net.Network.inputs.(i) (List.hd p);
            check "end" net.Network.outputs.(pi.(i)) (List.hd (List.rev p));
            let rec edges = function
              | a :: (b :: _ as rest) ->
                  checkb "edge" true
                    (Digraph.fold_out g a ~init:false ~f:(fun acc ~dst ~eid:_ ->
                         acc || dst = b));
                  edges rest
              | _ -> ()
            in
            edges p)
      paths
  done

let test_multibutterfly_degree_helps () =
  (* the redundancy claim of [LM]: more splitter edges, more of the
     permutation served *)
  let rng = Rng.create ~seed:33 in
  let mean_success degree =
    let r = Greedy.create (Multibutterfly.make ~rng ~degree 16) in
    let acc = ref 0 in
    for _ = 1 to 25 do
      let pi = Rng.permutation rng 16 in
      ignore (Greedy.route_permutation r pi ~success:acc);
      Greedy.clear r
    done;
    !acc
  in
  let s1 = mean_success 1 and s2 = mean_success 2 and s4 = mean_success 4 in
  checkb (Printf.sprintf "d=1 %d < d=2 %d" s1 s2) true (s1 < s2);
  checkb (Printf.sprintf "d=2 %d < d=4 %d" s2 s4) true (s2 < s4)

let test_multibutterfly_routes_around_faults () =
  (* the [LM] point: redundancy (d >= 2) routes single requests around
     faulty vertices that kill the unique-path butterfly *)
  let rng = Rng.create ~seed:32 in
  let net = Multibutterfly.make ~rng ~degree:3 16 in
  let route ~allowed ~input ~output =
    Greedy.route (Greedy.create ~allowed net) ~input:net.Network.inputs.(input)
      ~output:net.Network.outputs.(output)
  in
  let ok_count = ref 0 in
  let trials = 40 in
  for _ = 1 to trials do
    (* disable a random internal vertex on the request's natural path *)
    let input = Rng.int rng 16 and output = Rng.int rng 16 in
    match route ~allowed:(fun _ -> true) ~input ~output with
    | None -> ()
    | Some path -> (
        let blocked = List.nth path 2 in
        match route ~allowed:(fun v -> v <> blocked) ~input ~output with
        | Some path' ->
            checkb "avoids blocked" true (not (List.mem blocked path'));
            incr ok_count
        | None -> ())
  done;
  checkb
    (Printf.sprintf "rerouted %d/%d" !ok_count trials)
    true
    (!ok_count >= trials * 3 / 5)

(* ---------- Cantor ---------- *)

let test_cantor_counts () =
  let n = 8 in
  let net = Cantor.make n in
  let k = log2_exact n in
  let benes_size = 4 * (n / 2) * ((2 * k) - 1) in
  check "size" ((k * benes_size) + (2 * n * k)) (Network.size net);
  check "depth" (((2 * k) - 1) + 2) (Network.depth net);
  check "inputs" n (Network.n_inputs net)

let test_cantor_copies_override () =
  let net = Cantor.make ~copies:2 8 in
  checkb "smaller than default" true
    (Network.size net < Network.size (Cantor.make 8))

(* ---------- Valiant superconcentrator ---------- *)

let test_valiant_sc_linear_size () =
  let rng = Rng.create ~seed:23 in
  let sizes =
    List.map
      (fun n -> float_of_int (Network.size (Valiant_sc.make ~rng n)) /. float_of_int n)
      [ 64; 128; 256; 512 ]
  in
  (* size/n should stay bounded (linear size) *)
  List.iter (fun r -> checkb "size/n bounded" true (r < 40.0)) sizes

let test_valiant_sc_is_sc_small () =
  let rng = Rng.create ~seed:24 in
  let net = Valiant_sc.make ~rng ~degree:4 ~cutoff:4 6 in
  match Ftcsn_routing.Properties.superconcentrator_exhaustive ~max_work:20000 net with
  | `Holds -> ()
  | `Violated v ->
      Alcotest.failf "violated at r=%d achieved=%d" v.Ftcsn_routing.Properties.r
        v.Ftcsn_routing.Properties.achieved
  | `Too_large -> Alcotest.fail "should be feasible"

let test_valiant_sc_sampled_larger () =
  let rng = Rng.create ~seed:25 in
  let net = Valiant_sc.make ~rng 64 in
  match Ftcsn_routing.Properties.superconcentrator_sampled ~trials:60 ~rng net with
  | None -> ()
  | Some v ->
      Alcotest.failf "sampled violation r=%d" v.Ftcsn_routing.Properties.r

(* ---------- Recursive [P82] construction ---------- *)

let test_recursive_nb_stage_shapes () =
  let rng = Rng.create ~seed:26 in
  let params = Recursive_nb.scaled_params ~branching:2 ~width_factor:4 ~degree:4 () in
  let net, t = Recursive_nb.make ~rng ~params ~levels:3 in
  check "inputs" 8 (Network.n_inputs net);
  check "outputs" 8 (Network.n_outputs net);
  check "stage count" 7 (Array.length t.Recursive_nb.stages);
  (* interior stages have width wf * beta^levels = 32 *)
  for s = 1 to 5 do
    check
      (Printf.sprintf "stage %d width" s)
      32
      (Array.length t.Recursive_nb.stages.(s))
  done;
  checkb "acyclic" true (Network.is_acyclic net)

let test_recursive_nb_degrees () =
  let rng = Rng.create ~seed:27 in
  let params = Recursive_nb.scaled_params ~branching:2 ~width_factor:4 ~degree:4 () in
  let net, t = Recursive_nb.make ~rng ~params ~levels:3 in
  let g = net.Network.graph in
  (* vertices on stage 1 (level-1 blocks) have out-degree exactly [degree]
     toward stage 2 *)
  Array.iter
    (fun v -> check "expander out-degree" 4 (Digraph.out_degree g v))
    t.Recursive_nb.stages.(1);
  (* mirrored: stage 5 vertices have in-degree [degree] *)
  Array.iter
    (fun v -> check "mirror in-degree" 4 (Digraph.in_degree g v))
    t.Recursive_nb.stages.(5)

let test_recursive_nb_blocks () =
  let rng = Rng.create ~seed:28 in
  let params = Recursive_nb.scaled_params ~branching:2 ~width_factor:4 ~degree:4 () in
  let _, t = Recursive_nb.make ~rng ~params ~levels:3 in
  let blocks1 = Recursive_nb.blocks_of_stage t 1 in
  check "level-1 blocks" 4 (Array.length blocks1);
  check "level-1 block width" 8 (Array.length blocks1.(0));
  let blocks3 = Recursive_nb.blocks_of_stage t 3 in
  check "level-3 single block" 1 (Array.length blocks3);
  check "level-3 width" 32 (Array.length blocks3.(0));
  let blocks5 = Recursive_nb.blocks_of_stage t 5 in
  check "mirror level-1 blocks" 4 (Array.length blocks5)

let test_recursive_nb_trim () =
  let rng = Rng.create ~seed:29 in
  let params = Recursive_nb.scaled_params ~branching:2 ~width_factor:4 ~degree:4 () in
  let builder = Digraph.Builder.create () in
  let t =
    Recursive_nb.build ~builder ~rng ~params ~levels:3 ~trim:1 ()
  in
  check "trimmed stages" 5 (Array.length t.Recursive_nb.stages);
  (* all retained stages have interior width *)
  Array.iter
    (fun st -> check "width" 32 (Array.length st))
    t.Recursive_nb.stages

let test_recursive_nb_first_stage_hook () =
  let rng = Rng.create ~seed:30 in
  let params = Recursive_nb.scaled_params ~branching:2 ~width_factor:4 ~degree:4 () in
  let builder = Digraph.Builder.create () in
  let pre = Array.init 32 (fun _ -> Digraph.Builder.add_vertex builder) in
  let t =
    Recursive_nb.build ~builder ~rng ~params ~levels:3 ~trim:1 ~first_stage:pre ()
  in
  Alcotest.(check (array int)) "first stage reused" pre t.Recursive_nb.stages.(0);
  Alcotest.check_raises "wrong width rejected"
    (Invalid_argument "Recursive_nb.build: first_stage has wrong width")
    (fun () ->
      let builder2 = Digraph.Builder.create () in
      let bad = Array.init 3 (fun _ -> Digraph.Builder.add_vertex builder2) in
      ignore
        (Recursive_nb.build ~builder:builder2 ~rng ~params ~levels:3 ~trim:1
           ~first_stage:bad ()))

let test_recursive_nb_reaches_everything () =
  let rng = Rng.create ~seed:31 in
  let params = Recursive_nb.scaled_params ~branching:2 ~width_factor:4 ~degree:4 () in
  let net, _ = Recursive_nb.make ~rng ~params ~levels:4 in
  let d =
    Ftcsn_graph.Traverse.bfs_directed net.Network.graph
      ~sources:[ net.Network.inputs.(0) ]
  in
  Array.iter (fun o -> checkb "output reachable" true (d.(o) >= 0)) net.Network.outputs

let test_recursive_nb_paper_params () =
  check "paper branching" 4 Recursive_nb.paper_params.Recursive_nb.branching;
  check "paper width" 64 Recursive_nb.paper_params.Recursive_nb.width_factor;
  check "paper degree" 10 Recursive_nb.paper_params.Recursive_nb.degree;
  check "block width" (64 * 16)
    (Recursive_nb.block_width Recursive_nb.paper_params ~level:2)

(* ---------- Concentrator ([M]/[GG] subject matter) ---------- *)

module Concentrator = Ftcsn_networks.Concentrator

let test_concentrator_complete_bipartite_certified () =
  (* K(6,3) concentrates any <= 3 inputs *)
  let adj = Array.make 6 [| 0; 1; 2 |] in
  let b = Ftcsn_expander.Bipartite.make ~inlets:6 ~outlets:3 ~adj in
  let c = Concentrator.of_expander b ~capacity:3 in
  (match Concentrator.verify_exhaustive c with
  | `Certified -> ()
  | `Refuted _ -> Alcotest.fail "complete bipartite concentrates");
  check "max concentration" 3 (Concentrator.max_concentration c ~k:5)

let test_concentrator_refutes_star () =
  (* all inputs share one output: any 2-subset is deficient *)
  let adj = Array.make 4 [| 0 |] in
  let b = Ftcsn_expander.Bipartite.make ~inlets:4 ~outlets:2 ~adj in
  let c = Concentrator.of_expander b ~capacity:2 in
  (match Concentrator.verify_exhaustive c with
  | `Refuted s -> check "deficient pair" 2 (Array.length s)
  | `Certified -> Alcotest.fail "star cannot concentrate");
  let rng = Rng.create ~seed:66 in
  checkb "sampled also refutes" true
    (Concentrator.verify_sampled c ~trials:200 ~rng <> None)

let test_concentrator_random_certifies () =
  let rng = Rng.create ~seed:67 in
  let c = Concentrator.random ~rng ~inputs:12 ~outputs:8 ~degree:5 in
  match Concentrator.verify_exhaustive c with
  | `Certified -> ()
  | `Refuted s -> Alcotest.failf "refuted with |S|=%d" (Array.length s)

let test_concentrator_gabber_galil () =
  (* the GG expander viewed as a concentrator of small capacity *)
  let b = Ftcsn_expander.Gabber_galil.make ~m:3 in
  let c = Concentrator.of_expander b ~capacity:4 in
  let rng = Rng.create ~seed:68 in
  checkb "no sampled violation" true
    (Concentrator.verify_sampled c ~trials:400 ~rng = None)

let test_concentrator_validation () =
  Alcotest.check_raises "capacity range"
    (Invalid_argument "Concentrator.of_expander: capacity exceeds outputs")
    (fun () ->
      let b =
        Ftcsn_expander.Bipartite.make ~inlets:2 ~outlets:1 ~adj:[| [| 0 |]; [| 0 |] |]
      in
      ignore (Concentrator.of_expander b ~capacity:5))

(* ---------- Multistage (recursive Clos, [PY]) ---------- *)

module Multistage = Ftcsn_networks.Multistage

let check_ms_routing t pi =
  let net = Multistage.network t in
  let paths = Multistage.route t pi in
  let all = Array.to_list paths |> List.concat in
  check "disjoint" (List.length all) (List.length (List.sort_uniq compare all));
  Array.iteri
    (fun i path ->
      (match path with
      | first :: _ -> check "start" net.Network.inputs.(i) first
      | [] -> Alcotest.fail "empty");
      match List.rev path with
      | last :: _ -> check "end" net.Network.outputs.(pi.(i)) last
      | [] -> ())
    paths

let test_multistage_structure () =
  let t = Multistage.make ~levels:2 27 in
  let net = Multistage.network t in
  check "terminals" 27 (Network.n_inputs net);
  check "stages" 5 (Multistage.stage_count t);
  check "depth" 5 (Network.depth net);
  checkb "acyclic" true (Network.is_acyclic net)

let test_multistage_degenerates_to_benes () =
  (* k = 2, levels = lg n - 1: the recursion is exactly a Benes network *)
  let t = Multistage.make ~k:2 ~levels:3 16 in
  let benes = Benes.create 16 in
  check "size equals Benes" (Network.size benes)
    (Network.size (Multistage.network t));
  check "depth equals Benes" (Network.depth benes)
    (Network.depth (Multistage.network t))

let test_multistage_levels_tradeoff () =
  (* size = (2t+1)·n·k with k ~ n^(1/(t+1)): adding levels shrinks the
     network steeply at first (k drops fast), then the (2t+1) stage factor
     takes over once k bottoms out at 2 — the [PY] depth/size tradeoff *)
  let n = 64 in
  let size levels =
    Network.size (Multistage.create ~levels n)
  in
  let s0 = size 0 and s1 = size 1 and s2 = size 2 and s5 = size 5 in
  checkb "crossbar largest" true (s0 > s1);
  checkb "3-stage > 5-stage" true (s1 > s2);
  (* the Benes-shaped deep end pays stages without gaining on k *)
  checkb "deep end rebounds" true (s5 > s2);
  checkb "deep end still beats 3-stage" true (s5 < s1)

let test_multistage_routes_all_perms_small () =
  let t = Multistage.make ~k:2 ~levels:1 4 in
  Perm.iter_all 4 (fun pi -> check_ms_routing t (Array.copy pi))

let test_multistage_routes_padded () =
  (* n not a power of k: padding must stay internal *)
  let t = Multistage.make ~k:3 ~levels:1 7 in
  let rng = Rng.create ~seed:77 in
  for _ = 1 to 20 do
    check_ms_routing t (Rng.permutation rng 7)
  done

let test_multistage_validation () =
  Alcotest.check_raises "k too small" (Invalid_argument "Multistage.make: k >= 2")
    (fun () -> ignore (Multistage.make ~k:1 ~levels:1 4));
  Alcotest.check_raises "k mismatch"
    (Invalid_argument "Multistage.make: k^(levels+1) < n") (fun () ->
      ignore (Multistage.make ~k:2 ~levels:1 16));
  let t = Multistage.make ~levels:1 6 in
  Alcotest.check_raises "arity" (Invalid_argument "Multistage.route: arity")
    (fun () -> ignore (Multistage.route t [| 0 |]))

let prop_multistage_routes_random =
  QCheck2.Test.make ~name:"multistage routes random permutations disjointly"
    ~count:40
    QCheck2.Gen.(triple (int_range 0 2) (int_range 2 20) int)
    (fun (levels, n, seed) ->
      let rng = Rng.create ~seed in
      let t = Multistage.make ~levels n in
      let pi = Rng.permutation rng n in
      let paths = Multistage.route t pi in
      let all = Array.to_list paths |> List.concat in
      List.length all = List.length (List.sort_uniq compare all))

(* ---------- delta / omega / banyan / butterfly-pair ---------- *)

let delta_zoo =
  [ ("delta", Delta.delta); ("omega", Delta.omega); ("banyan", Delta.banyan) ]

(* paths from [src] to every vertex, by DP in vertex-id order: these
   constructions are leveled with ids increasing stage by stage, so every
   predecessor of a vertex has a smaller id *)
let path_counts net src =
  let g = net.Network.graph in
  let counts = Array.make (Digraph.vertex_count g) 0 in
  counts.(src) <- 1;
  for v = 0 to Digraph.vertex_count g - 1 do
    if counts.(v) > 0 then
      Digraph.iter_out g v (fun ~dst ~eid:_ ->
          counts.(dst) <- counts.(dst) + counts.(v))
  done;
  counts

let test_delta_zoo_counts () =
  List.iter
    (fun (name, make) ->
      List.iter
        (fun n ->
          let k = log2_exact n in
          let net = make n in
          check (name ^ " size") (2 * n * k) (Network.size net);
          check (name ^ " depth") k (Network.depth net);
          check (name ^ " inputs") n (Network.n_inputs net);
          check (name ^ " outputs") n (Network.n_outputs net);
          checkb (name ^ " acyclic") true (Network.is_acyclic net))
        [ 2; 4; 8; 16 ])
    delta_zoo

let test_delta_zoo_unique_path () =
  (* the banyan-class defining property: exactly one path per terminal
     pair, whatever the inter-stage wiring *)
  List.iter
    (fun (name, make) ->
      let net = make 8 in
      Array.iter
        (fun input ->
          let counts = path_counts net input in
          Array.iter
            (fun output ->
              if counts.(output) <> 1 then
                Alcotest.failf "%s: %d paths between a terminal pair" name
                  counts.(output))
            net.Network.outputs)
        net.Network.inputs)
    delta_zoo

let test_delta_zoo_rejects_non_pow2 () =
  List.iter
    (fun (name, make) ->
      List.iter
        (fun n ->
          try
            ignore (make n);
            Alcotest.failf "%s %d should be rejected" name n
          with Invalid_argument _ -> ())
        [ 0; 1; 3; 6; 12 ])
    (("butterfly-pair", Butterfly_pair.make) :: delta_zoo)

let test_butterfly_pair_counts () =
  let n = 8 in
  let k = log2_exact n in
  let net = Butterfly_pair.make n in
  check "size" (4 * n * k) (Network.size net);
  check "depth" (2 * k) (Network.depth net);
  check "inputs" n (Network.n_inputs net);
  check "outputs" n (Network.n_outputs net);
  checkb "acyclic" true (Network.is_acyclic net)

let test_butterfly_pair_path_diversity () =
  (* butterfly reaches each middle row once, the mirror continues each
     middle row to every output once: n paths per terminal pair *)
  let n = 8 in
  let net = Butterfly_pair.make n in
  Array.iter
    (fun input ->
      let counts = path_counts net input in
      Array.iter
        (fun output -> check "paths per pair" n counts.(output))
        net.Network.outputs)
    net.Network.inputs

let test_butterfly_pair_superconcentrates () =
  let net = Butterfly_pair.make 4 in
  match
    Ftcsn_routing.Properties.superconcentrator_exhaustive ~max_work:20000 net
  with
  | `Holds -> ()
  | `Violated v ->
      Alcotest.failf "violated at r=%d achieved=%d" v.Ftcsn_routing.Properties.r
        v.Ftcsn_routing.Properties.achieved
  | `Too_large -> Alcotest.fail "should be feasible"

(* ---------- cross-construction sanity ---------- *)

let test_shannon_size_ordering () =
  (* Benes O(n log n) beats crossbar O(n^2) for large n; Cantor's
     O(n log^2 n) sits between once n is past the crossover (which falls
     at exactly n = 256 for these constants) *)
  let n = 512 in
  let benes = Network.size (Benes.create n) in
  let cantor = Network.size (Cantor.make n) in
  let crossbar = Network.size (Crossbar.square n) in
  checkb "benes < cantor" true (benes < cantor);
  checkb "cantor < crossbar at n=512" true (cantor < crossbar)

let prop_benes_looping_disjoint =
  QCheck2.Test.make ~name:"looping algorithm yields disjoint valid paths"
    ~count:40
    QCheck2.Gen.(pair (int_range 0 3) int)
    (fun (log_extra, seed) ->
      let n = 4 * (1 lsl log_extra) in
      let rng = Rng.create ~seed in
      let b = Benes.make n in
      let pi = Rng.permutation rng n in
      let paths = Benes.route b pi in
      let all = Array.to_list paths |> List.concat in
      List.length all = List.length (List.sort_uniq compare all))

let props =
  List.map QCheck_alcotest.to_alcotest
    [ prop_benes_looping_disjoint; prop_multistage_routes_random ]

let () =
  Alcotest.run "ftcsn_networks"
    [
      ( "network",
        [
          Alcotest.test_case "validation" `Quick test_network_validation;
          Alcotest.test_case "reverse" `Quick test_network_reverse;
        ] );
      ("crossbar", [ Alcotest.test_case "counts" `Quick test_crossbar_counts ]);
      ( "clos",
        [
          Alcotest.test_case "counts" `Quick test_clos_counts;
          Alcotest.test_case "presets" `Quick test_clos_presets;
          Alcotest.test_case "route all perms" `Quick test_clos_route_all_perms_small;
          Alcotest.test_case "route random" `Quick test_clos_route_random_larger;
          Alcotest.test_case "route structured" `Quick test_clos_route_structured;
          Alcotest.test_case "route validation" `Quick test_clos_route_validation;
          Alcotest.test_case "route spare middles" `Quick
            test_clos_route_spare_middles;
        ] );
      ( "benes",
        [
          Alcotest.test_case "size/depth" `Quick test_benes_size_depth;
          Alcotest.test_case "bad n" `Quick test_benes_rejects_bad_n;
          Alcotest.test_case "all perms n=4" `Quick test_benes_routes_all_perms_n4;
          Alcotest.test_case "random perms" `Quick test_benes_routes_random_perms;
          Alcotest.test_case "structured perms" `Quick
            test_benes_routes_structured_perms;
          Alcotest.test_case "route arity" `Quick test_benes_route_arity;
        ] );
      ( "butterfly",
        [
          Alcotest.test_case "counts" `Quick test_butterfly_counts;
          Alcotest.test_case "unique path" `Quick test_butterfly_unique_path;
        ] );
      ( "multibutterfly",
        [
          Alcotest.test_case "structure" `Quick test_multibutterfly_structure;
          Alcotest.test_case "degree bound" `Quick test_multibutterfly_degree_bound;
          Alcotest.test_case "structured routing" `Quick
            test_multibutterfly_structured_routing;
          Alcotest.test_case "degree helps" `Quick test_multibutterfly_degree_helps;
          Alcotest.test_case "routes around faults" `Quick
            test_multibutterfly_routes_around_faults;
        ] );
      ( "cantor",
        [
          Alcotest.test_case "counts" `Quick test_cantor_counts;
          Alcotest.test_case "copies" `Quick test_cantor_copies_override;
        ] );
      ( "valiant-sc",
        [
          Alcotest.test_case "linear size" `Quick test_valiant_sc_linear_size;
          Alcotest.test_case "sc small exhaustive" `Quick test_valiant_sc_is_sc_small;
          Alcotest.test_case "sc sampled" `Quick test_valiant_sc_sampled_larger;
        ] );
      ( "recursive-nb",
        [
          Alcotest.test_case "stage shapes" `Quick test_recursive_nb_stage_shapes;
          Alcotest.test_case "degrees" `Quick test_recursive_nb_degrees;
          Alcotest.test_case "blocks" `Quick test_recursive_nb_blocks;
          Alcotest.test_case "trim" `Quick test_recursive_nb_trim;
          Alcotest.test_case "first-stage hook" `Quick
            test_recursive_nb_first_stage_hook;
          Alcotest.test_case "reachability" `Quick
            test_recursive_nb_reaches_everything;
          Alcotest.test_case "paper params" `Quick test_recursive_nb_paper_params;
        ] );
      ( "concentrator",
        [
          Alcotest.test_case "complete bipartite" `Quick
            test_concentrator_complete_bipartite_certified;
          Alcotest.test_case "refutes star" `Quick test_concentrator_refutes_star;
          Alcotest.test_case "random certifies" `Quick
            test_concentrator_random_certifies;
          Alcotest.test_case "gabber-galil" `Quick test_concentrator_gabber_galil;
          Alcotest.test_case "validation" `Quick test_concentrator_validation;
        ] );
      ( "multistage",
        [
          Alcotest.test_case "structure" `Quick test_multistage_structure;
          Alcotest.test_case "degenerates to benes" `Quick
            test_multistage_degenerates_to_benes;
          Alcotest.test_case "levels tradeoff" `Quick test_multistage_levels_tradeoff;
          Alcotest.test_case "all perms small" `Quick
            test_multistage_routes_all_perms_small;
          Alcotest.test_case "padded n" `Quick test_multistage_routes_padded;
          Alcotest.test_case "validation" `Quick test_multistage_validation;
        ] );
      ( "delta-zoo",
        [
          Alcotest.test_case "counts" `Quick test_delta_zoo_counts;
          Alcotest.test_case "unique path" `Quick test_delta_zoo_unique_path;
          Alcotest.test_case "rejects non-pow2" `Quick
            test_delta_zoo_rejects_non_pow2;
        ] );
      ( "butterfly-pair",
        [
          Alcotest.test_case "counts" `Quick test_butterfly_pair_counts;
          Alcotest.test_case "path diversity" `Quick
            test_butterfly_pair_path_diversity;
          Alcotest.test_case "superconcentrates" `Quick
            test_butterfly_pair_superconcentrates;
        ] );
      ( "landscape",
        [ Alcotest.test_case "size ordering" `Quick test_shannon_size_ordering ] );
      ("properties", props);
    ]
