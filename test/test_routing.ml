(* Tests for routing: greedy path-finding, exact backtracking, flow-based
   batch routing, and the property deciders. *)

module Network = Ftcsn_networks.Network
module Crossbar = Ftcsn_networks.Crossbar
module Clos = Ftcsn_networks.Clos
module Benes = Ftcsn_networks.Benes
module Butterfly = Ftcsn_networks.Butterfly
module Greedy = Ftcsn_routing.Greedy
module Backtrack = Ftcsn_routing.Backtrack
module Flow_route = Ftcsn_routing.Flow_route
module Properties = Ftcsn_routing.Properties
module Perm = Ftcsn_util.Perm
module Rng = Ftcsn_prng.Rng

let check = Alcotest.(check int)
let checkb = Alcotest.(check bool)

(* ---------- Greedy ---------- *)

let test_greedy_route_and_release () =
  let net = Crossbar.square 3 in
  let r = Greedy.create net in
  let p1 = Greedy.route r ~input:net.Network.inputs.(0) ~output:net.Network.outputs.(1) in
  checkb "routed" true (p1 <> None);
  checkb "input busy" true (Greedy.busy r net.Network.inputs.(0));
  (match p1 with
  | Some p ->
      Greedy.release r p;
      checkb "released" false (Greedy.busy r net.Network.inputs.(0))
  | None -> ());
  ignore (Greedy.route r ~input:net.Network.inputs.(0) ~output:net.Network.outputs.(0))

let test_greedy_busy_endpoint_raises () =
  let net = Crossbar.square 2 in
  let r = Greedy.create net in
  ignore (Greedy.route r ~input:net.Network.inputs.(0) ~output:net.Network.outputs.(0));
  Alcotest.check_raises "busy endpoint"
    (Invalid_argument "Greedy.route: endpoint already busy") (fun () ->
      ignore
        (Greedy.route r ~input:net.Network.inputs.(0)
           ~output:net.Network.outputs.(1)))

let test_greedy_crossbar_full_permutation () =
  (* a crossbar routes any permutation greedily: depth-1 paths never clash *)
  let net = Crossbar.square 5 in
  Perm.iter_all 4 (fun _ -> ());
  let rng = Rng.create ~seed:1 in
  for _ = 1 to 20 do
    let r = Greedy.create net in
    let pi = Rng.permutation rng 5 in
    let success = ref 0 in
    ignore (Greedy.route_permutation r pi ~success);
    check "all routed" 5 !success
  done

let test_greedy_respects_allowed () =
  let net = Crossbar.square 2 in
  (* forbid everything except terminals of request 0-0 *)
  let allow = [ net.Network.inputs.(0); net.Network.outputs.(0) ] in
  let r = Greedy.create ~allowed:(fun v -> List.mem v allow) net in
  checkb "allowed pair routes" true
    (Greedy.route r ~input:net.Network.inputs.(0) ~output:net.Network.outputs.(0)
    <> None);
  checkb "forbidden output fails" true
    (Greedy.route r ~input:net.Network.inputs.(1) ~output:net.Network.outputs.(1)
    = None)

let test_greedy_clos_nonblocking_sequence () =
  (* strictly nonblocking Clos: greedy never blocks on any sequence *)
  let net = Clos.nonblocking ~n:4 in
  let rng = Rng.create ~seed:2 in
  for _ = 1 to 30 do
    let r = Greedy.create net in
    let pi = Rng.permutation rng 4 in
    let success = ref 0 in
    ignore (Greedy.route_permutation r pi ~success);
    check "all routed" 4 !success
  done

let test_greedy_clear () =
  let net = Crossbar.square 2 in
  let r = Greedy.create net in
  ignore (Greedy.route r ~input:net.Network.inputs.(0) ~output:net.Network.outputs.(0));
  Greedy.clear r;
  checkb "cleared" false (Greedy.busy r net.Network.inputs.(0))

let test_greedy_blocking_funnel () =
  (* two inputs forced through one interior vertex: while the first call
     holds it, the second request blocks and changes nothing *)
  let g = Ftcsn_graph.Digraph.of_edges ~n:5 [| (0, 2); (1, 2); (2, 3); (2, 4) |] in
  let net = Network.make ~name:"funnel" ~graph:g ~inputs:[| 0; 1 |] ~outputs:[| 3; 4 |] in
  let r = Greedy.create net in
  Alcotest.(check (option (list int))) "first call" (Some [ 0; 2; 3 ])
    (Greedy.route r ~input:0 ~output:3);
  let busy () = List.init 5 (Greedy.busy r) in
  let before = busy () in
  checkb "second blocks" true (Greedy.route r ~input:1 ~output:4 = None);
  Alcotest.(check (list bool)) "state unchanged" before (busy ())

(* ---------- Backtrack ---------- *)

let requests_of_perm net pi =
  Array.to_list
    (Array.mapi (fun i o -> (net.Network.inputs.(i), net.Network.outputs.(o))) pi)

let test_backtrack_routes_benes_all_perms () =
  let net = Benes.create 4 in
  Perm.iter_all 4 (fun pi ->
      match Backtrack.route_all net (requests_of_perm net (Array.copy pi)) with
      | Backtrack.Routed paths ->
          let all = List.concat paths in
          check "disjoint" (List.length all)
            (List.length (List.sort_uniq compare all))
      | Backtrack.Unroutable -> Alcotest.fail "Benes must route every perm"
      | Backtrack.Budget_exceeded -> Alcotest.fail "budget too small")

let test_backtrack_detects_unroutable () =
  (* butterfly has unique paths: requests 0->0 and 1->1 collide at n=2?
     use two requests sharing the single middle vertex *)
  let g = Ftcsn_graph.Digraph.of_edges ~n:5 [| (0, 2); (1, 2); (2, 3); (2, 4) |] in
  let net = Network.make ~name:"funnel" ~graph:g ~inputs:[| 0; 1 |] ~outputs:[| 3; 4 |] in
  (match Backtrack.route_all net [ (0, 3); (1, 4) ] with
  | Backtrack.Unroutable -> ()
  | _ -> Alcotest.fail "should be unroutable");
  (* single request routes fine *)
  match Backtrack.route_all net [ (0, 3) ] with
  | Backtrack.Routed [ p ] -> Alcotest.(check (list int)) "path" [ 0; 2; 3 ] p
  | _ -> Alcotest.fail "single request should route"

let test_backtrack_budget () =
  let net = Benes.create 8 in
  let rng = Rng.create ~seed:3 in
  let pi = Rng.permutation rng 8 in
  match Backtrack.route_all ~budget:3 net (requests_of_perm net pi) with
  | Backtrack.Budget_exceeded -> ()
  | _ -> Alcotest.fail "tiny budget must exhaust"

let test_backtrack_needs_backtracking () =
  (* instance where the greedy-first path choice for request 1 must be
     revised: requests (0->4) and (1->5); 0 can go via 2 or 3, 1 only
     via 2.  If request 0 grabs 2 first, backtracking must switch it. *)
  let g =
    Ftcsn_graph.Digraph.of_edges ~n:6
      [| (0, 2); (0, 3); (1, 2); (2, 4); (3, 4); (2, 5) |]
  in
  let net = Network.make ~name:"bt" ~graph:g ~inputs:[| 0; 1 |] ~outputs:[| 4; 5 |] in
  match Backtrack.route_all net [ (0, 4); (1, 5) ] with
  | Backtrack.Routed paths ->
      let all = List.concat paths in
      check "disjoint" (List.length all) (List.length (List.sort_uniq compare all))
  | _ -> Alcotest.fail "backtracking should find the assignment"

let test_count_paths () =
  let net = Benes.create 4 in
  (* Benes(4): each input-output pair has exactly 2 paths (one per half) *)
  check "two paths" 2
    (Backtrack.count_paths net ~src:net.Network.inputs.(0)
       ~dst:net.Network.outputs.(3));
  let bf = Butterfly.make 8 in
  check "butterfly unique" 1
    (Backtrack.count_paths bf ~src:bf.Network.inputs.(2)
       ~dst:bf.Network.outputs.(5))

(* ---------- Flow_route ---------- *)

(* the workspace's value and certificate, with the oracle's explicit
   paths: three vertex-disjoint circuits of depth + 1 = 6 vertices *)
let test_flow_route_connect () =
  let net = Benes.create 8 in
  let nv = Ftcsn_graph.Digraph.vertex_count net.Network.graph in
  let input_indices = [| 0; 3; 5 |] and output_indices = [| 1; 2; 7 |] in
  let value, used_v, used_e =
    Flow_route.max_throughput_cert_ws (Flow_route.create_ws net) ~input_indices
      ~output_indices ~used_vertices:(Array.make nv 0)
      ~used_edges:(Array.make nv 0)
  in
  check "three units" 3 value;
  check "certificate vertices" 18 used_v;
  check "certificate edges" 15 used_e;
  match Flow_ref.connect net ~input_indices ~output_indices with
  | Some paths ->
      check "three paths" 3 (List.length paths);
      let all = List.concat paths in
      check "disjoint" (List.length all) (List.length (List.sort_uniq compare all))
  | None -> Alcotest.fail "Benes superconcentrates"

let test_flow_route_forbidden_blocks () =
  let g = Ftcsn_graph.Digraph.of_edges ~n:3 [| (0, 1); (1, 2) |] in
  let net = Network.make ~name:"chain" ~graph:g ~inputs:[| 0 |] ~outputs:[| 2 |] in
  let ws = Flow_route.create_ws net in
  check "throughput" 1
    (Flow_route.max_throughput_ws ws ~input_indices:[| 0 |]
       ~output_indices:[| 0 |]);
  check "forbidden" 0
    (Flow_route.max_throughput_ws
       ~forbidden:(fun v -> v = 1)
       ws ~input_indices:[| 0 |] ~output_indices:[| 0 |]);
  check "failed edge" 0
    (Flow_route.max_throughput_ws
       ~edge_ok:(fun e -> e <> 1)
       ws ~input_indices:[| 0 |] ~output_indices:[| 0 |])

(* the oracle's connect needs a pairing-sized request *)
let test_flow_route_arity () =
  let net = Crossbar.square 2 in
  Alcotest.check_raises "arity" (Invalid_argument "Flow_ref.connect: arity")
    (fun () ->
      ignore (Flow_ref.connect net ~input_indices:[| 0 |] ~output_indices:[||]))

(* ---------- Properties ---------- *)

let test_crossbar_nonblocking () =
  match Properties.nonblocking_exhaustive ~max_states:100_000 (Crossbar.square 3) with
  | `Holds -> ()
  | `Violated _ -> Alcotest.fail "crossbars are strictly nonblocking"
  | `Budget_exceeded -> Alcotest.fail "budget"

let test_clos_nonblocking_game () =
  (* m = 2k-1 = 3 with k=2, r=2: strictly nonblocking *)
  let net = Clos.make { Clos.m = 3; k = 2; r = 2 } in
  match Properties.nonblocking_exhaustive ~max_states:150_000 net with
  | `Holds -> ()
  | `Violated _ -> Alcotest.fail "Clos(3,2,2) is strictly nonblocking"
  | `Budget_exceeded -> Alcotest.fail "budget"

let test_clos_rearrangeable_not_nonblocking () =
  (* m = k = 2: rearrangeable but not strictly nonblocking *)
  let net = Clos.make { Clos.m = 2; k = 2; r = 2 } in
  (match Properties.nonblocking_exhaustive ~max_states:150_000 net with
  | `Violated v ->
      checkb "witness has established paths" true
        (List.length v.Properties.established >= 1)
  | `Holds -> Alcotest.fail "Clos(2,2,2) is not strictly nonblocking"
  | `Budget_exceeded -> Alcotest.fail "budget");
  match Properties.rearrangeable_exhaustive net with
  | `Holds -> ()
  | `Violated pi -> Alcotest.failf "should rearrange %s" (Format.asprintf "%a" Perm.pp pi)
  | `Budget_exceeded -> Alcotest.fail "budget"

let test_benes_rearrangeable_exhaustive () =
  match Properties.rearrangeable_exhaustive (Benes.create 4) with
  | `Holds -> ()
  | `Violated _ -> Alcotest.fail "Benes is rearrangeable"
  | `Budget_exceeded -> Alcotest.fail "budget"

let test_butterfly_not_rearrangeable () =
  match Properties.rearrangeable_exhaustive (Butterfly.make 4) with
  | `Violated _ -> ()
  | `Holds -> Alcotest.fail "butterfly cannot rearrange"
  | `Budget_exceeded -> Alcotest.fail "budget"

let test_butterfly_banyan () =
  checkb "butterfly is banyan" true (Properties.is_banyan (Butterfly.make 8));
  checkb "benes is not" false (Properties.is_banyan (Benes.create 4))

let test_superconcentrator_checks () =
  let benes = Benes.create 4 in
  (match Properties.superconcentrator_exhaustive ~max_work:50_000 benes with
  | `Holds -> ()
  | `Violated _ -> Alcotest.fail "Benes superconcentrates"
  | `Too_large -> Alcotest.fail "should fit");
  (* butterfly is not a superconcentrator: requests 0,1 -> both outputs
     reachable only through shared vertices at some r *)
  let bf = Butterfly.make 4 in
  match Properties.superconcentrator_exhaustive ~max_work:50_000 bf with
  | `Violated v -> checkb "achieved < r" true (v.Properties.achieved < v.Properties.r)
  | `Holds -> Alcotest.fail "butterfly should violate"
  | `Too_large -> Alcotest.fail "should fit"

let test_superconcentrator_sampled_agrees () =
  let rng = Rng.create ~seed:5 in
  let benes = Benes.create 8 in
  checkb "no violation" true
    (Properties.superconcentrator_sampled ~trials:50 ~rng benes = None);
  let bf = Butterfly.make 8 in
  checkb "violation found" true
    (Properties.superconcentrator_sampled ~trials:200 ~rng bf <> None)

let test_rearrangeable_sampled () =
  let rng = Rng.create ~seed:7 in
  checkb "benes fine" true
    (Properties.rearrangeable_sampled ~trials:10 ~rng
       (Benes.create 8)
    = None);
  checkb "butterfly caught" true
    (Properties.rearrangeable_sampled ~trials:30 ~rng (Butterfly.make 8) <> None)

(* ---------- Wide_sense ---------- *)

module Wide_sense = Ftcsn_routing.Wide_sense

let test_wsnb_greedy_wins_on_crossbar () =
  (* strictly nonblocking => every strategy wins the adversary game *)
  match Wide_sense.adversary_game Wide_sense.greedy_strategy (Crossbar.square 3) with
  | Wide_sense.Strategy_wins -> ()
  | Wide_sense.Adversary_wins _ -> Alcotest.fail "crossbar is strictly nonblocking"
  | Wide_sense.Budget_exceeded -> Alcotest.fail "budget"

let test_wsnb_greedy_wins_on_snb_clos () =
  match
    Wide_sense.adversary_game ~max_states:200_000 Wide_sense.greedy_strategy
      (Clos.make { Clos.m = 3; k = 2; r = 2 })
  with
  | Wide_sense.Strategy_wins -> ()
  | Wide_sense.Adversary_wins _ -> Alcotest.fail "Clos(3,2,2) is strictly nonblocking"
  | Wide_sense.Budget_exceeded -> Alcotest.fail "budget"

let test_wsnb_adversary_beats_rearrangeable () =
  (* on a merely-rearrangeable Clos NO memoryless strategy survives the
     exhaustive adversary; check both of ours lose *)
  let net = Clos.make { Clos.m = 2; k = 2; r = 2 } in
  List.iter
    (fun strategy ->
      match Wide_sense.adversary_game ~max_states:200_000 strategy net with
      | Wide_sense.Adversary_wins (live, _) ->
          checkb "loss needs established calls" true (live <> [])
      | Wide_sense.Strategy_wins ->
          Alcotest.fail "Clos(2,2,2) cannot be nonblocking under any strategy"
      | Wide_sense.Budget_exceeded -> Alcotest.fail "budget")
    [ Wide_sense.greedy_strategy; Wide_sense.packing_strategy ]

let test_wsnb_packing_valid_paths () =
  (* the packing strategy must return validated paths on a stress run *)
  let rng = Rng.create ~seed:60 in
  let offered, blocked =
    Wide_sense.stress ~steps:300 ~rng Wide_sense.packing_strategy
      (Clos.make { Clos.m = 3; k = 2; r = 2 })
  in
  checkb "traffic flowed" true (offered > 30);
  check "no blocking on snb clos" 0 blocked

let test_wsnb_stress_blocking_detected () =
  let rng = Rng.create ~seed:61 in
  let offered, blocked =
    Wide_sense.stress ~steps:500 ~rng Wide_sense.greedy_strategy
      (Benes.create 8)
  in
  checkb "offered" true (offered > 50);
  checkb "benes blocks under greedy" true (blocked > 0)

let prop_greedy_paths_valid =
  QCheck2.Test.make ~name:"greedy routes are idle-vertex paths with real edges"
    ~count:60
    QCheck2.Gen.(pair (int_range 0 100000) (int_range 2 4))
    (fun (seed, logn) ->
      let rng = Rng.create ~seed in
      let n = 1 lsl logn in
      let net = Benes.create n in
      let router = Greedy.create net in
      let g = net.Ftcsn_networks.Network.graph in
      let ok = ref true in
      for _ = 1 to n / 2 do
        let i = Rng.int rng n and o = Rng.int rng n in
        if
          (not (Greedy.busy router net.Ftcsn_networks.Network.inputs.(i)))
          && not (Greedy.busy router net.Ftcsn_networks.Network.outputs.(o))
        then begin
          match
            Greedy.route router
              ~input:net.Ftcsn_networks.Network.inputs.(i)
              ~output:net.Ftcsn_networks.Network.outputs.(o)
          with
          | None -> ()
          | Some path ->
              let rec edges = function
                | a :: (b :: _ as rest) ->
                    if
                      not
                        (Ftcsn_graph.Digraph.fold_out g a ~init:false
                           ~f:(fun acc ~dst ~eid:_ -> acc || dst = b))
                    then ok := false
                    else edges rest
                | _ -> ()
              in
              edges path
        end
      done;
      !ok)

let props =
  List.map QCheck_alcotest.to_alcotest
    [ prop_greedy_paths_valid ]

let () =
  Alcotest.run "ftcsn_routing"
    [
      ( "greedy",
        [
          Alcotest.test_case "route/release" `Quick test_greedy_route_and_release;
          Alcotest.test_case "busy endpoint" `Quick test_greedy_busy_endpoint_raises;
          Alcotest.test_case "crossbar perms" `Quick
            test_greedy_crossbar_full_permutation;
          Alcotest.test_case "allowed" `Quick test_greedy_respects_allowed;
          Alcotest.test_case "clos nonblocking" `Quick
            test_greedy_clos_nonblocking_sequence;
          Alcotest.test_case "clear" `Quick test_greedy_clear;
          Alcotest.test_case "blocking funnel" `Quick test_greedy_blocking_funnel;
        ] );
      ( "backtrack",
        [
          Alcotest.test_case "benes all perms" `Quick
            test_backtrack_routes_benes_all_perms;
          Alcotest.test_case "unroutable" `Quick test_backtrack_detects_unroutable;
          Alcotest.test_case "budget" `Quick test_backtrack_budget;
          Alcotest.test_case "needs backtracking" `Quick
            test_backtrack_needs_backtracking;
          Alcotest.test_case "count paths" `Quick test_count_paths;
        ] );
      ( "flow-route",
        [
          Alcotest.test_case "connect" `Quick test_flow_route_connect;
          Alcotest.test_case "forbidden" `Quick test_flow_route_forbidden_blocks;
          Alcotest.test_case "arity" `Quick test_flow_route_arity;
        ] );
      ( "properties",
        [
          Alcotest.test_case "crossbar nonblocking" `Quick test_crossbar_nonblocking;
          Alcotest.test_case "clos nonblocking game" `Quick test_clos_nonblocking_game;
          Alcotest.test_case "clos rearrangeable-only" `Quick
            test_clos_rearrangeable_not_nonblocking;
          Alcotest.test_case "benes rearrangeable" `Quick
            test_benes_rearrangeable_exhaustive;
          Alcotest.test_case "butterfly not rearrangeable" `Quick
            test_butterfly_not_rearrangeable;
          Alcotest.test_case "banyan" `Quick test_butterfly_banyan;
          Alcotest.test_case "superconcentrator" `Quick test_superconcentrator_checks;
          Alcotest.test_case "sc sampled" `Quick test_superconcentrator_sampled_agrees;
          Alcotest.test_case "rearrangeable sampled" `Quick test_rearrangeable_sampled;
        ] );
      ( "wide-sense",
        [
          Alcotest.test_case "greedy on crossbar" `Quick
            test_wsnb_greedy_wins_on_crossbar;
          Alcotest.test_case "greedy on snb clos" `Slow
            test_wsnb_greedy_wins_on_snb_clos;
          Alcotest.test_case "adversary beats rearrangeable" `Slow
            test_wsnb_adversary_beats_rearrangeable;
          Alcotest.test_case "packing paths valid" `Quick
            test_wsnb_packing_valid_paths;
          Alcotest.test_case "stress detects blocking" `Quick
            test_wsnb_stress_blocking_detected;
        ] );
      ("qcheck", props);
    ]
