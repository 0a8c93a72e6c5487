(* Tests for the fast routing layer: the epoch-stamped arena BFS's
   bit-identity with the fill-based search, Staged_route / Loop_route
   agreement with the BFS oracle on every registry family under random
   fault masks, busy-state accept/block agreement over call sequences,
   engine fallback resolution, zero-allocation of the DES call path, and
   fault-free policy-independence of the traffic statistics. *)

module Network = Ftcsn_networks.Network
module Topology = Ftcsn_networks.Topology
module Benes = Ftcsn_networks.Benes
module Crossbar = Ftcsn_networks.Crossbar
module Digraph = Ftcsn_graph.Digraph
module Traverse = Ftcsn_graph.Traverse
module Arena = Ftcsn_graph.Arena
module Greedy = Ftcsn_routing.Greedy
module Staged_route = Ftcsn_routing.Staged_route
module Loop_route = Ftcsn_routing.Loop_route
module Traffic = Ftcsn_des.Traffic
module Rng = Ftcsn_prng.Rng
module Metrics = Ftcsn_obs.Metrics
module Counter = Ftcsn_obs.Counter

let check = Alcotest.(check int)
let checkb = Alcotest.(check bool)
let checks = Alcotest.(check string)

let registry_nets ~n =
  List.filter_map
    (fun name ->
      match
        Topology.build_string ~rng:(Rng.create ~seed:3)
          (Printf.sprintf "%s:%d" name n)
      with
      | Ok b -> Some (name, b.Topology.net)
      | Error _ -> None)
    (Topology.names ())

(* kill roughly [per_mille]/1000 of the edges, seeded *)
let fault_mask ~seed ~per_mille g =
  let m = Digraph.edge_count g in
  let bad = Array.make m false in
  let rng = Rng.create ~seed in
  for _ = 1 to 1 + (m * per_mille / 1000) do
    bad.(Rng.int rng m) <- true
  done;
  fun e -> not bad.(e)

let is_legal_path ~name g ~edge_ok ~src ~dst buf len =
  checkb (name ^ ": starts at src") true (buf.(0) = src);
  checkb (name ^ ": ends at dst") true (buf.(len - 1) = dst);
  for k = 0 to len - 2 do
    let found = ref false in
    Digraph.iter_out g buf.(k) (fun ~dst:v ~eid ->
        if v = buf.(k + 1) && edge_ok eid then found := true);
    checkb
      (Printf.sprintf "%s: hop %d->%d is a live switch" name buf.(k)
         buf.(k + 1))
      true !found
  done

(* ---------- arena BFS is bit-identical to the fill-based search ---------- *)

let test_arena_bit_identity () =
  List.iter
    (fun (name, net) ->
      let g = net.Network.graph in
      let n = Digraph.vertex_count g in
      let arena = Arena.create n in
      let parent = Array.make n (-1) and queue = Array.make n 0 in
      let buf = Array.make n 0 in
      List.iter
        (fun seed ->
          let edge_ok = fault_mask ~seed ~per_mille:30 g in
          let vrng = Rng.create ~seed:(seed + 100) in
          let vbad = Array.make n false in
          for _ = 1 to n / 10 do
            vbad.(Rng.int vrng n) <- true
          done;
          let allowed v = not vbad.(v) in
          Array.iter
            (fun src ->
              Array.iter
                (fun dst ->
                  let reference =
                    Traverse.shortest_path_into ~allowed ~edge_ok g ~src ~dst
                      ~parent ~queue
                  in
                  let len =
                    Traverse.shortest_path_arena_buf ~allowed ~edge_ok g
                      ~arena ~src ~dst ~buf
                  in
                  match reference with
                  | None ->
                      check
                        (Printf.sprintf "%s %d->%d: both blocked" name src dst)
                        (-1) len
                  | Some p ->
                      check
                        (Printf.sprintf "%s %d->%d: same length" name src dst)
                        (List.length p) len;
                      List.iteri
                        (fun k v ->
                          check
                            (Printf.sprintf "%s %d->%d: vertex %d" name src
                               dst k)
                            v buf.(k))
                        p)
                net.Network.outputs)
            net.Network.inputs)
        [ 1; 2 ])
    (registry_nets ~n:8)

(* ---------- staged/loop engines agree with the BFS engine ---------- *)

(* On an idle network the three engines must return the same
   accept/block verdict for every input/output pair, and — because a
   strictly staged graph gives every surviving path the same length —
   accepted paths of identical length, each a legal live path. *)
let engine_agreement ~n ~seeds () =
  List.iter
    (fun (name, net) ->
      let g = net.Network.graph in
      let nv = Digraph.vertex_count g in
      let buf = Array.make nv 0 in
      List.iter
        (fun seed ->
          let edge_ok = fault_mask ~seed ~per_mille:20 g in
          let mk engine = Greedy.create ~edge_ok ~engine net in
          let r_bfs = mk `Bfs and r_st = mk `Staged and r_lp = mk `Loop in
          Array.iter
            (fun src ->
              Array.iter
                (fun dst ->
                  let probe r =
                    let len = Greedy.route_into r ~input:src ~output:dst ~buf in
                    if len >= 0 then begin
                      is_legal_path ~name g ~edge_ok ~src ~dst buf len;
                      Greedy.release_buf r buf ~len
                    end;
                    len
                  in
                  let l0 = probe r_bfs in
                  let l1 = probe r_st in
                  let l2 = probe r_lp in
                  check
                    (Printf.sprintf "%s seed %d %d->%d: staged = bfs" name
                       seed src dst)
                    l0 l1;
                  check
                    (Printf.sprintf "%s seed %d %d->%d: loop = bfs" name seed
                       src dst)
                    l0 l2)
                net.Network.outputs)
            net.Network.inputs)
        seeds)
    (registry_nets ~n)

let test_engine_agreement_n8 () = engine_agreement ~n:8 ~seeds:[ 5; 6; 7 ] ()
let test_engine_agreement_n16 () = engine_agreement ~n:16 ~seeds:[ 8 ] ()

(* ---------- accept/block agreement along busy call sequences ---------- *)

(* Drive one router through an arrival/departure sequence and re-derive
   every verdict with the oracle BFS over the same busy set: the fast
   routers may pick different paths (which then shape the busy set), but
   at each decision point their accept/block answer must equal the plain
   search's on the state they created. *)
let busy_sequence engine () =
  let net = Benes.create 16 in
  let g = net.Network.graph in
  let nv = Digraph.vertex_count g in
  let edge_ok = fault_mask ~seed:21 ~per_mille:15 g in
  let r = Greedy.create ~edge_ok ~engine net in
  let parent = Array.make nv (-1) and queue = Array.make nv 0 in
  let buf = Array.make nv 0 in
  let rng = Rng.create ~seed:22 in
  let live = ref [] in
  let n_in = Network.n_inputs net in
  for step = 1 to 400 do
    let drop = !live <> [] && Rng.int rng 3 = 0 in
    if drop then begin
      match !live with
      | [] -> ()
      | (p, len) :: rest ->
          Greedy.release_buf r p ~len;
          live := rest
    end
    else begin
      let input = net.Network.inputs.(Rng.int rng n_in)
      and output = net.Network.outputs.(Rng.int rng n_in) in
      if not (Greedy.busy r input || Greedy.busy r output) then begin
        let allowed v = not (Greedy.busy r v) in
        let oracle =
          Traverse.shortest_path_into ~allowed ~edge_ok g ~src:input
            ~dst:output ~parent ~queue
        in
        let len = Greedy.route_into r ~input ~output ~buf in
        checkb
          (Printf.sprintf "step %d: %s verdict matches oracle" step
             (Greedy.engine_name r))
          (oracle <> None) (len >= 0);
        if len >= 0 then begin
          (match oracle with
          | Some p ->
              check
                (Printf.sprintf "step %d: same path length" step)
                (List.length p) len
          | None -> ());
          live := (Array.sub buf 0 len, len) :: !live
        end
      end
    end
  done;
  checkb "sequence exercised placements" true (!live <> [])

let test_busy_sequence_staged () = busy_sequence `Staged ()
let test_busy_sequence_loop () = busy_sequence `Loop ()

(* ---------- engine fallback resolution ---------- *)

let test_engine_fallbacks () =
  let benes = Benes.create 16 in
  checks "loop on benes" "loop"
    (Greedy.engine_name (Greedy.create ~engine:`Loop benes));
  checks "staged on benes" "staged"
    (Greedy.engine_name (Greedy.create ~engine:`Staged benes));
  checks "default stays bfs" "bfs" (Greedy.engine_name (Greedy.create benes));
  (* crossbar: strictly staged (all edges input->output) but not a
     Benes, so `Loop degrades to the staged search *)
  let xbar = Crossbar.square 4 in
  checks "loop on crossbar" "staged"
    (Greedy.engine_name (Greedy.create ~engine:`Loop xbar));
  (* a skip-level edge breaks strict stagedness: everything falls back
     to plain BFS *)
  let b = Digraph.Builder.create () in
  let v0 = Digraph.Builder.add_vertex b in
  let v1 = Digraph.Builder.add_vertex b in
  let v2 = Digraph.Builder.add_vertex b in
  ignore (Digraph.Builder.add_edge b ~src:v0 ~dst:v1);
  ignore (Digraph.Builder.add_edge b ~src:v1 ~dst:v2);
  ignore (Digraph.Builder.add_edge b ~src:v0 ~dst:v2);
  let skip =
    Network.make ~name:"skip" ~graph:(Digraph.Builder.freeze b)
      ~inputs:[| v0 |] ~outputs:[| v2 |]
  in
  checkb "skip net is not strictly staged" true
    (Staged_route.create skip = None);
  let cycle =
    Network.make ~name:"cycle"
      ~graph:(Digraph.of_edges ~n:3 [| (0, 1); (1, 0); (1, 2) |])
      ~inputs:[| 0 |] ~outputs:[| 2 |]
  in
  checkb "cyclic net is not staged" true (Staged_route.create cycle = None);
  checkb "skip net is not a benes" true (Loop_route.create skip = None);
  checks "staged on skip net" "bfs"
    (Greedy.engine_name (Greedy.create ~engine:`Staged skip));
  checks "loop on skip net" "bfs"
    (Greedy.engine_name (Greedy.create ~engine:`Loop skip));
  (* the BFS fallback on the skip net still routes (via the short edge
     or the long way when masked) *)
  let r = Greedy.create ~engine:`Loop skip in
  let buf = Array.make 3 0 in
  check "skip net routes" 2 (Greedy.route_into r ~input:v0 ~output:v2 ~buf)

(* ---------- the DES call path allocates zero minor words ---------- *)

let c_search = Metrics.counter Metrics.default "greedy.search"

let alloc_free engine () =
  let net = Benes.create 64 in
  let g = net.Network.graph in
  let nv = Digraph.vertex_count g in
  let edge_ok = fault_mask ~seed:31 ~per_mille:10 g in
  let r = Greedy.create ~edge_ok ~engine net in
  let buf = Array.make nv 0 in
  let n_in = Network.n_inputs net in
  let rng = Rng.create ~seed:32 in
  let srcs = Array.init 64 (fun _ -> net.Network.inputs.(Rng.int rng n_in)) in
  let dsts = Array.init 64 (fun _ -> net.Network.outputs.(Rng.int rng n_in)) in
  (* one warm-up pass so lazy one-time costs don't bill the measured loop *)
  for k = 0 to 63 do
    let len = Greedy.route_into r ~input:srcs.(k) ~output:dsts.(k) ~buf in
    if len >= 0 then Greedy.release_buf r buf ~len
  done;
  let s0 = Counter.get c_search in
  let w0 = Gc.minor_words () in
  for k = 0 to 63 do
    let len = Greedy.route_into r ~input:srcs.(k) ~output:dsts.(k) ~buf in
    if len >= 0 then Greedy.release_buf r buf ~len
  done;
  let w1 = Gc.minor_words () in
  let searches = Counter.get c_search - s0 in
  check "the searches actually ran" 64 searches;
  Alcotest.(check (float 0.0))
    (Printf.sprintf "minor words allocated by 64 %s routes"
       (Greedy.engine_name r))
    0.0 (w1 -. w0)

let test_alloc_free_bfs () = alloc_free `Bfs ()
let test_alloc_free_staged () = alloc_free `Staged ()
let test_alloc_free_loop () = alloc_free `Loop ()

(* ---------- fault-free traffic statistics are policy-independent ---------- *)

(* Without failures no call is ever severed, so path choice cannot feed
   back into the event stream: accept/block is pure reachability and the
   RNG draw sequence is identical under every deterministic policy.  The
   whole stats record must therefore be bit-identical. *)
let test_fault_free_policy_identity () =
  let net = Benes.create 16 in
  let run policy =
    let config =
      Traffic.config ~load:6.0 ~policy
        ~stop:(Traffic.Calls { warmup = 100; measured = 1500 })
        ()
    in
    Traffic.run ~rng:(Rng.create ~seed:97) ~config net
  in
  let s_greedy = run Traffic.Route_greedy in
  let s_staged = run Traffic.Route_staged in
  let s_loop = run Traffic.Route_loop in
  checkb "served > 0" true (s_greedy.Traffic.served > 0);
  checkb "staged stats = greedy stats" true (s_staged = s_greedy);
  checkb "loop stats = greedy stats" true (s_loop = s_greedy)

(* ---------- router_name resolver ---------- *)

let test_router_name () =
  let benes = Benes.create 16 in
  let cfg policy = Traffic.config ~policy () in
  checks "loop policy on benes" "loop"
    (Traffic.router_name (cfg Traffic.Route_loop) benes);
  checks "staged policy on benes" "staged"
    (Traffic.router_name (cfg Traffic.Route_staged) benes);
  checks "greedy policy" "bfs"
    (Traffic.router_name (cfg Traffic.Route_greedy) benes);
  let xbar = Crossbar.square 4 in
  checks "loop policy on crossbar degrades" "staged"
    (Traffic.router_name (cfg Traffic.Route_loop) xbar)

(* ---------- qcheck: random masks keep the engines agreeing ---------- *)

let qcheck_mask_agreement =
  QCheck2.Test.make ~count:30
    ~name:"staged/loop verdicts match bfs under random masks"
    QCheck2.Gen.(pair (int_range 0 100000) (int_range 1 60))
    (fun (seed, per_mille) ->
      let net = Benes.create 8 in
      let g = net.Network.graph in
      let nv = Digraph.vertex_count g in
      let buf = Array.make nv 0 in
      let edge_ok = fault_mask ~seed ~per_mille g in
      let mk engine = Greedy.create ~edge_ok ~engine net in
      let r_bfs = mk `Bfs and r_st = mk `Staged and r_lp = mk `Loop in
      let ok = ref true in
      Array.iter
        (fun src ->
          Array.iter
            (fun dst ->
              let probe r =
                let len = Greedy.route_into r ~input:src ~output:dst ~buf in
                if len >= 0 then Greedy.release_buf r buf ~len;
                len
              in
              let l0 = probe r_bfs and l1 = probe r_st and l2 = probe r_lp in
              if l0 <> l1 || l0 <> l2 then ok := false)
            net.Network.outputs)
        net.Network.inputs;
      !ok)

let () =
  Alcotest.run "ftcsn_fastroute"
    [
      ( "arena",
        [
          Alcotest.test_case "bit-identical to fill-based BFS" `Quick
            test_arena_bit_identity;
        ] );
      ( "engines",
        [
          Alcotest.test_case "agree on all registry families (n=8)" `Quick
            test_engine_agreement_n8;
          Alcotest.test_case "agree on all registry families (n=16)" `Quick
            test_engine_agreement_n16;
          Alcotest.test_case "staged agrees along busy sequences" `Quick
            test_busy_sequence_staged;
          Alcotest.test_case "loop agrees along busy sequences" `Quick
            test_busy_sequence_loop;
          Alcotest.test_case "fallback resolution" `Quick test_engine_fallbacks;
        ] );
      ( "allocation",
        [
          Alcotest.test_case "bfs call path is allocation-free" `Quick
            test_alloc_free_bfs;
          Alcotest.test_case "staged call path is allocation-free" `Quick
            test_alloc_free_staged;
          Alcotest.test_case "loop call path is allocation-free" `Quick
            test_alloc_free_loop;
        ] );
      ( "traffic",
        [
          Alcotest.test_case "fault-free stats are policy-independent" `Quick
            test_fault_free_policy_identity;
          Alcotest.test_case "router_name resolves fallbacks" `Quick
            test_router_name;
        ] );
      ( "qcheck",
        List.map QCheck_alcotest.to_alcotest [ qcheck_mask_agreement ] );
    ]
