(* Tests for the fast routing layer: the epoch-stamped arena BFS's
   bit-identity with the fill-based oracle [Bfs_ref], Staged_route /
   Loop_route agreement with the BFS engine on every registry family
   under random fault masks, busy-state accept/block agreement over call
   sequences, the staged dive's visit cap and the routers' shared buffer
   bound, engine fallback resolution, zero-allocation of the DES call
   path (router and fabric) and of flow probes, Flow_route's greedy
   certificate against the flow oracle [Flow_ref], and fault-free
   policy-independence of the traffic statistics. *)

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
module Flow_route = Ftcsn_routing.Flow_route
module Traffic = Ftcsn_des.Traffic
module Fabric = Ftcsn_des.Fabric
module Rng = Ftcsn_prng.Rng
module Metrics = Ftcsn_obs.Metrics
module Counter = Ftcsn_obs.Counter

let check = Alcotest.(check int)
let checkb = Alcotest.(check bool)
let checks = Alcotest.(check string)

(* the paper's network joins the registry as family "ft" *)
let () = Ftcsn.Ft_topology.install ()

let net_of spec =
  match Topology.build_string ~rng:(Rng.create ~seed:3) spec with
  | Ok b -> b.Topology.net
  | Error e -> failwith e

(* requests that ran the staged dive, and those that hit its visit cap *)
let c_dives = Metrics.counter Metrics.default "staged.dives"
let c_fallbacks = Metrics.counter Metrics.default "staged.sweep_fallbacks"

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

(* [idle] gates the interior vertices *)
let is_legal_path ~name ?(idle = fun _ -> true) g ~edge_ok ~src ~dst buf len =
  checkb (name ^ ": starts at src") true (buf.(0) = src);
  checkb (name ^ ": ends at dst") true (buf.(len - 1) = dst);
  for k = 0 to len - 2 do
    let found = ref false in
    Digraph.iter_out g buf.(k) (fun ~dst:v ~eid ->
        if v = buf.(k + 1) && edge_ok eid then found := true);
    checkb
      (Printf.sprintf "%s: hop %d->%d is a live switch" name buf.(k)
         buf.(k + 1))
      true !found;
    if k > 0 then
      checkb (Printf.sprintf "%s: %d is idle" name buf.(k)) true (idle buf.(k))
  done

(* ---------- arena BFS is bit-identical to the fill-based search ---------- *)

let test_arena_bit_identity () =
  List.iter
    (fun (name, net) ->
      let g = net.Network.graph in
      let n = Digraph.vertex_count g in
      let arena = Arena.create n in
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
                    Bfs_ref.shortest_path ~allowed ~edge_ok g ~src ~dst
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
   search's on the state they created.  On ft:32 and recursive-nb:64 the
   staged engine's paths differ from BFS's on most idle pairs (see the
   policy-identity test below). *)
let sequence_nets =
  lazy [ Benes.create 16; net_of "ft:32"; net_of "recursive-nb:64" ]

let busy_sequence_on engine net =
  let g = net.Network.graph in
  let nv = Digraph.vertex_count g in
  let edge_ok = fault_mask ~seed:21 ~per_mille:15 g in
  let r = Greedy.create ~edge_ok ~engine net in
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
          Bfs_ref.shortest_path ~allowed ~edge_ok g ~src:input ~dst:output
        in
        let len = Greedy.route_into r ~input ~output ~buf in
        checkb
          (Printf.sprintf "%s step %d: %s verdict matches oracle"
             net.Network.name step (Greedy.engine_name r))
          (oracle <> None) (len >= 0);
        if len >= 0 then begin
          (match oracle with
          | Some p ->
              check
                (Printf.sprintf "%s step %d: same path length"
                   net.Network.name step)
                (List.length p) len
          | None -> ());
          live := (Array.sub buf 0 len, len) :: !live
        end
      end
    end
  done;
  checkb
    (Printf.sprintf "%s: sequence exercised placements" net.Network.name)
    true (!live <> [])

let busy_sequence engine () =
  List.iter (busy_sequence_on engine) (Lazy.force sequence_nets)

let test_busy_sequence_staged () = busy_sequence `Staged ()
let test_busy_sequence_loop () = busy_sequence `Loop ()

(* ---------- the dive's visit cap ---------- *)

(* Every vertex of level 12 of ft:64 forbidden: every request blocks.
   The backward pass stops at a wide level above 12, so each dive
   explores the forward cone below level 12 and runs past its visit
   cap; the backward pass, resumed down to the input's level, must
   deliver the verdict. *)
let level_forbidden net lvl =
  match Staged_route.create net with
  | Some s -> fun v -> Staged_route.level s v <> lvl
  | None -> Alcotest.fail "not strictly staged"

let test_forced_cap () =
  let net = net_of "ft:64" in
  let g = net.Network.graph in
  let allowed = level_forbidden net 12 in
  let r = Greedy.create ~allowed ~engine:`Staged net in
  let buf = Array.make (Digraph.vertex_count g) 0 in
  let rng = Rng.create ~seed:41 in
  let n_in = Network.n_inputs net and n_out = Network.n_outputs net in
  let d0 = Counter.get c_dives and f0 = Counter.get c_fallbacks in
  for k = 1 to 400 do
    let src = net.Network.inputs.(Rng.int rng n_in)
    and dst = net.Network.outputs.(Rng.int rng n_out) in
    checkb
      (Printf.sprintf "pair %d: the oracle blocks" k)
      true
      (Bfs_ref.shortest_path ~allowed g ~src ~dst = None);
    check
      (Printf.sprintf "pair %d: staged blocks" k)
      (-1)
      (Greedy.route_into r ~input:src ~output:dst ~buf)
  done;
  check "every request dove" 400 (Counter.get c_dives - d0);
  check "every request hit the cap" 400 (Counter.get c_fallbacks - f0)

(* A hand-built strictly staged net on which the dive runs past its cap
   and the resumed backward pass accepts.  The input's first out-edge
   leads to vertex 1, which fans out into 64 dead-end chains over levels
   2 to 6 (widest level 65, so B = 16 and the cap is 256 entered
   vertices); its second leads to vertex 2, the head of a chain to the
   16 in-neighbours of the output.  The backward pass stops at those 16,
   the dive enters vertex 1 and its 320 dead ends first, and the
   backward pass resumed from the 16 must find the chain. *)
let fan k i = 3 + ((k - 2) * 64) + i
let chain k = 323 + (k - 2)

let capped_accept_net () =
  let mid j = 328 + j and dst = 344 in
  let edges =
    [ (0, 1); (0, 2) ]
    @ List.init 64 (fun i -> (1, fan 2 i))
    @ List.concat_map
        (fun k -> List.init 64 (fun i -> (fan k i, fan (k + 1) i)))
        [ 2; 3; 4; 5 ]
    @ (2, chain 2)
      :: List.map (fun k -> (chain k, chain (k + 1))) [ 2; 3; 4; 5 ]
    @ List.concat_map
        (fun j -> [ (chain 6, mid j); (mid j, dst) ])
        (List.init 16 Fun.id)
  in
  Network.make ~name:"capped-accept"
    ~graph:(Digraph.of_edges ~n:345 (Array.of_list edges))
    ~inputs:[| 0 |] ~outputs:[| dst |]

let test_capped_accept () =
  let net = capped_accept_net () in
  let g = net.Network.graph in
  let s = Option.get (Staged_route.create net) in
  let src = net.Network.inputs.(0) and dst = net.Network.outputs.(0) in
  let all _ = true in
  let buf = Array.make (Staged_route.stages s) 0 in
  let route ~name ~allowed =
    let d0 = Counter.get c_dives and f0 = Counter.get c_fallbacks in
    let len = Staged_route.route_into s ~allowed ~edge_ok:all ~src ~dst ~buf in
    check (name ^ ": the request dove") 1 (Counter.get c_dives - d0);
    check (name ^ ": the dive hit the cap") 1 (Counter.get c_fallbacks - f0);
    len
  in
  let len = route ~name:"open chain" ~allowed:all in
  check "open chain: the oracle's length"
    (List.length (Option.get (Bfs_ref.shortest_path g ~src ~dst)))
    len;
  is_legal_path ~name:"open chain" g ~edge_ok:all ~src ~dst buf len;
  (* with the chain cut, the resumed backward frontier empties *)
  let allowed v = v <> chain 4 in
  checkb "cut chain: the oracle blocks" true
    (Bfs_ref.shortest_path ~allowed g ~src ~dst = None);
  check "cut chain: staged blocks" (-1) (route ~name:"cut chain" ~allowed)

(* ---------- one buffer bound for both fast routers ---------- *)

(* Both routers need [Staged_route.stages] slots, whichever search
   answers: Loop_route's block tree for input->output, its staged
   fallback for input->interior.  One slot fewer is refused before any
   search writes into the buffer. *)
let test_buffer_bound () =
  let net = Benes.create 16 in
  let s = Option.get (Staged_route.create net)
  and l = Option.get (Loop_route.create net) in
  let stages = Staged_route.stages s in
  check "stages = loop path length" (Loop_route.path_length l) stages;
  let all _ = true in
  let loop ~dst buf =
    Loop_route.route_into l ~allowed:all ~edge_ok:all
      ~src:net.Network.inputs.(0) ~dst ~buf
  and staged ~dst buf =
    Staged_route.route_into s ~allowed:all ~edge_ok:all
      ~src:net.Network.inputs.(0) ~dst ~buf
  in
  let buf = Array.make stages 0 in
  let output = net.Network.outputs.(5) in
  check "loop: input -> output" stages (loop ~dst:output buf);
  let interior = buf.(3) in
  check "loop: input -> interior" 4 (loop ~dst:interior buf);
  checkb "loop: the path ends at the interior vertex" true
    (buf.(0) = net.Network.inputs.(0) && buf.(3) = interior);
  check "staged: input -> interior" 4 (staged ~dst:interior buf);
  let short = Array.make (stages - 1) (-7) in
  List.iter
    (fun (name, route, msg) ->
      Alcotest.check_raises name (Invalid_argument msg) (fun () ->
          ignore (route short));
      checkb (name ^ ": buffer untouched") true
        (Array.for_all (( = ) (-7)) short))
    [
      ( "loop: input -> output, short buffer",
        loop ~dst:output,
        "Loop_route.route_into: buffer too small" );
      ( "loop: input -> interior, short buffer",
        loop ~dst:interior,
        "Loop_route.route_into: buffer too small" );
      ( "staged: short buffer",
        staged ~dst:output,
        "Staged_route.route_into: buffer too small" );
    ]

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
  (* multibutterfly:64: the random splitters leave 7 vertices that no
     input reaches, and their edges skip stages; no input -> output path
     crosses them, so the net still stages *)
  let mbf = net_of "multibutterfly:64" in
  let st =
    Ftcsn_graph.Staged.of_sources mbf.Network.graph
      ~sources:(Array.to_list mbf.Network.inputs)
  in
  checkb "multibutterfly:64 has vertices no input reaches" true
    (Array.exists (fun l -> l < 0) st.Ftcsn_graph.Staged.stage);
  checkb "so it is not strictly staged" false
    (Graph_ref.is_strictly_staged mbf.Network.graph st);
  checks "staged on multibutterfly:64" "staged"
    (Greedy.engine_name (Greedy.create ~engine:`Staged mbf));
  (* a search from such a vertex has no levels to go by *)
  (match Staged_route.create mbf with
  | None -> Alcotest.fail "multibutterfly:64 stages"
  | Some sr ->
      let unreached = ref (-1) in
      Array.iteri
        (fun v l ->
          if l < 0 && Digraph.out_degree mbf.Network.graph v > 0 then
            unreached := v)
        st.Ftcsn_graph.Staged.stage;
      Alcotest.check_raises "src reached by no input"
        (Invalid_argument "Staged_route.route_into: src is reached by no input")
        (fun () ->
          ignore
            (Staged_route.route_into sr
               ~allowed:(fun _ -> true)
               ~edge_ok:(fun _ -> true)
               ~src:!unreached ~dst:mbf.Network.outputs.(0)
               ~buf:(Array.make (Staged_route.stages sr) 0))));
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

(* 64 routes after a warm-up pass; returns how many of them dove and
   how many of those hit the cap *)
let alloc_free ?allowed net engine =
  let g = net.Network.graph in
  let nv = Digraph.vertex_count g in
  let edge_ok = fault_mask ~seed:31 ~per_mille:10 g in
  let r = Greedy.create ?allowed ~edge_ok ~engine net in
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
  let d0 = Counter.get c_dives and f0 = Counter.get c_fallbacks in
  let w0 = Gc.minor_words () in
  for k = 0 to 63 do
    let len = Greedy.route_into r ~input:srcs.(k) ~output:dsts.(k) ~buf in
    if len >= 0 then Greedy.release_buf r buf ~len
  done;
  let w1 = Gc.minor_words () in
  let searches = Counter.get c_search - s0 in
  check "the searches actually ran" 64 searches;
  Alcotest.(check (float 0.0))
    (Printf.sprintf "minor words allocated by 64 %s routes on %s"
       (Greedy.engine_name r) net.Network.name)
    0.0 (w1 -. w0);
  (Counter.get c_dives - d0, Counter.get c_fallbacks - f0)

let test_alloc_free_bfs () = ignore (alloc_free (Benes.create 64) `Bfs)
let test_alloc_free_staged () = ignore (alloc_free (Benes.create 64) `Staged)
let test_alloc_free_loop () = ignore (alloc_free (Benes.create 64) `Loop)

(* on ft:64 the staged engine dives; with level 12 forbidden every dive
   also runs past its cap and the backward pass resumes *)
let test_alloc_free_dive () =
  let dives, fallbacks = alloc_free (net_of "ft:64") `Staged in
  check "every route dove" 64 dives;
  check "no route hit the cap" 0 fallbacks

let test_alloc_free_capped () =
  let net = net_of "ft:64" in
  let dives, fallbacks =
    alloc_free ~allowed:(level_forbidden net 12) net `Staged
  in
  check "every route dove" 64 dives;
  check "every route hit the cap" 64 fallbacks

(* every superconcentrator probe, and those the greedy certificate
   answered without Dinic *)
let c_probes = Metrics.counter Metrics.default "flow_route.probes"
let c_certified = Metrics.counter Metrics.default "flow_route.certified"

(* 16 flow probes of r = n/2 under a fault mask, after a warm-up pass;
   returns how many of them the certificate answered.  The masks are
   wrapped in their options once, here: a [~forbidden:f] argument boxes
   [Some f] at the call site, which is the caller's allocation. *)
let flow_alloc_free net =
  let g = net.Network.graph in
  let edge_ok = Some (fault_mask ~seed:31 ~per_mille:2 g) in
  let forbidden = Some (fun v -> v mod 211 = 100) in
  let ws = Flow_route.create_ws net in
  let n = min (Network.n_inputs net) (Network.n_outputs net) in
  let rng = Rng.create ~seed:33 in
  let draw () = Rng.sample_without_replacement rng ~n ~k:(n / 2) in
  let ss = Array.init 16 (fun _ -> draw ()) in
  let ts = Array.init 16 (fun _ -> draw ()) in
  let total = ref 0 in
  let pass () =
    for k = 0 to 15 do
      total :=
        !total
        + Flow_route.max_throughput_ws ?forbidden ?edge_ok ws
            ~input_indices:ss.(k) ~output_indices:ts.(k)
    done
  in
  pass ();
  let p0 = Counter.get c_probes and c0 = Counter.get c_certified in
  let w0 = Gc.minor_words () in
  pass ();
  let w1 = Gc.minor_words () in
  check "every probe counted" 16 (Counter.get c_probes - p0);
  checkb "the probes found paths" true (!total > 0);
  Alcotest.(check (float 0.0))
    (Printf.sprintf "minor words allocated by 16 flow probes on %s"
       net.Network.name)
    0.0 (w1 -. w0);
  Counter.get c_certified - c0

(* butterfly's unique paths collide, so greedy pairing falls short and
   Dinic decides; on the paper's network the certificate answers *)
let test_flow_alloc_free_dinic () =
  check "no probe certified" 0 (flow_alloc_free (net_of "butterfly:64"))

let test_flow_alloc_free_cert () =
  check "every probe certified" 16 (flow_alloc_free (net_of "ft:16"))

(* The fabric's call path, without the router's share measured above:
   place a call, fail a switch in the middle of its path, sever and
   reroute it, release it and repair the switch.  The fault state is
   set by hand, so no clock is drawn inside the measured region. *)
let test_fabric_alloc_free () =
  let net = Benes.create 64 in
  let f = Fabric.create ~mtbf:infinity ~mttr:infinity net in
  let n_in = Network.n_inputs net and n_out = Network.n_outputs net in
  let rerouted = ref 0 in
  let cycle k =
    let slot = Fabric.connect f (k mod n_in) ((k * 7) mod n_out) in
    let e = f.c_edges.(slot).(f.c_plen.(slot) / 2) in
    ignore (Fabric.mark_failed f e ~closed:false);
    if Fabric.sever f e = 1 && f.severed.(0) land 1 = 1 then incr rerouted;
    Fabric.release f slot;
    Fabric.mark_repaired f e
  in
  (* warm-up: every slot buffer grows to its longest path once *)
  for k = 0 to 63 do
    cycle k
  done;
  let w0 = Gc.minor_words () in
  for k = 0 to 9_999 do
    cycle k
  done;
  let w1 = Gc.minor_words () in
  check "every severed call was rerouted" 10_064 !rerouted;
  Alcotest.(check (float 0.0))
    "minor words over 10k place/sever/reroute/release cycles" 0.0 (w1 -. w0)

(* ---------- fault-free traffic statistics are policy-independent ---------- *)

(* idle input/output pairs on which the staged engine's path differs
   from BFS's *)
let differing_pairs net =
  let buf = Array.make (Digraph.vertex_count net.Network.graph) 0 in
  let r_bfs = Greedy.create net and r_st = Greedy.create ~engine:`Staged net in
  let path r ~input ~output =
    let len = Greedy.route_into r ~input ~output ~buf in
    let p = Array.sub buf 0 (max len 0) in
    Greedy.release_buf r buf ~len;
    p
  in
  let count = ref 0 in
  Array.iter
    (fun input ->
      Array.iter
        (fun output ->
          if path r_bfs ~input ~output <> path r_st ~input ~output then
            incr count)
        net.Network.outputs)
    net.Network.inputs;
  !count

(* Without failures no call is ever severed, so path choice cannot feed
   back into the event stream: accept/block is pure reachability and the
   RNG draw sequence is identical under every deterministic policy.  The
   whole stats record must therefore be bit-identical. *)
let policy_identity_on net =
  let name = net.Network.name in
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
  checkb (name ^ ": served > 0") true (s_greedy.Traffic.served > 0);
  checkb (name ^ ": staged stats = greedy stats") true (s_staged = s_greedy);
  checkb (name ^ ": loop stats = greedy stats") true (s_loop = s_greedy)

(* The identity has its meaning on ft:32 and recursive-nb:64, where the
   staged engine picks other paths than BFS does. *)
let test_fault_free_policy_identity () =
  let nets = Lazy.force sequence_nets in
  List.iter
    (fun net ->
      checkb
        (net.Network.name ^ ": staged paths differ from bfs paths")
        true
        (differing_pairs net > 0))
    (List.tl nets);
  List.iter policy_identity_on nets

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

(* Failed edges, forbidden interior vertices and a busy set of placed
   calls on every strictly staged registry family at n = 64, where the
   backward pass mostly stops at a wide level and the dive runs (at n = 8
   and 16 it mostly reaches the input's level first).  Every engine's
   verdict and path length must equal the allocating oracle BFS's, and
   every accepted path must be legal. *)
let staged_nets_64 =
  lazy
    (List.filter
       (fun (_, net) -> Staged_route.create net <> None)
       (registry_nets ~n:64))

let masked_agreement ~seed ~per_mille net =
  let g = net.Network.graph in
  let nv = Digraph.vertex_count g in
  let buf = Array.make nv 0 in
  let edge_ok = fault_mask ~seed ~per_mille g in
  let vrng = Rng.create ~seed:(seed + 1) in
  let bad_v = Array.init nv (fun _ -> Rng.int vrng 1000 < per_mille) in
  let allowed v = not bad_v.(v) in
  let mk engine = Greedy.create ~allowed ~edge_ok ~engine net in
  let r_bfs = mk `Bfs and r_st = mk `Staged and r_lp = mk `Loop in
  let n_in = Network.n_inputs net and n_out = Network.n_outputs net in
  let rng = Rng.create ~seed:(seed + 2) in
  let pick () =
    ( net.Network.inputs.(Rng.int rng n_in),
      net.Network.outputs.(Rng.int rng n_out) )
  in
  (* the busy set: calls placed by the bfs router, adopted by the others *)
  for _ = 1 to n_in / 4 do
    let src, dst = pick () in
    if not (Greedy.busy r_bfs src || Greedy.busy r_bfs dst) then
      match Greedy.route r_bfs ~input:src ~output:dst with
      | Some p ->
          Greedy.occupy r_st p;
          Greedy.occupy r_lp p
      | None -> ()
  done;
  let busy = Array.init nv (Greedy.busy r_bfs) in
  let idle v = allowed v && not busy.(v) in
  let ok = ref true in
  for _ = 1 to 80 do
    let src, dst = pick () in
    if not (busy.(src) || busy.(dst)) then begin
      let oracle =
        if allowed src && allowed dst then
          match Bfs_ref.shortest_path ~allowed:idle ~edge_ok g ~src ~dst with
          | Some p -> List.length p
          | None -> -1
        else -1
      in
      List.iter
        (fun r ->
          let len = Greedy.route_into r ~input:src ~output:dst ~buf in
          if len <> oracle then ok := false;
          if len >= 0 then
            is_legal_path ~name:net.Network.name ~idle g ~edge_ok ~src ~dst
              buf len;
          Greedy.release_buf r buf ~len)
        [ r_bfs; r_st; r_lp ]
    end
  done;
  !ok

let qcheck_mask_agreement =
  QCheck2.Test.make ~count:30
    ~name:"staged/loop verdicts match bfs under random masks"
    QCheck2.Gen.(pair (int_range 0 100000) (int_range 1 60))
    (fun (seed, per_mille) ->
      let d0 = Counter.get c_dives in
      List.for_all
        (fun (_, net) -> masked_agreement ~seed ~per_mille net)
        (Lazy.force staged_nets_64)
      && Counter.get c_dives > d0)

(* ---------- flow probes: the greedy certificate, then Dinic ---------- *)

(* On benes:4 inputs 0 and 1 share a switch with exits 4 and 6, and
   output 12 is reached through 8 (from 4) or 10 (from 6).  With the
   edges 0 -> 6 and 10 -> 12 failed, input 1 reaches output 12 only
   through 4, input 0's only exit, so whichever path the certificate
   takes for its first pair, the second (input 0 -> output 13) blocks.
   The flow is still 2: 0 -> 4 -> 8 -> 12 and 1 -> 6 -> 10 -> 13.
   Dinic must decide it. *)
let test_cert_shortfall_benes () =
  let net = Benes.create 4 in
  let g = net.Network.graph in
  let failed = [ (0, 6); (10, 12) ] in
  let edges = ref [] in
  Digraph.iter_edges g (fun ~eid:_ ~src ~dst -> edges := (src, dst) :: !edges);
  checkb "0 -> 6 and 10 -> 12 are switches" true
    (List.for_all (fun e -> List.mem e !edges) failed);
  checkb "inputs 0, 1 and outputs 12, 13" true
    (net.Network.inputs.(0) = 0
    && net.Network.inputs.(1) = 1
    && net.Network.outputs.(0) = 12
    && net.Network.outputs.(1) = 13);
  let edge_ok e = not (List.mem (Digraph.edge_endpoints g e) failed) in
  let ws = Flow_route.create_ws net in
  let nv = Digraph.vertex_count g in
  let input_indices = [| 1; 0 |] and output_indices = [| 0; 1 |] in
  let p0 = Counter.get c_probes and c0 = Counter.get c_certified in
  check "Dinic finds both paths" 2
    (Flow_route.max_throughput_ws ~edge_ok ws ~input_indices ~output_indices);
  let value, _, _ =
    Flow_route.max_throughput_cert_ws ~edge_ok ws ~input_indices
      ~output_indices ~used_vertices:(Array.make nv 0)
      ~used_edges:(Array.make nv 0)
  in
  check "and so does the certificate variant" 2 value;
  check "both probes counted" 2 (Counter.get c_probes - p0);
  check "neither certified" 0 (Counter.get c_certified - c0)

(* the oracle sees a failed edge as a missing one *)
let without_failed net ~edge_ok =
  let g = net.Network.graph in
  let live = ref [] in
  Digraph.iter_edges g (fun ~eid ~src ~dst ->
      if edge_ok eid then live := (src, dst) :: !live);
  Network.make ~name:net.Network.name
    ~graph:
      (Digraph.of_edges ~n:(Digraph.vertex_count g)
         (Array.of_list (List.rev !live)))
    ~inputs:net.Network.inputs ~outputs:net.Network.outputs

(* [used_v.(0 .. nv-1)] and [used_e.(0 .. ne-1)] are [value] paths from
   [sources] to [sinks]: no vertex twice, none forbidden, every edge
   live, one edge out of and one into each vertex at most, and every
   vertex on the walk from a path's first vertex *)
let is_certificate g ~forbidden ~edge_ok ~sources ~sinks ~value used_v nv
    used_e ne =
  let n = Digraph.vertex_count g in
  let on = Array.make n false
  and succ = Array.make n (-1)
  and has_pred = Array.make n false in
  let ok = ref true in
  for k = 0 to nv - 1 do
    let v = used_v.(k) in
    if on.(v) || forbidden v then ok := false;
    on.(v) <- true
  done;
  for k = 0 to ne - 1 do
    let e = used_e.(k) in
    let u, v = Digraph.edge_endpoints g e in
    if (not (edge_ok e && on.(u) && on.(v))) || succ.(u) >= 0 || has_pred.(v)
    then ok := false
    else begin
      succ.(u) <- v;
      has_pred.(v) <- true
    end
  done;
  let paths = ref 0 and covered = ref 0 in
  for k = 0 to nv - 1 do
    let v = used_v.(k) in
    if not has_pred.(v) then begin
      incr paths;
      if not (Array.mem v sources) then ok := false;
      let rec walk v =
        incr covered;
        if succ.(v) >= 0 then walk succ.(v)
        else if not (Array.mem v sinks) then ok := false
      in
      walk v
    end
  done;
  !ok && !paths = value && !covered = nv

(* every registry family at n = 16 and 64, staged or not, each with
   the one workspace every probe reuses *)
let flow_nets =
  lazy
    (List.map
       (fun (_, net) -> (net, Flow_route.create_ws net))
       (registry_nets ~n:16 @ registry_nets ~n:64))

(* one probe: both variants must give the oracle's value, and the
   certificate variant a certificate of it *)
let probe_agrees net ws ~forbidden ~edge_ok ~input_indices ~output_indices =
  let g = net.Network.graph in
  let nv = Digraph.vertex_count g in
  let oracle =
    Flow_ref.max_throughput ~forbidden (without_failed net ~edge_ok)
      ~input_indices ~output_indices
  in
  let plain =
    Flow_route.max_throughput_ws ~forbidden ~edge_ok ws ~input_indices
      ~output_indices
  in
  let used_v = Array.make nv 0 and used_e = Array.make nv 0 in
  let value, n_v, n_e =
    Flow_route.max_throughput_cert_ws ~forbidden ~edge_ok ws ~input_indices
      ~output_indices ~used_vertices:used_v ~used_edges:used_e
  in
  plain = oracle && value = oracle
  && is_certificate g ~forbidden ~edge_ok
       ~sources:(Array.map (fun i -> net.Network.inputs.(i)) input_indices)
       ~sinks:(Array.map (fun o -> net.Network.outputs.(o)) output_indices)
       ~value used_v n_v used_e n_e

(* Per net, an unmasked probe and one under failed edges and forbidden
   vertices (terminals included), each on a random (r, S, T) with
   |S| <> |T| now and then.  Unmasked crossbar:16 always certifies and
   valiant-sc never stages, so every case runs both branches. *)
let qcheck_flow_certificate =
  QCheck2.Test.make ~count:12
    ~name:"certificate-then-Dinic equals the flow oracle"
    QCheck2.Gen.(pair (int_range 0 100000) (int_range 1 30))
    (fun (seed, per_mille) ->
      let rng = Rng.create ~seed in
      let p0 = Counter.get c_probes and c0 = Counter.get c_certified in
      let all_agree =
        List.for_all
          (fun (net, ws) ->
            let g = net.Network.graph in
            let n_in = Network.n_inputs net and n_out = Network.n_outputs net in
            let n = min n_in n_out in
            let request () =
              let k = 1 + Rng.int rng n in
              let k' = if Rng.int rng 4 = 0 then 1 + Rng.int rng n else k in
              ( Rng.sample_without_replacement rng ~n:n_in ~k,
                Rng.sample_without_replacement rng ~n:n_out ~k:k' )
            in
            let s, t = request () in
            let unmasked =
              probe_agrees net ws ~forbidden:(fun _ -> false)
                ~edge_ok:(fun _ -> true) ~input_indices:s ~output_indices:t
            in
            let edge_ok = fault_mask ~seed:(Rng.int rng 100000) ~per_mille g in
            let bad =
              Array.init (Digraph.vertex_count g) (fun _ ->
                  Rng.int rng 1000 < per_mille)
            in
            let s, t = request () in
            unmasked
            && probe_agrees net ws
                 ~forbidden:(fun v -> bad.(v))
                 ~edge_ok ~input_indices:s ~output_indices:t)
          (Lazy.force flow_nets)
      in
      let probes = Counter.get c_probes - p0
      and certified = Counter.get c_certified - c0 in
      all_agree && certified > 0 && probes - certified > 0)

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
          Alcotest.test_case "dives past the visit cap end in the backward pass" `Quick
            test_forced_cap;
          Alcotest.test_case "a capped dive accepts through the backward pass"
            `Quick test_capped_accept;
          Alcotest.test_case "one buffer bound for staged and loop" `Quick
            test_buffer_bound;
        ] );
      ( "allocation",
        [
          Alcotest.test_case "bfs call path is allocation-free" `Quick
            test_alloc_free_bfs;
          Alcotest.test_case "staged call path is allocation-free" `Quick
            test_alloc_free_staged;
          Alcotest.test_case "loop call path is allocation-free" `Quick
            test_alloc_free_loop;
          Alcotest.test_case "staged dive on ft:64 is allocation-free" `Quick
            test_alloc_free_dive;
          Alcotest.test_case "capped dive on ft:64 is allocation-free" `Quick
            test_alloc_free_capped;
          Alcotest.test_case "fabric place/sever/release is allocation-free"
            `Quick test_fabric_alloc_free;
          Alcotest.test_case "flow probes through Dinic are allocation-free"
            `Quick test_flow_alloc_free_dinic;
          Alcotest.test_case "certified flow probes are allocation-free"
            `Quick test_flow_alloc_free_cert;
        ] );
      ( "flow",
        [
          Alcotest.test_case "a greedy shortfall on benes goes to Dinic" `Quick
            test_cert_shortfall_benes;
        ] );
      ( "traffic",
        [
          Alcotest.test_case "fault-free stats are policy-independent" `Quick
            test_fault_free_policy_identity;
          Alcotest.test_case "router_name resolves fallbacks" `Quick
            test_router_name;
        ] );
      ( "qcheck",
        List.map QCheck_alcotest.to_alcotest
          [ qcheck_mask_agreement; qcheck_flow_certificate ] );
    ]
