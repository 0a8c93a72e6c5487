(* Tests for the million-switch scale layer: Dyn_conn incremental
   connectivity against batch oracles, the agreement of the rewritten
   Traffic engine with the frozen Traffic_ref copy (bit for bit without
   failures, statistically with them, since Traffic samples failures
   from one fabric-wide clock and Traffic_ref from one clock per
   switch), and fixed-seed goldens of the fast routers. *)

module Rng = Ftcsn_prng.Rng
module Digraph = Ftcsn_graph.Digraph
module Union_find = Uf_ref
module Dyn_conn = Ftcsn_reliability.Dyn_conn
module Network = Ftcsn_networks.Network
module Topology = Ftcsn_networks.Topology
module Benes = Ftcsn_networks.Benes
module Traffic = Ftcsn_des.Traffic
module Batch_means = Ftcsn_des.Batch_means
module Stats = Ftcsn_util.Stats
module Metrics = Ftcsn_obs.Metrics
module Counter = Ftcsn_obs.Counter

let checkb = Alcotest.(check bool)
let check = Alcotest.(check int)

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

(* ---------- Dyn_conn vs a from-scratch union-find oracle ---------- *)

(* the oracle is the engine's old terminals_shorted: a fresh union-find
   over the currently-closed edge set *)
let oracle_shorted g closed terminals =
  let uf = Union_find.create (Digraph.vertex_count g) in
  Array.iteri
    (fun e c ->
      if c then begin
        let u, v = Digraph.edge_endpoints g e in
        Union_find.union uf u v
      end)
    closed;
  let seen = Hashtbl.create 16 in
  List.exists
    (fun t ->
      let c = Union_find.find uf t in
      if Hashtbl.mem seen c then true
      else begin
        Hashtbl.add seen c ();
        false
      end)
    terminals

let oracle_connected g closed a b =
  let uf = Union_find.create (Digraph.vertex_count g) in
  Array.iteri
    (fun e c ->
      if c then begin
        let u, v = Digraph.edge_endpoints g e in
        Union_find.union uf u v
      end)
    closed;
  Union_find.equiv uf a b

(* random close/reopen sequence, checked against the oracle after every
   operation — exercises the split path (a reopen BFS-relabels its
   class) on every registry family *)
let dyn_conn_agrees (name, net) seed ops =
  let g = net.Network.graph in
  let n = Digraph.vertex_count g and m = Digraph.edge_count g in
  let terminals = Network.terminals net in
  let rng = Rng.create ~seed in
  let dc = Dyn_conn.create ~terminals g in
  let closed = Array.make m false in
  let nclosed = ref 0 in
  for step = 1 to ops do
    (* bias towards closing so shorts actually appear *)
    let close = !nclosed = 0 || Rng.int rng 3 > 0 in
    if close then begin
      let e = Rng.int rng m in
      if not closed.(e) then begin
        closed.(e) <- true;
        incr nclosed;
        Dyn_conn.close dc e
      end
    end
    else begin
      (* reopen a uniformly-drawn closed edge *)
      let k = Rng.int rng !nclosed in
      let picked = ref (-1) and seen = ref 0 in
      Array.iteri
        (fun e c ->
          if c && !picked < 0 then begin
            if !seen = k then picked := e;
            incr seen
          end)
        closed;
      closed.(!picked) <- false;
      decr nclosed;
      Dyn_conn.reopen dc !picked
    end;
    let want = oracle_shorted g closed terminals in
    if Dyn_conn.terminals_shorted dc <> want then
      Alcotest.failf "%s: terminals_shorted diverged at step %d (seed %d)"
        name step seed;
    let a = Rng.int rng n and b = Rng.int rng n in
    if Dyn_conn.connected dc a b <> oracle_connected g closed a b then
      Alcotest.failf "%s: connected %d %d diverged at step %d (seed %d)"
        name a b step seed
  done

let test_dyn_conn_oracle () =
  let nets = registry_nets ~n:8 in
  checkb "registry nonempty" true (nets <> []);
  List.iter
    (fun nn ->
      dyn_conn_agrees nn 11 120;
      dyn_conn_agrees nn 12 120)
    nets

let test_dyn_conn_qcheck =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"Dyn_conn = batch oracle (benes, random ops)"
       ~count:60
       QCheck2.Gen.(pair (int_range 0 10_000) (int_range 1 200))
       (fun (seed, ops) ->
         let net = Benes.create 8 in
         dyn_conn_agrees ("benes:8", net) seed ops;
         true))

(* Hand-built reopen cases: replay [(close?, edge)] steps on a small
   graph, checking both oracles on every vertex pair after each step. *)
let replay name ~n ~terminals edges steps =
  let g = Digraph.of_edges ~n edges in
  let dc = Dyn_conn.create ~terminals g in
  let closed = Array.make (Array.length edges) false in
  List.iteri
    (fun i (close, e) ->
      closed.(e) <- close;
      if close then Dyn_conn.close dc e else Dyn_conn.reopen dc e;
      let at what = Printf.sprintf "%s, step %d: %s" name i what in
      checkb (at "terminals_shorted")
        (oracle_shorted g closed terminals)
        (Dyn_conn.terminals_shorted dc);
      for a = 0 to n - 1 do
        for b = 0 to n - 1 do
          checkb
            (at (Printf.sprintf "connected %d %d" a b))
            (oracle_connected g closed a b)
            (Dyn_conn.connected dc a b)
        done
      done)
    steps;
  dc

let test_reopen_parallel () =
  let dc =
    replay "parallel" ~n:3 ~terminals:[ 0; 1 ]
      [| (0, 1); (0, 1); (1, 2) |]
      [ (true, 0); (true, 1); (true, 2); (false, 0) ]
  in
  checkb "the twin edge still joins the class" true (Dyn_conn.connected dc 0 2);
  checkb "still shorted" true (Dyn_conn.terminals_shorted dc)

let test_reopen_self_loop () =
  let dc =
    replay "self-loop" ~n:3 ~terminals:[ 0; 2 ]
      [| (0, 1); (1, 1); (1, 2) |]
      [ (true, 1); (false, 1); (true, 0); (true, 1); (false, 1) ]
  in
  checkb "loop repair keeps 0~1" true (Dyn_conn.connected dc 0 1);
  checkb "loop repair joins nothing" false (Dyn_conn.connected dc 1 2);
  checkb "no short" false (Dyn_conn.terminals_shorted dc)

let test_reopen_path_clears_short () =
  List.iter
    (fun e ->
      let name = Printf.sprintf "path, reopen edge %d" e in
      let dc =
        replay name ~n:3 ~terminals:[ 0; 2 ]
          [| (0, 1); (1, 2) |]
          [ (true, 0); (true, 1); (false, e) ]
      in
      checkb (name ^ ": short cleared") false (Dyn_conn.terminals_shorted dc))
    [ 0; 1 ]

let test_two_shorted_classes () =
  let dc =
    replay "two classes" ~n:6 ~terminals:[ 0; 2; 3; 5 ]
      [| (0, 1); (1, 2); (3, 4); (4, 5) |]
      [ (true, 0); (true, 1); (true, 2); (true, 3); (false, 1) ]
  in
  checkb "the other class keeps the short" true (Dyn_conn.terminals_shorted dc);
  Dyn_conn.reopen dc 3;
  checkb "both cleared" false (Dyn_conn.terminals_shorted dc)

let c_rebuild = Metrics.counter Metrics.default "dyn_conn.rebuilds"

(* 10k close/reopen/query operations allocate no minor words, and every
   reopen of a closed edge counts one relabel *)
let test_dyn_conn_alloc_free () =
  let net = Benes.create 64 in
  let g = net.Network.graph in
  let n = Digraph.vertex_count g and m = Digraph.edge_count g in
  let terminals = Network.terminals net in
  let dc = Dyn_conn.create ~terminals g in
  let ops = 10_000 in
  let rng = Rng.create ~seed:5 in
  (* a pool of m/8 edges keeps the closed classes small and splitting *)
  let pool = Array.init (m / 8) (fun _ -> Rng.int rng m) in
  let edge = Array.init ops (fun _ -> pool.(Rng.int rng (Array.length pool))) in
  let va = Array.init ops (fun _ -> Rng.int rng n) in
  let vb = Array.init ops (fun _ -> Rng.int rng n) in
  let closed = Array.make m false in
  let reopens = ref 0 and shorted = ref 0 in
  let run () =
    reopens := 0;
    shorted := 0;
    for k = 0 to ops - 1 do
      let e = edge.(k) in
      if closed.(e) then begin
        Dyn_conn.reopen dc e;
        incr reopens
      end
      else Dyn_conn.close dc e;
      closed.(e) <- not closed.(e);
      if Dyn_conn.terminals_shorted dc then incr shorted;
      ignore (Dyn_conn.connected dc va.(k) vb.(k))
    done
  in
  run ();
  let r0 = Counter.get c_rebuild in
  let w0 = Gc.minor_words () in
  run ();
  let w1 = Gc.minor_words () in
  check "one relabel per reopened closed edge" !reopens
    (Counter.get c_rebuild - r0);
  checkb "shorts came and went" true (!shorted > 0 && !shorted < ops);
  checkb "final verdict = oracle" (oracle_shorted g closed terminals)
    (Dyn_conn.terminals_shorted dc);
  Alcotest.(check (float 0.0))
    "minor words allocated by 10k close/reopen/query ops" 0.0 (w1 -. w0)

(* ---------- bit-identity against Traffic_ref ---------- *)

(* Without failures neither engine draws a clock, so Traffic must still
   reproduce Traffic_ref bit for bit: same arrivals, endpoint picks,
   holding times, routes and statistics. *)
let test_bit_identity_run () =
  let nets = registry_nets ~n:16 in
  List.iter
    (fun (name, net) ->
      List.iter
        (fun (policy, seed) ->
          let config =
            Traffic.config ~load:4.0 ~mtbf:infinity ~mttr:5.0 ~policy
              ~stop:(Traffic.Calls { warmup = 100; measured = 400 })
              ~batches:4 ()
          in
          let s_new = Traffic.run ~rng:(Rng.create ~seed) ~config net in
          let s_ref = Traffic_ref.run ~rng:(Rng.create ~seed) ~config net in
          if s_new <> s_ref then
            Alcotest.failf "%s: run diverged from Traffic_ref (seed %d)" name
              seed)
        [
          (Traffic.Route_greedy, 42);
          (Traffic.Route_greedy, 1337);
          (Traffic.Route_rearrange 20_000, 42);
        ])
    nets

let test_bit_identity_saturate () =
  let net = Benes.create 16 in
  let config =
    Traffic.config ~load:0.5 ~mtbf:infinity ~mttr:3.0 ~saturate:true
      ~stop_on_degradation:true
      ~stop:(Traffic.Horizon 400.0) ()
  in
  List.iter
    (fun seed ->
      let s_new = Traffic.run ~rng:(Rng.create ~seed) ~config net in
      let s_ref = Traffic_ref.run ~rng:(Rng.create ~seed) ~config net in
      if s_new <> s_ref then
        Alcotest.failf "saturated run diverged from Traffic_ref (seed %d)"
          seed)
    [ 1; 2; 3; 4; 5 ]

let test_bit_identity_estimate () =
  let net = Benes.create 16 in
  let config =
    Traffic.config ~load:4.0 ~mtbf:infinity ~mttr:5.0
      ~stop:(Traffic.Calls { warmup = 100; measured = 400 })
      ~batches:4 ()
  in
  let reference =
    Traffic_ref.estimate ~trials:6 ~rng:(Rng.create ~seed:9) ~config net
  in
  List.iter
    (fun jobs ->
      let s =
        Traffic.estimate ~jobs ~trials:6 ~rng:(Rng.create ~seed:9) ~config
          net
      in
      if s <> reference then
        Alcotest.failf "estimate diverged from Traffic_ref at jobs=%d" jobs)
    [ 1; 2; 4 ]

(* ---------- with failures: agreement with Traffic_ref ---------- *)

(* The same random process sampled two ways: Traffic_ref arms one
   exponential clock per switch, Traffic one thinned fabric-wide clock.
   Blocking must agree within the reported CIs, and both engines must
   fail normal switches at rate m(1 - eps)/mtbf, eps = mttr/(mtbf +
   mttr), within 4 standard errors (Poisson counting). *)
let test_equivalence_blocking_and_rate () =
  let net = Benes.create 16 in
  let m = Digraph.edge_count net.Network.graph in
  let mtbf = 2000.0 and mttr = 5.0 in
  let config =
    Traffic.config ~load:4.0 ~mtbf ~mttr ~stop:(Traffic.Horizon 4000.0) ()
  in
  let rng () = Rng.create ~seed:19 in
  let s_new = Traffic.estimate ~jobs:1 ~trials:40 ~rng:(rng ()) ~config net in
  let s_ref =
    Traffic_ref.estimate ~jobs:1 ~trials:40 ~rng:(rng ()) ~config net
  in
  let a = s_new.Traffic.blocking and b = s_ref.Traffic.blocking in
  if not (a.Batch_means.ci_low <= b.Batch_means.ci_high
          && b.Batch_means.ci_low <= a.Batch_means.ci_high)
  then
    Alcotest.failf
      "blocking CIs disjoint: %.5f [%.5f, %.5f] vs %.5f [%.5f, %.5f]"
      a.Batch_means.mean a.Batch_means.ci_low a.Batch_means.ci_high
      b.Batch_means.mean b.Batch_means.ci_low b.Batch_means.ci_high;
  let eps = mttr /. (mtbf +. mttr) in
  let want = float_of_int m *. (1.0 -. eps) /. mtbf in
  List.iter
    (fun (name, (s : Traffic.summary)) ->
      let f = float_of_int s.Traffic.t_failures and t = s.Traffic.t_sim_time in
      let se = sqrt f /. t in
      if Float.abs ((f /. t) -. want) > 4.0 *. se then
        Alcotest.failf "%s: %.5f failures per unit time, want %.5f +- 4 x %.5f"
          name (f /. t) want se)
    [ ("Traffic", s_new); ("Traffic_ref", s_ref) ]

(* Saturated identity calls under fast failures stop at the first
   degradation: the mean stopping time over 60 seeds must agree between
   the engines within 4 standard errors of the difference. *)
let test_equivalence_degradation () =
  let net = Benes.create 16 in
  let config =
    Traffic.config ~load:0.5 ~mtbf:30.0 ~mttr:3.0 ~saturate:true
      ~stop_on_degradation:true
      ~stop:(Traffic.Horizon 400.0) ()
  in
  let seeds = List.init 60 (fun i -> i + 1) in
  (* the mean stopping time and its squared standard error *)
  let mean_var run =
    let st = Stats.create () in
    List.iter
      (fun seed ->
        let s = run ~rng:(Rng.create ~seed) ~config net in
        match s.Traffic.degraded_at with
        | Some t -> Stats.add st t
        | None -> Alcotest.failf "seed %d: no degradation by horizon" seed)
      seeds;
    (Stats.mean st, Stats.variance st /. float_of_int (Stats.count st))
  in
  let m_new, v_new = mean_var Traffic.run in
  let m_ref, v_ref = mean_var Traffic_ref.run in
  if Float.abs (m_new -. m_ref) > 4.0 *. sqrt (v_new +. v_ref) then
    Alcotest.failf "mean degraded_at %.4f vs Traffic_ref %.4f (se %.4f)" m_new
      m_ref (sqrt (v_new +. v_ref))

(* ---------- goldens: fixed-seed runs pinned field by field ---------- *)

(* Every stats field, floats in hex so the comparison is exact.  The
   Traffic_ref pin above only covers the BFS-routed policies; these
   pin the fast routers against values recorded from the engine
   itself. *)
let show_stats (s : Traffic.stats) =
  let f = Printf.sprintf "%h" in
  let fo = function None -> "none" | Some x -> f x in
  Printf.sprintf
    "sim_time=%s events=%d offered=%d served=%d blocked=%d blocked_full=%d \
     dropped=%d rerouted=%d rearranged=%d failures=%d repairs=%d \
     max_concurrent=%d occupancy=%s carried=%s measured_offered=%d \
     blocking=%s batch_blocking=[%s] degraded_at=%s catastrophe_at=%s"
    (f s.sim_time) s.events s.offered s.served s.blocked s.blocked_full
    s.dropped s.rerouted s.rearranged s.failures s.repairs s.max_concurrent
    (f s.occupancy) (f s.carried) s.measured_offered (f s.blocking)
    (String.concat ";" (Array.to_list (Array.map f s.batch_blocking)))
    (fo s.degraded_at) (fo s.catastrophe_at)

(* staged and loop agree field for field on this run *)
let golden_benes64 =
  "sim_time=0x1.3a5cfa5f23feap+5 events=861 offered=322 served=320 \
   blocked=2 blocked_full=0 dropped=8 rerouted=8 rearranged=0 \
   failures=118 repairs=111 max_concurrent=15 \
   occupancy=0x1.2061e1a5ec872p+3 carried=0x1.2a12dd905456p+3 \
   measured_offered=222 blocking=0x1.27350b8812735p-7 \
   batch_blocking=[0x1.47ae147ae147bp-7] degraded_at=none \
   catastrophe_at=0x1.3a5cfa5f23feap+5"

let test_golden_fast_routers () =
  let net = Benes.create 64 in
  List.iter
    (fun (name, policy) ->
      let config =
        Traffic.config ~load:8.0 ~mtbf:400.0 ~mttr:1.0 ~policy
          ~stop:(Traffic.Calls { warmup = 100; measured = 800 })
          ~batches:4 ()
      in
      let s = Traffic.run ~rng:(Rng.create ~seed:42) ~config net in
      Alcotest.(check string) (name ^ " stats") golden_benes64 (show_stats s))
    [ ("staged", Traffic.Route_staged); ("loop", Traffic.Route_loop) ]

let () =
  Alcotest.run "ftcsn_scale"
    [
      ( "dyn_conn",
        [
          Alcotest.test_case "oracle agreement on every family" `Quick
            test_dyn_conn_oracle;
          test_dyn_conn_qcheck;
          Alcotest.test_case "reopening a parallel edge keeps the class"
            `Quick test_reopen_parallel;
          Alcotest.test_case "self-loop close/reopen changes nothing" `Quick
            test_reopen_self_loop;
          Alcotest.test_case "reopening either path edge clears the short"
            `Quick test_reopen_path_clears_short;
          Alcotest.test_case "a second shorted class keeps the verdict"
            `Quick test_two_shorted_classes;
          Alcotest.test_case "close/reopen/query is allocation-free" `Quick
            test_dyn_conn_alloc_free;
        ] );
      ( "bit identity",
        [
          Alcotest.test_case "run = Traffic_ref.run on every family" `Quick
            test_bit_identity_run;
          Alcotest.test_case "saturated degradation runs" `Quick
            test_bit_identity_saturate;
          Alcotest.test_case "estimate = Traffic_ref.estimate at every jobs"
            `Quick test_bit_identity_estimate;
        ] );
      ( "equivalence",
        [
          Alcotest.test_case "blocking and failure rate agree with Traffic_ref"
            `Slow test_equivalence_blocking_and_rate;
          Alcotest.test_case "mean degradation time agrees with Traffic_ref"
            `Quick test_equivalence_degradation;
        ] );
      ( "goldens",
        [
          Alcotest.test_case "staged and loop runs on benes:64" `Quick
            test_golden_fast_routers;
        ] );
    ]
