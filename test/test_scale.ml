(* Tests for the million-switch scale layer: Dyn_conn incremental
   connectivity against batch oracles, Shard partitions, the
   single-shard bit-identity pin of the rewritten Traffic engine
   against the frozen Traffic_ref copy, and determinism/conservation of
   the sharded mode. *)

module Rng = Ftcsn_prng.Rng
module Digraph = Ftcsn_graph.Digraph
module Union_find = Ftcsn_util.Union_find
module Dyn_conn = Ftcsn_reliability.Dyn_conn
module Network = Ftcsn_networks.Network
module Topology = Ftcsn_networks.Topology
module Benes = Ftcsn_networks.Benes
module Shard = Ftcsn_des.Shard
module Traffic = Ftcsn_des.Traffic
module Traffic_ref = Ftcsn_des.Traffic_ref
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
  done;
  check (name ^ ": closed_count") !nclosed (Dyn_conn.closed_count dc)

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
  checkb "still shorted" true (Dyn_conn.terminals_shorted dc);
  check "closed_count" 2 (Dyn_conn.closed_count dc)

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

(* ---------- Shard partitions ---------- *)

let test_shard_partition () =
  let nets = registry_nets ~n:8 in
  List.iter
    (fun (name, net) ->
      let m = Digraph.edge_count net.Network.graph in
      let r = Shard.regions net in
      checkb (name ^ ": regions >= 1") true (r >= 1);
      List.iter
        (fun shards ->
          if shards <= r then begin
            let b = Shard.partition net ~shards in
            check (name ^ ": bytes per edge") m (Bytes.length b);
            let seen = Array.make shards 0 in
            for e = 0 to m - 1 do
              let s = Shard.shard_of b e in
              checkb (name ^ ": id in range") true (s >= 0 && s < shards);
              seen.(s) <- seen.(s) + 1
            done;
            Array.iteri
              (fun s c ->
                checkb (Printf.sprintf "%s: shard %d nonempty" name s) true
                  (c > 0))
              seen
          end)
        [ 1; 2; 3; 5 ];
      (match Shard.partition net ~shards:(r + 1) with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.failf "%s: shards > regions should be refused" name);
      match Shard.partition net ~shards:0 with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.fail "shards = 0 should be refused")
    nets

(* ---------- single-shard bit-identity against Traffic_ref ---------- *)

let test_bit_identity_run () =
  let nets = registry_nets ~n:16 in
  List.iter
    (fun (name, net) ->
      List.iter
        (fun (policy, seed) ->
          let config =
            Traffic.config ~load:4.0 ~mtbf:50.0 ~mttr:5.0 ~policy
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
    Traffic.config ~load:0.5 ~mtbf:30.0 ~mttr:3.0 ~saturate:true
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
    Traffic.config ~load:4.0 ~mtbf:50.0 ~mttr:5.0
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

(* ---------- sharded mode: determinism and conservation ---------- *)

let shard_config ~shards ~shard_jobs =
  Traffic.config ~load:2.0 ~mtbf:20.0 ~mttr:2.0 ~shards ~shard_jobs
    ~stop:(Traffic.Horizon 150.0) ()

let test_sharded_deterministic () =
  let net = Benes.create 16 in
  let r = Shard.regions net in
  checkb "benes:16 has several regions" true (r >= 2);
  let shards = min 3 r in
  let baseline =
    Traffic.run ~rng:(Rng.create ~seed:77)
      ~config:(shard_config ~shards ~shard_jobs:1)
      net
  in
  (* repeatable, and identical at every shard_jobs *)
  List.iter
    (fun shard_jobs ->
      let s =
        Traffic.run ~rng:(Rng.create ~seed:77)
          ~config:(shard_config ~shards ~shard_jobs)
          net
      in
      if s <> baseline then
        Alcotest.failf "sharded run diverged at shard_jobs=%d" shard_jobs)
    [ 1; 2; 4 ];
  (* and under the Trials fan-out, at every jobs *)
  let est jobs =
    Traffic.estimate ~jobs ~trials:4 ~rng:(Rng.create ~seed:78)
      ~config:(shard_config ~shards ~shard_jobs:2)
      net
  in
  let e1 = est 1 in
  List.iter
    (fun jobs ->
      if est jobs <> e1 then
        Alcotest.failf "sharded estimate diverged at jobs=%d" jobs)
    [ 2; 4 ]

let test_sharded_conservation () =
  let net = Benes.create 16 in
  let shards = min 3 (Shard.regions net) in
  let s =
    Traffic.run ~rng:(Rng.create ~seed:5)
      ~config:(shard_config ~shards ~shard_jobs:2)
      net
  in
  checkb "events happened" true (s.Traffic.events > 0);
  checkb "failures happened" true (s.Traffic.failures > 0);
  checkb "repairs happened" true (s.Traffic.repairs > 0);
  check "offered conserved" s.Traffic.offered
    (s.Traffic.served + s.Traffic.blocked);
  checkb "blocked_full within blocked" true
    (s.Traffic.blocked_full <= s.Traffic.blocked);
  checkb "rerouted within dropped" true
    (s.Traffic.rerouted <= s.Traffic.dropped);
  checkb "repairs within failures" true
    (s.Traffic.repairs <= s.Traffic.failures);
  checkb "occupancy positive" true (s.Traffic.occupancy > 0.0);
  (* the run spans the full horizon unless a closed-failure catastrophe
     (a legitimate outcome at this failure intensity) ended it early *)
  checkb "sim time reached horizon or catastrophe" true
    (s.Traffic.sim_time = 150.0 || s.Traffic.catastrophe_at <> None)

let test_sharded_refusal () =
  let net = Benes.create 16 in
  let r = Shard.regions net in
  let config = shard_config ~shards:(r + 1) ~shard_jobs:1 in
  (match Traffic.run ~rng:(Rng.create ~seed:1) ~config net with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "shards > regions should be refused by run");
  match Traffic.config ~shards:0 () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "config shards=0 should be refused"

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
      ( "shard",
        [ Alcotest.test_case "partition properties" `Quick test_shard_partition ] );
      ( "bit identity",
        [
          Alcotest.test_case "run = Traffic_ref.run on every family" `Quick
            test_bit_identity_run;
          Alcotest.test_case "saturated degradation runs" `Quick
            test_bit_identity_saturate;
          Alcotest.test_case "estimate = Traffic_ref.estimate at every jobs"
            `Quick test_bit_identity_estimate;
        ] );
      ( "sharded mode",
        [
          Alcotest.test_case "deterministic at every shard_jobs/jobs" `Quick
            test_sharded_deterministic;
          Alcotest.test_case "conservation laws" `Quick
            test_sharded_conservation;
          Alcotest.test_case "refuses shards > regions" `Quick
            test_sharded_refusal;
        ] );
    ]
