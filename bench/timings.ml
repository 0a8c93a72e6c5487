(* Bechamel micro-benchmarks: one Test.make per experiment kernel, so the
   cost of each reproduction building block is tracked alongside its
   correctness tables. *)

open Bechamel
open Toolkit
module Rng = Ftcsn_prng.Rng
module Network = Ftcsn_networks.Network
module Benes = Ftcsn_networks.Benes
module Digraph = Ftcsn_graph.Digraph

let ft_build =
  Test.make ~name:"e2/e3: build FT network (u=3 scaled)"
    (Staged.stage (fun () ->
         let rng = Rng.create ~seed:1 in
         ignore (Ftcsn.Ft_network.make ~rng (Ftcsn.Ft_params.scaled ~u:3 ()))))

let benes_looping =
  let benes = Benes.make 256 in
  let rng = Rng.create ~seed:2 in
  let pi = Rng.permutation rng 256 in
  Test.make ~name:"baseline: Benes looping route (n=256)"
    (Staged.stage (fun () -> ignore (Benes.route benes pi)))

let sc_probe =
  let benes = Benes.create 64 in
  let rng = Rng.create ~seed:3 in
  Test.make ~name:"e7: superconcentrator flow probe (benes-64)"
    (Staged.stage (fun () ->
         let r = 1 + Rng.int rng 64 in
         let s = Rng.sample_without_replacement rng ~n:64 ~k:r in
         let t = Rng.sample_without_replacement rng ~n:64 ~k:r in
         ignore
           (Ftcsn_routing.Flow_route.max_throughput benes ~input_indices:s
              ~output_indices:t)))

let fault_strip =
  let rng = Rng.create ~seed:4 in
  let ft = Ftcsn.Ft_network.make ~rng (Ftcsn.Ft_params.scaled ~u:3 ()) in
  let ws = Ftcsn.Fault_strip.create_ws ft.Ftcsn.Ft_network.net in
  let pattern = Ftcsn.Fault_strip.ws_pattern ws in
  Test.make ~name:"e6/e7: fault sample + strip (ft u=3)"
    (Staged.stage (fun () ->
         Ftcsn_reliability.Fault.sample_into rng ~eps_open:0.01
           ~eps_close:0.01 pattern;
         Ftcsn.Fault_strip.strip_into ws pattern))

let hammock_trial =
  let h = Ftcsn_reliability.Hammock.make ~rows:8 ~width:8 in
  let rng = Rng.create ~seed:5 in
  let sc = Ftcsn_reliability.Scratch.create h.Ftcsn_reliability.Hammock.graph in
  let pattern = Ftcsn_reliability.Scratch.pattern sc in
  Test.make ~name:"e1: hammock Monte-Carlo trial (8x8)"
    (Staged.stage (fun () ->
         Ftcsn_reliability.Fault.sample_into rng ~eps_open:0.05
           ~eps_close:0.05 pattern;
         ignore
           (Ftcsn_reliability.Survivor.connected_ignoring_opens_into sc pattern
              ~a:h.Ftcsn_reliability.Hammock.input
              ~b:h.Ftcsn_reliability.Hammock.output)))

let tree_extraction =
  let rng = Rng.create ~seed:6 in
  let tree = Ftcsn.Tree_paths.random_internal3_tree ~rng ~leaves:1000 in
  Test.make ~name:"e9: Lemma-1 path extraction (1000 leaves)"
    (Staged.stage (fun () -> ignore (Ftcsn.Tree_paths.short_leaf_paths tree)))

let zone_analysis =
  let rng = Rng.create ~seed:7 in
  let ft = Ftcsn.Ft_network.make ~rng (Ftcsn.Ft_params.scaled ~u:3 ()) in
  Test.make ~name:"e10: Theorem-1 zone analysis (ft u=3)"
    (Staged.stage (fun () ->
         ignore
           (Ftcsn.Lower_bound.analyse ~threshold:3 ~radius:1 ~max_inputs:8
              ft.Ftcsn.Ft_network.net)))

let structured_route =
  let rng = Rng.create ~seed:8 in
  let ft = Ftcsn.Ft_network.make ~rng (Ftcsn.Ft_params.scaled ~u:4 ()) in
  let plan = Ftcsn.Ft_route.plan ft in
  let pi = Rng.permutation rng 16 in
  Test.make ~name:"ft-route: structured permutation route (u=4)"
    (Staged.stage (fun () ->
         ignore
           (Ftcsn.Ft_route.route_permutation plan ~allowed:(fun _ -> true) pi)))

let bfs_route =
  let rng = Rng.create ~seed:9 in
  let ft = Ftcsn.Ft_network.make ~rng (Ftcsn.Ft_params.scaled ~u:4 ()) in
  let pi = Rng.permutation rng 16 in
  Test.make ~name:"ft-route: generic BFS permutation route (u=4)"
    (Staged.stage (fun () ->
         let r = Ftcsn_routing.Greedy.create ft.Ftcsn.Ft_network.net in
         let s = ref 0 in
         ignore (Ftcsn_routing.Greedy.route_permutation r pi ~success:s)))

let tests =
  [
    ft_build;
    structured_route;
    bfs_route;
    benes_looping;
    sc_probe;
    fault_strip;
    hammock_trial;
    tree_extraction;
    zone_analysis;
  ]

(* ------------------------------------------------------------------ *)
(* Engine throughput: wall-clock measurements of the Ftcsn_sim.Trials   *)
(* engine on representative Monte-Carlo sweeps, at several job counts.  *)
(* Emitted both as a printed table and as machine-readable               *)
(* BENCH_timings.json for tracking across commits.                      *)
(* ------------------------------------------------------------------ *)

type engine_sample = {
  bench : string;
  jobs : int;
  trials : int;
  seconds : float;  (** wall-clock time of the whole sweep *)
  rate : float;  (** trials per second *)
  chunks : int;  (** chunk dispatches the engine made *)
  worker_seconds : float;  (** on-domain chunk time, summed over workers *)
  overhead_seconds : float;
      (** wall time not explained by achievable parallel chunk execution:
          [seconds - worker_seconds / min jobs cores], i.e. worker
          dispatch, scheduling and result merging.  The divisor is capped
          at the core count because [jobs] beyond it cannot execute
          concurrently — on a 1-core host a jobs=2 run's ideal wall time
          is [worker_seconds], not [worker_seconds / 2], and dividing by
          [jobs] would book the missing hardware as engine overhead. *)
  pool_spawns : int;
      (** worker domains the persistent pool spawned during this sample;
          0 on every run whose [jobs] the pool has already reached *)
  pool_reused : bool;  (** [jobs > 1] with no spawn: the pool was warm *)
  extras : (string * Ftcsn_obs.Json.t) list;
      (** bench-specific extra metrics appended to the JSON record
          (e.g. the traffic engine's events/s and blocking CI width) *)
  minor_words_per_trial : float;
      (** minor-heap words allocated per trial on the scheduling domain.
          At [jobs=1] every chunk runs on the calling domain, so this is
          the exact per-trial allocation; at [jobs>1] it only covers the
          chunks the scheduler ran itself plus dispatch costs. *)
  promoted_words_per_trial : float;
      (** words promoted minor→major per trial, same caveat as above *)
}

let c_pool_spawns =
  Ftcsn_obs.Metrics.counter Ftcsn_obs.Metrics.default "trials.pool.spawns"

(* Each sweep runs with an in-memory trace sink attached; the engine's
   per-chunk events give the phase breakdown without touching the clock
   inside any trial. *)
let timed_once ~bench ~jobs ~trials f =
  let sink, drain = Ftcsn_obs.Trace.memory () in
  let sp0 = Ftcsn_obs.Counter.get c_pool_spawns in
  let mw0 = Gc.minor_words () in
  let pw0 = (Gc.quick_stat ()).Gc.promoted_words in
  let t0 = Unix.gettimeofday () in
  f ~jobs ~trials ~trace:sink;
  let seconds = Unix.gettimeofday () -. t0 in
  let minor_words = Gc.minor_words () -. mw0 in
  let promoted_words = (Gc.quick_stat ()).Gc.promoted_words -. pw0 in
  let pool_spawns = Ftcsn_obs.Counter.get c_pool_spawns - sp0 in
  Ftcsn_obs.Trace.close sink;
  let chunks = ref 0 in
  let busy_ns = ref 0 in
  List.iter
    (fun (_, ev) ->
      match ev with
      | Ftcsn_obs.Trace.Chunk { elapsed_ns; _ } ->
          incr chunks;
          busy_ns := !busy_ns + elapsed_ns
      | _ -> ())
    (drain ());
  let worker_seconds = float_of_int !busy_ns *. 1e-9 in
  let parallelism = min jobs (Domain.recommended_domain_count ()) in
  let overhead_seconds =
    Float.max 0.0 (seconds -. (worker_seconds /. float_of_int parallelism))
  in
  {
    bench;
    jobs;
    trials;
    seconds;
    rate = float_of_int trials /. seconds;
    chunks = !chunks;
    worker_seconds;
    overhead_seconds;
    pool_spawns;
    pool_reused = jobs > 1 && pool_spawns = 0;
    extras = [];
    minor_words_per_trial = minor_words /. float_of_int trials;
    promoted_words_per_trial = promoted_words /. float_of_int trials;
  }

(* Repeat each sweep [reps] times and report the fastest repetition —
   the standard defense against co-tenant load spikes on a shared host.
   Estimates are deterministic, so every repetition computes the same
   numbers; only the wall clock differs.  [pool_spawns] is summed over
   the repetitions: a spawn happens at most once per pool level no
   matter how often the sweep reruns, and folding it in keeps
   [pool_reused] meaning "this sample never had to spawn". *)
let timed ?(reps = 1) ~bench ~jobs ~trials f =
  let first = timed_once ~bench ~jobs ~trials f in
  let best = ref first in
  let spawns = ref first.pool_spawns in
  for _ = 2 to reps do
    let s = timed_once ~bench ~jobs ~trials f in
    spawns := !spawns + s.pool_spawns;
    if s.seconds < !best.seconds then best := s
  done;
  {
    !best with
    pool_spawns = !spawns;
    pool_reused = jobs > 1 && !spawns = 0;
  }

let engine_samples ?(quick = false) ~jobs_list () =
  let h = Ftcsn_reliability.Hammock.make ~rows:8 ~width:8 in
  let hammock_sweep ~jobs ~trials ~trace =
    let rng = Rng.create ~seed:42 in
    ignore
      (Ftcsn_reliability.Hammock.open_failure_prob ~jobs ~trace ~trials ~rng
         ~eps:0.05 h)
  in
  let benes = Benes.create 16 in
  let survival_sweep ~jobs ~trials ~trace =
    let rng = Rng.create ~seed:43 in
    ignore
      (Ftcsn.Pipeline.survival ~jobs ~trace ~trials ~rng ~eps:0.03
         ~probe:Ftcsn.Pipeline.sc_probe_only benes)
  in
  let hammock_trials = if quick then 6_000 else 60_000 in
  let survival_trials = if quick then 200 else 2_000 in
  (* Curve pair: one coupled 8-point sweep vs eight independent runs at
     the same per-point trial budget.  Same seed per point on the
     independent side, so both paths compute bit-identical estimates —
     the timing difference is purely the CRN sharing (one draw pass per
     trial) plus the monotone short-circuit once a trial dies. *)
  (* log-spaced over the rare-failure regime, where curves need their
     resolution: at small ε most trials flip no edge classification
     between neighbouring points, so the coupled sweep skips most of
     the per-point work that independent runs must repeat *)
  let curve_eps =
    Array.init 8 (fun k -> 1e-4 *. ((1e-1 /. 1e-4) ** (float_of_int k /. 7.)))
  in
  let curve_sweep ~jobs ~trials ~trace =
    let rng = Rng.create ~seed:44 in
    ignore
      (Ftcsn.Pipeline.survival_curve ~jobs ~trace ~trials ~rng ~eps:curve_eps
         ~probe:Ftcsn.Pipeline.sc_probe_only benes)
  in
  let independent_runs ~jobs ~trials ~trace =
    let per_point = trials / Array.length curve_eps in
    Array.iter
      (fun eps ->
        let rng = Rng.create ~seed:44 in
        ignore
          (Ftcsn.Pipeline.survival ~jobs ~trace ~trials:per_point ~rng ~eps
             ~probe:Ftcsn.Pipeline.sc_probe_only benes))
      curve_eps
  in
  let reps = if quick then 1 else 3 in
  (* explicit bindings pin the execution order to the listed order
     (OCaml evaluates list elements right-to-left), so the first jobs>1
     sample is the one that pays the pool spawn *)
  let per_jobs =
    List.concat_map
      (fun jobs ->
        let h =
          timed ~reps ~bench:"hammock-open-prob-8x8" ~jobs
            ~trials:hammock_trials hammock_sweep
        in
        let s =
          timed ~reps ~bench:"survival-benes-16" ~jobs ~trials:survival_trials
            survival_sweep
        in
        [ h; s ])
      jobs_list
  in
  let curve =
    timed ~reps ~bench:"survival-benes-16-curve-8pt" ~jobs:1
      ~trials:survival_trials curve_sweep
  in
  let independent =
    timed ~reps ~bench:"survival-benes-16-8runs" ~jobs:1
      ~trials:(8 * survival_trials) independent_runs
  in
  (* Continuous-time traffic engine (Ftcsn_des.Traffic): replications of
     a steady-state blocking estimate on benes-16 under offered load with
     mild failure/repair clocks.  Headline rates are events/s and
     offered calls/s rather than trials/s, plus the width of the pooled
     blocking CI the run buys. *)
  let traffic_last = ref None in
  let traffic_config =
    Ftcsn_des.Traffic.config ~load:8.0 ~mtbf:2000.0 ~mttr:5.0
      ~stop:(Ftcsn_des.Traffic.Calls { warmup = 200; measured = 2000 })
      ()
  in
  let traffic_sweep ~jobs ~trials ~trace =
    let rng = Rng.create ~seed:45 in
    traffic_last :=
      Some
        (Ftcsn_des.Traffic.estimate ~jobs ~trace ~trials ~rng
           ~config:traffic_config benes)
  in
  let traffic_trials = if quick then 4 else 16 in
  (* wall-clock upper bound on the deterministic router's share of a
     traffic sweep: total seconds over the number of route searches the
     run issued (arrivals that reached the router = offered minus
     system-full losses, plus one reroute attempt per severed call).
     An upper bound because the numerator also pays for event handling,
     fault clocks and statistics. *)
  let router_ns_extra t s =
    let calls =
      s.Ftcsn_des.Traffic.t_served
      + (s.Ftcsn_des.Traffic.t_blocked - s.Ftcsn_des.Traffic.t_blocked_full)
      + s.Ftcsn_des.Traffic.t_dropped
    in
    ( "router_ns_per_call",
      Ftcsn_obs.Json.Float
        (if calls = 0 then nan else t.seconds *. 1e9 /. float_of_int calls) )
  in
  let traffic =
    let t =
      timed ~reps ~bench:"traffic-benes-16" ~jobs:1 ~trials:traffic_trials
        traffic_sweep
    in
    match !traffic_last with
    | None -> t
    | Some s ->
        let open Ftcsn_obs.Json in
        let b = s.Ftcsn_des.Traffic.blocking in
        {
          t with
          extras =
            [
              ( "events_per_sec",
                Float (float_of_int s.Ftcsn_des.Traffic.t_events /. t.seconds)
              );
              ( "calls_per_sec",
                Float (float_of_int s.Ftcsn_des.Traffic.t_offered /. t.seconds)
              );
              ("blocking_mean", Float b.Ftcsn_des.Batch_means.mean);
              ( "blocking_ci_width",
                Float
                  (b.Ftcsn_des.Batch_means.ci_high
                  -. b.Ftcsn_des.Batch_means.ci_low) );
              ( "minor_words_per_event",
                Float
                  (t.minor_words_per_trial *. float_of_int t.trials
                  /. float_of_int s.Ftcsn_des.Traffic.t_events) );
              router_ns_extra t s;
            ];
        }
  in
  (* Live daemon (lib/serve): the full decision path a request pays in
     `ftnet serve --replay` — line-JSON parse, admission, one routing
     decision, response serialization — with failure/repair churn on.
     trials = call decisions, so trials/s is the daemon's decisions/s;
     the engine's own latency histogram supplies the per-decision p99. *)
  let serve_lines =
    let calls = if quick then 10_000 else 60_000 in
    Array.init calls (fun i ->
        if i mod 6 = 5 then
          Printf.sprintf {|{"req":"hangup","id":"c%d"}|} (i - 2)
        else
          Printf.sprintf {|{"req":"call","id":"c%d","at":%d.%02d}|} i (i / 20)
            (5 * (i mod 20)))
  in
  let serve_last = ref None in
  let serve_sweep ~jobs:_ ~trials ~trace:_ =
    let rng = Rng.create ~seed:49 in
    let eng =
      Ftcsn_serve.Engine.create ~engine:`Loop ~mtbf:50.0 ~mttr:2.0
        ~emit:(fun r -> ignore (Ftcsn_serve.Proto.response_to_string r))
        ~rng benes
    in
    let n_lines = Array.length serve_lines in
    let k = ref 0 in
    while Ftcsn_serve.Engine.decisions eng < trials do
      (match Ftcsn_serve.Proto.parse_request serve_lines.(!k mod n_lines) with
      | Ok req -> Ftcsn_serve.Engine.handle eng req
      | Error _ -> ());
      incr k
    done;
    serve_last := Some eng
  in
  let serve =
    let t =
      timed ~reps ~bench:"serve-benes-16" ~jobs:1
        ~trials:(if quick then 8_000 else 50_000)
        serve_sweep
    in
    match !serve_last with
    | None -> t
    | Some eng ->
        let open Ftcsn_obs.Json in
        let p99 =
          match
            Option.bind
              (member "decision_latency_ns"
                 (Ftcsn_serve.Engine.metrics_json eng))
              (member "p99")
          with
          | Some (Int v) -> v
          | _ -> 0
        in
        {
          t with
          extras =
            [
              ("decisions_per_sec", Float t.rate);
              ("p99_decision_ns", Int p99);
              ("live_calls", Int (Ftcsn_serve.Engine.live_calls eng));
            ];
        }
  in
  (* Million-switch scale row (the scale-layer headline): incremental
     Dyn_conn catastrophe checks and the Benes looping router (the
     realistic operating point at this size) on the largest Benes that
     fits the run budget.  Quick mode shrinks the network but keeps the
     row name: CI greps for it, and the [switches] extra records the
     honest size. *)
  let scale_n = if quick then 1_024 else 32_768 in
  let scale_net = Benes.create scale_n in
  let scale_switches = Network.size scale_net in
  let scale_horizon = if quick then 20.0 else 50.0 in
  let scale_config =
    Ftcsn_des.Traffic.config ~load:50.0 ~mtbf:1000.0 ~mttr:1.0
      ~policy:Ftcsn_des.Traffic.Route_loop
      ~stop:(Ftcsn_des.Traffic.Horizon scale_horizon) ()
  in
  let scale_last = ref None in
  let scale_sweep ~jobs ~trials ~trace =
    let rng = Rng.create ~seed:49 in
    scale_last :=
      Some
        (Ftcsn_des.Traffic.estimate ~jobs ~trace ~trials ~rng
           ~config:scale_config scale_net)
  in
  let scale =
    let t =
      timed ~reps:1 ~bench:"traffic-benes-1M" ~jobs:1 ~trials:1 scale_sweep
    in
    let open Ftcsn_obs.Json in
    let events =
      match !scale_last with
      | Some s -> s.Ftcsn_des.Traffic.t_events
      | None -> 0
    in
    {
      t with
      extras =
        [
          ("switches", Int scale_switches);
          ("n", Int scale_n);
          ("horizon", Float scale_horizon);
          ("events", Int events);
          ("events_per_sec", Float (float_of_int events /. t.seconds));
          ( "minor_words_per_event",
            Float
              (if events = 0 then nan
               else t.minor_words_per_trial /. float_of_int events) );
          ( "router",
            String (Ftcsn_des.Traffic.router_name scale_config scale_net) );
        ]
        @ (match !scale_last with
          | None -> []
          | Some s ->
              [
                ( "blocking_mean",
                  Float s.Ftcsn_des.Traffic.blocking.Ftcsn_des.Batch_means.mean
                );
                router_ns_extra t s;
              ]);
    }
  in
  (* Single-request routing micro-rows on the same million-switch Benes:
     route one random input->output request through a lightly faulted
     mask (~0.1% of switches down) and tear it down, repeatedly.  The
     stamped row is the masked-CSR BFS on the epoch-stamped arena — a
     near-full graph scan per call, and the reference the other rows'
     [speedup_vs_ref] divides by; the staged row is the level-bounded
     bidirectional search; the headline row is the Benes looping router.
     trials = routes, so trials/s is routes/s and minor_words_per_trial
     is words per route. *)
  let route_nv = Digraph.vertex_count scale_net.Network.graph in
  let route_m = Digraph.edge_count scale_net.Network.graph in
  let route_bad = Array.make route_m false in
  let () =
    let rng = Rng.create ~seed:51 in
    for _ = 1 to route_m / 1000 do
      route_bad.(Rng.int rng route_m) <- true
    done
  in
  let route_edge_ok e = not route_bad.(e) in
  let route_pairs =
    let rng = Rng.create ~seed:52 in
    Array.init 256 (fun _ ->
        ( scale_net.Network.inputs.(Rng.int rng scale_n),
          scale_net.Network.outputs.(Rng.int rng scale_n) ))
  in
  let route_buf = Array.make route_nv 0 in
  let route_row ~bench ~trials ~engine =
    let router =
      Ftcsn_routing.Greedy.create ~edge_ok:route_edge_ok ~engine scale_net
    in
    let sweep ~jobs:_ ~trials ~trace:_ =
      for k = 0 to trials - 1 do
        let i, o = route_pairs.(k land 255) in
        let len =
          Ftcsn_routing.Greedy.route_into router ~input:i ~output:o
            ~buf:route_buf
        in
        if len >= 0 then
          Ftcsn_routing.Greedy.release_buf router ~len route_buf
      done
    in
    let t = timed ~reps:1 ~bench ~jobs:1 ~trials sweep in
    let open Ftcsn_obs.Json in
    {
      t with
      extras =
        [
          ("switches", Int scale_switches);
          ("n", Int scale_n);
          ("routes_per_sec", Float t.rate);
          ("router", String (Ftcsn_routing.Greedy.engine_name router));
        ];
    }
  in
  let route_stamped =
    route_row ~bench:"route-benes-1M-stamped"
      ~trials:(if quick then 1_000 else 200)
      ~engine:`Bfs
  in
  let with_speedup t =
    let open Ftcsn_obs.Json in
    {
      t with
      extras = t.extras @ [ ("speedup_vs_ref", Float (t.rate /. route_stamped.rate)) ];
    }
  in
  let route_staged =
    with_speedup
      (route_row ~bench:"route-benes-1M-staged"
         ~trials:(if quick then 5_000 else 2_000)
         ~engine:`Staged)
  in
  let route_loop =
    with_speedup
      (route_row ~bench:"route-benes-1M"
         ~trials:(if quick then 20_000 else 100_000)
         ~engine:`Loop)
  in
  (* Rare-event pair: the cross-entropy-tilted estimator at the paper's
     eps = 1e-6 on benes-16, against a plain-MC sweep at the same eps
     whose only job is to price a Monte-Carlo trial.  Plain MC at 1e-6
     sees zero failures at any affordable trial count, so its relative
     error is priced analytically: RE_mc = sqrt((1-p)/(p·T)) with p the
     tilted estimate and T the trials plain MC executes in the tilted
     run's wall-clock budget.  The headline ratio (RE_mc/RE_is)^2 is the
     relative-error-per-second improvement: how many times longer plain
     MC would need to run for the same precision. *)
  let rare_last = ref None in
  let rare_sweep ~jobs ~trials ~trace =
    let rng = Rng.create ~seed:47 in
    let tilt =
      Ftcsn.Rare.tune_tilt ~iters:3 ~trials:500 ~trace ~rng ~eps:1e-6 benes
    in
    rare_last :=
      Some
        (Ftcsn.Rare.failure_tilted ~jobs ~trace ~trials ~rng ~eps:1e-6 ~tilt
           benes)
  in
  let mc_sweep ~jobs ~trials ~trace =
    let rng = Rng.create ~seed:48 in
    ignore
      (Ftcsn.Pipeline.survival ~jobs ~trace ~trials ~rng ~eps:1e-6
         ~probe:Ftcsn.Pipeline.sc_probe_only benes)
  in
  let rare_trials = if quick then 2_000 else 20_000 in
  let mc_price =
    timed ~reps ~bench:"mc-benes-16-eps1e-6" ~jobs:1
      ~trials:(if quick then 2_000 else 10_000)
      mc_sweep
  in
  let rare =
    let t =
      timed ~reps ~bench:"rare-benes-16" ~jobs:1 ~trials:rare_trials rare_sweep
    in
    match !rare_last with
    | None -> t
    | Some e ->
        let open Ftcsn_obs.Json in
        let module Sp = Ftcsn_reliability.Splitting in
        let p = e.Sp.mean and re_is = e.Sp.rel_err in
        let mc_trials_same_budget = mc_price.rate *. t.seconds in
        let re_mc = sqrt ((1.0 -. p) /. (p *. mc_trials_same_budget)) in
        {
          t with
          extras =
            [
              ("eps", Float 1e-6);
              ("mean", Float p);
              ("rel_err", Float re_is);
              ("variance_ratio", Float e.Sp.variance_ratio);
              ("mc_trials_per_sec", Float mc_price.rate);
              ("re_per_sec_improvement", Float ((re_mc /. re_is) ** 2.0));
            ];
        }
  in
  (* Tournament smoke: the whole topology registry raced once at small
     trial counts.  Tracks the wall-clock cost of the cross-family sweep
     (rate = families/s) and hands `bench --smoke` a grep-able
     tournament table. *)
  Ftcsn.Ft_topology.install ();
  let family_count = List.length (Ftcsn_networks.Topology.all ()) in
  let tournament_last = ref None in
  let tournament_sweep ~jobs ~trials:_ ~trace =
    tournament_last :=
      Some
        (Ftcsn.Tournament.run ~jobs ~trace
           ~trials:(if quick then 30 else 150)
           ~eps:[| 1e-3; 1e-2; 5e-2 |]
           ~traffic_trials:(if quick then 1 else 2)
           ~calls:(if quick then 200 else 800)
           ~warmup:(if quick then 50 else 100)
           ~n:8 ~seed:46 ())
  in
  let tournament =
    let t =
      timed ~reps:1 ~bench:"tournament-smoke" ~jobs:1 ~trials:family_count
        tournament_sweep
    in
    match !tournament_last with
    | None -> t
    | Some o ->
        let open Ftcsn_obs.Json in
        let entries = o.Ftcsn.Tournament.entries in
        {
          t with
          extras =
            [
              ("families", Int (List.length entries));
              ("skipped", Int (List.length o.Ftcsn.Tournament.skipped));
              ( "pareto_front",
                Int
                  (List.length
                     (List.filter
                        (fun e -> e.Ftcsn.Tournament.pareto)
                        entries)) );
            ];
        }
  in
  ( tournament_last,
    per_jobs
    @ [
        curve; independent; traffic; serve; scale;
        route_stamped; route_staged; route_loop; mc_price;
        rare; tournament;
      ] )

let write_json path samples =
  let open Ftcsn_obs.Json in
  let cores = Domain.recommended_domain_count () in
  let sample_json s =
    Obj
      ([
         ("name", String s.bench);
         ("jobs", Int s.jobs);
         ("trials", Int s.trials);
         ("seconds", Float s.seconds);
         ("trials_per_sec", Float s.rate);
         ("chunks", Int s.chunks);
         ("worker_seconds", Float s.worker_seconds);
         ("overhead_seconds", Float s.overhead_seconds);
         ("pool_spawns", Int s.pool_spawns);
         ("pool_reused", Bool s.pool_reused);
         ("minor_words_per_trial", Float s.minor_words_per_trial);
         ("promoted_words_per_trial", Float s.promoted_words_per_trial);
       ]
      (* a jobs>cores run cannot execute its domains concurrently; flag
         it so rate comparisons across hosts don't read the missing
         hardware as an engine regression *)
      @ (if s.jobs > cores then [ ("oversubscribed", Bool true) ] else [])
      @ s.extras)
  in
  let doc =
    Obj
      [
        ("cores", Int (Domain.recommended_domain_count ()));
        ("benchmarks", List (List.map sample_json samples));
      ]
  in
  let oc = open_out path in
  output_string oc (to_string doc);
  output_char oc '\n';
  close_out oc

let run_engine ?(quick = false) ?(json_path = "BENCH_timings.json") () =
  print_endline "== engine throughput (Ftcsn_sim.Trials, wall clock) ==";
  let jobs_list = if quick then [ 1; 2 ] else [ 1; 2; 4 ] in
  let tournament_outcome, samples = engine_samples ~quick ~jobs_list () in
  List.iter
    (fun s ->
      Printf.printf
        "%-28s jobs=%d %8d trials  %6.2fs  %10.0f trials/s  (%d chunks, \
         %.2fs busy, %.2fs overhead, %d spawns%s, %.1f minor w/trial, %.1f \
         promoted w/trial)\n"
        s.bench s.jobs s.trials s.seconds s.rate s.chunks s.worker_seconds
        s.overhead_seconds s.pool_spawns
        (if s.pool_reused then " [pool reused]" else "")
        s.minor_words_per_trial s.promoted_words_per_trial)
    samples;
  (* speedup of the hammock sweep vs jobs=1, the headline number *)
  (match
     ( List.find_opt (fun s -> s.bench = "hammock-open-prob-8x8" && s.jobs = 1) samples,
       List.find_opt (fun s -> s.bench = "hammock-open-prob-8x8" && s.jobs = 4) samples )
   with
  | Some s1, Some s4 ->
      Printf.printf "hammock sweep speedup at jobs=4: %.2fx (%d cores available)\n"
        (s4.rate /. s1.rate)
        (Domain.recommended_domain_count ())
  | _ -> ());
  (* traffic engine headline: events/s and calls/s, and how tight a
     blocking interval the run bought *)
  (match List.find_opt (fun s -> s.bench = "traffic-benes-16") samples with
  | Some t ->
      let f key =
        match List.assoc_opt key t.extras with
        | Some (Ftcsn_obs.Json.Float v) -> v
        | _ -> nan
      in
      Printf.printf
        "traffic-benes-16: %.0f events/s, %.0f calls/s, blocking %.4f (CI \
         width %.4f) over %d replications\n"
        (f "events_per_sec") (f "calls_per_sec") (f "blocking_mean")
        (f "blocking_ci_width") t.trials
  | None -> ());
  (* live-daemon headline: full parse->admit->route->serialize decisions/s *)
  (match List.find_opt (fun s -> s.bench = "serve-benes-16") samples with
  | Some t ->
      let p99 =
        match List.assoc_opt "p99_decision_ns" t.extras with
        | Some (Ftcsn_obs.Json.Int v) -> v
        | _ -> 0
      in
      Printf.printf
        "serve-benes-16: %.0f decisions/s end to end (p99 decision latency \
         %d ns)\n"
        t.rate p99
  | None -> ());
  (* scale-layer headline: the engine's event rate on the
     million-switch network *)
  (match List.find_opt (fun s -> s.bench = "traffic-benes-1M") samples with
  | Some t ->
      let f key =
        match List.assoc_opt key t.extras with
        | Some (Ftcsn_obs.Json.Float v) -> v
        | _ -> nan
      in
      let i key =
        match List.assoc_opt key t.extras with
        | Some (Ftcsn_obs.Json.Int v) -> v
        | _ -> 0
      in
      let router =
        match List.assoc_opt "router" t.extras with
        | Some (Ftcsn_obs.Json.String s) -> s
        | _ -> "?"
      in
      Printf.printf
        "traffic-benes-1M: %d switches, %d events in %.2fs = %.0f events/s \
         (%.1f minor w/event, router %s at <= %.0f ns/call)\n"
        (i "switches") (i "events") t.seconds (f "events_per_sec")
        (f "minor_words_per_event") router (f "router_ns_per_call")
  | None -> ());
  (* single-request routing headline: the Benes looping router against
     the stamped masked-CSR BFS on the same million-switch network *)
  (match
     ( List.find_opt (fun s -> s.bench = "route-benes-1M") samples,
       List.find_opt (fun s -> s.bench = "route-benes-1M-staged") samples )
   with
  | Some lp, Some st ->
      let f t key =
        match List.assoc_opt key t.extras with
        | Some (Ftcsn_obs.Json.Float v) -> v
        | _ -> nan
      in
      Printf.printf
        "route-benes-1M: loop router %.0f routes/s (%.0fx the stamped \
         masked-CSR BFS); staged bidirectional %.0f routes/s (%.1fx)\n"
        (f lp "routes_per_sec")
        (f lp "speedup_vs_ref")
        (f st "routes_per_sec")
        (f st "speedup_vs_ref")
  | _ -> ());
  (* rare-event headline: the tilted estimator's precision priced
     against plain MC in the same wall-clock budget *)
  (match List.find_opt (fun s -> s.bench = "rare-benes-16") samples with
  | Some t ->
      let f key =
        match List.assoc_opt key t.extras with
        | Some (Ftcsn_obs.Json.Float v) -> v
        | _ -> nan
      in
      Printf.printf
        "rare-benes-16: delta(1e-6) = %.3e (rel err %.3f) in %.2fs; plain MC \
         at %.0f trials/s would need %.0fx the time for the same precision\n"
        (f "mean") (f "rel_err") t.seconds (f "mc_trials_per_sec")
        (f "re_per_sec_improvement")
  | None -> ());
  (* coupled-curve speedup: one 8-point sweep vs 8 independent runs at
     the same per-point trial count (identical estimates either way) *)
  (match
     ( List.find_opt (fun s -> s.bench = "survival-benes-16-curve-8pt") samples,
       List.find_opt (fun s -> s.bench = "survival-benes-16-8runs") samples )
   with
  | Some c, Some r ->
      Printf.printf "survival curve (8pt) vs 8 independent runs: %.2fx faster\n"
        (r.seconds /. c.seconds)
  | _ -> ());
  (* the registry-wide reliability-per-edge race at smoke trial counts;
     printing it here puts a grep-able tournament table in `bench
     --smoke` output *)
  (match !tournament_outcome with
  | Some o -> Ftcsn_util.Table.print (Ftcsn.Tournament.to_table o)
  | None -> ());
  write_json json_path samples;
  Printf.printf "wrote %s\n\n" json_path;
  (* Regression guard (drives `bench --smoke` in CI): once one jobs>1
     sweep has run, every later jobs<=that run must reuse the warm pool
     rather than spawning fresh domains. *)
  if not (List.exists (fun s -> s.jobs > 1 && s.pool_reused) samples) then begin
    prerr_endline
      "bench: FAIL: no jobs>1 sample reused the persistent domain pool \
       (every parallel sweep spawned fresh domains)";
    exit 1
  end

let run () =
  run_engine ();
  print_endline "== timings (Bechamel, monotonic clock) ==";
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:None () in
  let instances = [ Instance.monotonic_clock ] in
  let ols =
    Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  List.iter
    (fun test ->
      let grouped = Test.make_grouped ~name:"g" [ test ] in
      let raw = Benchmark.all cfg instances grouped in
      let results = Analyze.all ols Instance.monotonic_clock raw in
      let clean name =
        match String.index_opt name '/' with
        | Some i -> String.sub name (i + 1) (String.length name - i - 1)
        | None -> name
      in
      Hashtbl.iter
        (fun name ols_result ->
          match Analyze.OLS.estimates ols_result with
          | Some [ est ] ->
              Printf.printf "%-48s %12.0f ns/run\n" (clean name) est
          | _ -> Printf.printf "%-48s (no estimate)\n" (clean name))
        results)
    tests;
  print_newline ()
