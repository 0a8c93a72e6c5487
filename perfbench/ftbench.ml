(* The ftnet benchmark.  One process runs one named workload with one
   seed, checks its outputs, and prints every metric by name and unit;
   the last line of stdout is one JSON object

     {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

   With --trace 0 the metrics are the end-to-end ones, measured with no
   tracing at all.  With --trace 1 the same work runs once untraced and
   once with in-memory spans around every public call, the layer probes
   replay the workload's network, routing engine, occupancy and fault
   density, and the metrics are the per-layer ones.

   Single process, single domain: jobs = 1 and shard_jobs = 1 throughout. *)

module Rng = Ftcsn_prng.Rng
module Topology = Ftcsn_networks.Topology
module Network = Ftcsn_networks.Network
module Digraph = Ftcsn_graph.Digraph
module Traffic = Ftcsn_des.Traffic
module Pipeline = Ftcsn.Pipeline
module Trace = Ftcsn_obs.Trace
module Engine = Ftcsn_serve.Engine

(* ---------- workloads ---------- *)

type kind = Churn | Calls | Serve | Survive

type scenario = {
  name : string;
  kind : kind;
  spec : string;  (** network, built from a fixed seed *)
  engine : Ftcsn_routing.Greedy.engine;
  load : float;  (** offered Erlangs (calls per unit time; unit holding) *)
  mtbf : float;
  mttr : float;
  eps : float;  (** switch failure density the layer probes replay *)
  setup_reps : int;
  (* run lengths *)
  horizon : float;  (** traffic-churn replication horizon *)
  check_horizon : float;  (** traffic-churn warm-up and determinism replication *)
  warmup : int;  (** traffic-calls warm-up calls per replication *)
  measured : int;  (** traffic-calls measured calls per replication *)
  window : int;  (** serve-replay requests per window *)
  trials : int;  (** survive-curve trials per curve *)
  trace_windows : int;  (** windows per phase of the traced run *)
}

let unavailability ~mtbf ~mttr = if mtbf = infinity then 0.0 else mttr /. (mtbf +. mttr)

let base =
  {
    name = "";
    kind = Churn;
    spec = "";
    engine = `Staged;
    load = 1.0;
    mtbf = infinity;
    mttr = 1.0;
    eps = 0.0;
    setup_reps = 9;
    horizon = 0.0;
    check_horizon = 0.0;
    warmup = 0;
    measured = 0;
    window = 0;
    trials = 0;
    trace_windows = 2;
  }

let scenario name ~smoke =
  match name with
  | "traffic-churn" ->
      let mtbf = 1000.0 and mttr = 1.0 in
      {
        base with
        name;
        kind = Churn;
        spec = (if smoke then "ft:64" else "ft:1024");
        mtbf;
        mttr;
        eps = unavailability ~mtbf ~mttr;
        setup_reps = (if smoke then 3 else 9);
        horizon = (if smoke then 20.0 else 60.0);
        check_horizon = (if smoke then 5.0 else 8.0);
        trace_windows = 2;
      }
  | "traffic-calls" ->
      {
        base with
        name;
        kind = Calls;
        spec = (if smoke then "ft:32" else "ft:128");
        load = (if smoke then 25.0 else 110.0);
        warmup = (if smoke then 50 else 200);
        measured = (if smoke then 200 else 800);
        trace_windows = 4;
      }
  | "serve-replay" ->
      let mtbf = 10000.0 and mttr = 1.0 in
      {
        base with
        name;
        kind = Serve;
        spec = (if smoke then "benes:256" else "benes:4096");
        engine = `Loop;
        load = (if smoke then 60.0 else 1000.0);
        mtbf;
        mttr;
        eps = unavailability ~mtbf ~mttr;
        window = (if smoke then 256 else 2048);
        trace_windows = 16;
      }
  | "survive-curve" ->
      {
        base with
        name;
        kind = Survive;
        spec = "ft:16";
        engine = `Bfs;
        load = 0.0;
        (* geometric middle of the ε grid *)
        eps = sqrt (1e-4 *. 1e-1);
        setup_reps = 31;
        trials = (if smoke then 4 else 16);
        trace_windows = 4;
      }
  | s -> invalid_arg ("unknown workload " ^ s)

let workloads = [ "traffic-churn"; "traffic-calls"; "serve-replay"; "survive-curve" ]

(* 8 log-spaced points from 1e-4 to 1e-1 *)
let eps_grid = Array.init 8 (fun i -> 1e-4 *. (10.0 ** (3.0 *. float_of_int i /. 7.0)))

(* ---------- result accumulation ---------- *)

type result = {
  mutable problems : string list;
  mutable attempted : int;
  mutable failed : int;
  mutable metrics : (string * float * string) list;
}

let res = { problems = []; attempted = 0; failed = 0; metrics = [] }

let problem fmt =
  Printf.ksprintf
    (fun s ->
      if not (List.mem s res.problems) then begin
        prerr_endline ("check failed: " ^ s);
        res.problems <- s :: res.problems
      end)
    fmt

let metric name unit v = res.metrics <- (name, v, unit) :: res.metrics

let print_result () =
  let b = Buffer.create 1024 in
  Buffer.add_string b
    (Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {"
       (res.problems = []) res.attempted res.failed);
  List.iteri
    (fun i (name, v, unit) ->
      let v = if Float.is_finite v then v else 0.0 in
      if i > 0 then Buffer.add_string b ", ";
      Buffer.add_string b
        (Printf.sprintf "\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}" name v unit))
    (List.rev res.metrics);
  Buffer.add_string b "}}";
  print_endline (Buffer.contents b)

(* ---------- shared pieces ---------- *)

let build_net spec =
  match Topology.build_string ~rng:(Rng.create ~seed:1) spec with
  | Ok b -> b.Topology.net
  | Error e -> failwith e

(* Median of [reps] back-to-back constructions of the network plus the
   workload's engine or workspace, each at the nominal pace; returns
   (setup_s, build_s, net, x). *)
let setup sc construct =
  let total = Array.make sc.setup_reps 0.0 in
  let build = Array.make sc.setup_reps 0.0 in
  let last = ref None in
  for i = 0 to sc.setup_reps - 1 do
    last := None;
    Gc.full_major ();
    let net, b_ns, b_scale = Pace.timed (fun () -> build_net sc.spec) in
    let x, c_ns, c_scale = Pace.timed (fun () -> construct net) in
    build.(i) <- b_ns *. b_scale *. 1e-9;
    total.(i) <- build.(i) +. (c_ns *. c_scale *. 1e-9);
    last := Some (net, x)
  done;
  Printf.printf "setup s:%s\n"
    (String.concat "" (Array.to_list (Array.map (Printf.sprintf " %.4g") total)));
  let net, x = Option.get !last in
  (Util.median total, Util.median build, net, x)

let delta_counters names f =
  let before = List.map Util.counter names in
  let w0 = Gc.minor_words () in
  let x = f () in
  let words = Gc.minor_words () -. w0 in
  let after = List.map Util.counter names in
  (x, words, List.map2 ( - ) after before)

let chunk_events events =
  List.filter_map
    (function _, Trace.Chunk { elapsed_ns; _ } -> Some elapsed_ns | _ -> None)
    events

type breakdown = {
  wall : float;
  rows : (string * float * string) list;
  rest : string;  (** what the unattributed remainder is known to hold *)
}

(* Print the per-layer time split; the rows plus the unattributed
   remainder sum to the traced wall time by construction.  A row marked
   "est." is not a measured self time but a count times a probe's median
   cost, so the remainder can go negative; that is flagged.  Returns the
   unattributed share. *)
let print_breakdown sc bd =
  let attributed = List.fold_left (fun a (_, s, _) -> a +. s) 0.0 bd.rows in
  let rest = bd.wall -. attributed in
  Printf.printf "breakdown %s: traced wall %.4f s\n" sc.name bd.wall;
  (* measured rows can overshoot by clock rounding only *)
  if rest < -1e-3 *. bd.wall then
    Printf.printf "  warning: the rows exceed the traced wall by %.4f s; the estimates overshoot\n"
      (-.rest);
  List.iter
    (fun (name, s, how) ->
      Printf.printf "  %-24s %10.4f s %6.1f%%  %s\n" name s
        (100.0 *. Util.ratio s bd.wall)
        how)
    (bd.rows @ [ ("unattributed", rest, "traced wall minus the rows above; " ^ bd.rest) ]);
  Util.ratio rest bd.wall

let spans_path = ref ""

let write_spans sp =
  if !spans_path <> "" then begin
    Spans.write_jsonl sp !spans_path;
    Printf.printf "spans: %d written to %s\n" (Spans.count sp) !spans_path
  end

(* ---------- layer probes shared by every traced run ---------- *)

type probes = {
  greedy : Probe.greedy;
  step_ns : float;
  heap_size : int;
  bootstrap_s : float;
  dyn : Probe.dyn;
  layers : Probe.survival;
}

let heap_size sc net =
  let m = Digraph.edge_count net.Network.graph in
  let calls = int_of_float (ceil sc.load) in
  if sc.mtbf = infinity then calls + 1 else m + calls + 1

(* wall time of each probe, printed so a slow probe is easy to spot *)
let probe_timed name f =
  let t0 = Util.now_ns () in
  let x = f () in
  Printf.printf "probe %-16s %8.3f s\n%!" name (Util.seconds_since t0);
  x

let run_probes sc net rng =
  let m = Digraph.edge_count net.Network.graph in
  let greedy =
    probe_timed "greedy" (fun () ->
        Probe.greedy ~engine:sc.engine ~live:(int_of_float sc.load) ~eps:sc.eps
          ~routes:20_000 ~budget_s:1.5 rng net)
  in
  let hs = heap_size sc net in
  let step_ns =
    probe_timed "clock" (fun () -> Probe.clock_step_ns ~heap_size:hs ~steps:400_000 rng)
  in
  let boot_cfg =
    Traffic.config ~load:(max sc.load 1.0) ~mtbf:sc.mtbf ~mttr:sc.mttr
      ~policy:Traffic.Route_staged ~stop:(Traffic.Horizon 1e-9) ()
  in
  let reps = if m > 1_000_000 then 1 else 3 in
  let bootstrap_s, _ =
    probe_timed "bootstrap" (fun () ->
        Util.median_time ~reps (fun () ->
            Traffic.run ~rng:(Rng.copy rng) ~config:boot_cfg net))
  in
  let closed = int_of_float (Float.round (float_of_int m *. sc.eps /. 2.0)) in
  let dyn = probe_timed "dyn_conn" (fun () -> Probe.dyn_conn ~closed ~ops:2000 rng net) in
  let layers =
    probe_timed "survival layers" (fun () ->
        Probe.survival_layers ~eps:sc.eps ~reps:15 ~budget_s:2.0 rng net)
  in
  { greedy; step_ns; heap_size = hs; bootstrap_s; dyn; layers }

let report_probes p =
  metric "greedy.route_ns_p50" "ns" p.greedy.Probe.route_ns_p50;
  metric "greedy.route_ns_p99" "ns" p.greedy.Probe.route_ns_p99;
  metric "greedy.route_words" "words" p.greedy.Probe.route_words;
  metric "greedy.no_path_ratio" "ratio" p.greedy.Probe.no_path_ratio;
  metric "clock.step_ns" "ns" p.step_ns;
  metric "clock.heap_size" "count" (float_of_int p.heap_size);
  metric "clock.bootstrap_s" "s" p.bootstrap_s;
  metric "dyn_conn.close_ns" "ns" p.dyn.Probe.close_ns;
  metric "dyn_conn.reopen_query_ns" "ns" p.dyn.Probe.reopen_query_ns;
  metric "fault.sample_ns" "ns" p.layers.Probe.sample_ns;
  metric "fault_strip.strip_ns" "ns" p.layers.Probe.strip_ns;
  metric "flow_route.probe_ns" "ns" p.layers.Probe.probe_ns

(* ---------- serve sessions ---------- *)

let serve_params sc =
  { Session.rate = sc.load; hangup_p = 0.05; metrics_every = 1000 }

let new_session ?tracer sc ~seed net =
  Session.create ?tracer ~engine_kind:sc.engine ~mtbf:sc.mtbf ~mttr:sc.mttr
    ~engine_seed:seed ~client_seed:(seed + 1_000_003) (serve_params sc) net

(* Engine and protocol metrics from a traced session of [requests]. *)
let report_session (s : Session.t) (tr : Session.tracer) ~requests =
  let q x p = Util.Samples.quantile x p in
  metric "engine.advance_ns_p50" "ns" (q tr.Session.advance_ns 0.5);
  metric "engine.advance_ns_p99" "ns" (q tr.Session.advance_ns 0.99);
  metric "engine.decide_ns_p50" "ns" (q tr.Session.decide_ns 0.5);
  metric "engine.decide_ns_p99" "ns" (q tr.Session.decide_ns 0.99);
  metric "engine.events_per_request" "count" (Util.iratio s.Session.events requests);
  metric "engine.words_per_request" "words"
    (tr.Session.engine_words /. float_of_int requests);
  metric "proto.parse_ns" "ns" (q tr.Session.parse_ns 0.5);
  metric "proto.parse_words" "words" (tr.Session.parse_words /. float_of_int requests);
  metric "proto.serialize_ns" "ns" (q tr.Session.serialize_ns 0.5);
  metric "proto.serialize_words" "words"
    (Util.ratio tr.Session.serialize_words
       (float_of_int (Util.Samples.length tr.Session.serialize_ns)));
  metric "proto.responses_per_request" "count"
    (Util.iratio s.Session.responses requests)

(* A short traced session on a non-serve workload's network, so the
   engine and protocol layers are measured there too. *)
let session_probe sc net ~seed ~budget_s =
  let sp = Spans.create () in
  let tr = Session.tracer sp in
  let sc' = { sc with load = max sc.load 1.0 } in
  let s = new_session ~tracer:tr sc' ~seed net in
  let t0 = Util.now_ns () in
  let n = ref 0 in
  while !n < 20 || (!n < 20_000 && Util.seconds_since t0 < budget_s) do
    ignore (Session.step_traced s tr);
    incr n
  done;
  Session.finish s;
  (match s.Session.problem with
  | Some p -> problem "%s probe session: %s" sc.name p
  | None -> ());
  report_session s tr ~requests:!n

let survivor_counters =
  [ "survivor.apply"; "survivor.shorted_by_closure"; "survivor.connected_ignoring_opens" ]

(* Pipeline.survival on the workload's network with a memory trace: the
   trial engine's chunk count and busy share, and the survivor-layer
   calls per trial. *)
let survival_probe sc net rng ~trials =
  let sink, events = Trace.memory () in
  let t0 = Util.now_ns () in
  let (_ : Ftcsn_reliability.Monte_carlo.estimate), _, d =
    delta_counters survivor_counters (fun () ->
        Pipeline.survival ~jobs:1 ~trace:sink ~trials ~rng ~eps:sc.eps
          ~probe:Pipeline.sc_probe_only net)
  in
  let wall = Util.seconds_since t0 in
  let chunks = chunk_events (events ()) in
  ( List.length chunks,
    Util.ratio (float_of_int (List.fold_left ( + ) 0 chunks) *. 1e-9) wall,
    Util.iratio (List.fold_left ( + ) 0 d) trials )

(* A short Traffic.run on a non-traffic workload's network, at its load
   and failure rate (survive-curve's ε as the switch unavailability), so
   the Traffic layer is measured there too, where it should stay flat. *)
let traffic_probe sc net rng =
  let mtbf = if sc.mtbf < infinity then sc.mtbf else sc.mttr *. (1.0 -. sc.eps) /. sc.eps in
  let policy = if sc.engine = `Loop then Traffic.Route_loop else Traffic.Route_staged in
  let cfg =
    Traffic.config ~load:(Float.max sc.load 1.0) ~mtbf ~mttr:sc.mttr ~policy
      ~stop:(Traffic.Calls { warmup = 0; measured = 2000 })
      ~shards:1 ~shard_jobs:1 ()
  in
  let w0 = Gc.minor_words () in
  let s = Traffic.run ~rng ~config:cfg net in
  let words = Gc.minor_words () -. w0 in
  metric "traffic.words_per_event" "words" (words /. float_of_int s.events);
  metric "traffic.failures_per_event" "count" (Util.iratio s.failures s.events);
  metric "traffic.reroutes_per_failure" "count" (Util.iratio s.rerouted s.failures)

let report_trials ~chunks ~busy ~survivor_calls =
  metric "trials.busy_share" "ratio" busy;
  metric "trials.chunks" "count" (float_of_int chunks);
  metric "survivor.calls_per_trial" "count" survivor_calls

(* One timed window: [ops] ops in [busy_s] seconds at the nominal pace
   ([raw_s] as measured), and each op's time in ns at the nominal pace
   when ops are timed one by one (otherwise [||]). *)
type window = { ops : int; busy_s : float; raw_s : float; op_ns : float array }

let rate w = float_of_int w.ops /. w.busy_s

(* The end-to-end metrics come from the timed windows.  Throughput is
   their median rate.  The latencies are quantiles of every op time of
   every window, kept in a fixed-size histogram so the memory the
   benchmark adds stays small and does not grow with the run; where ops
   are not timed one by one, both are the mean op time at the median
   rate. *)
type windows = {
  mutable rates : float list;  (** every window's rate, newest first *)
  mutable raw_rates : float list;  (** the same as measured *)
  hist : Util.Loghist.t;  (** every op time *)
}

(* Timed windows 1, 2, ... for about [seconds]: at least [min_windows],
   and no new one once the last one's length would run past the end.
   Window 0, the warm-up, runs before. *)
let timed_windows ~seconds ~min_windows f =
  let ws = { rates = []; raw_rates = []; hist = Util.Loghist.create () } in
  let t0 = Util.now_ns () in
  let w = ref 1 and last = ref 0.0 in
  while !w <= min_windows || Util.seconds_since t0 +. !last < seconds do
    let t = Util.now_ns () in
    let x = f !w in
    last := Util.seconds_since t;
    ws.rates <- rate x :: ws.rates;
    ws.raw_rates <- (float_of_int x.ops /. x.raw_s) :: ws.raw_rates;
    Array.iter (Util.Loghist.add ws.hist) x.op_ns;
    incr w
  done;
  ws

let report_end_to_end ws ~setup_s =
  let rates = Array.of_list (List.rev ws.rates) in
  let raw = Array.of_list (List.rev ws.raw_rates) in
  Printf.printf "windows %d, op/s at the nominal pace:%s\n" (Array.length rates)
    (String.concat "" (Array.to_list (Array.map (Printf.sprintf " %.4g") rates)));
  Printf.printf "median op/s as measured %.4g, at the nominal pace %.4g (pace kernel %.1f us)\n"
    (Util.median raw) (Util.median rates) (Pace.mean_us ());
  let tput = Util.median rates in
  let lat p =
    if ws.hist.Util.Loghist.n > 0 then Util.Loghist.quantile ws.hist p *. 1e-3 else 1e6 /. tput
  in
  metric "throughput" "op/s" tput;
  metric "setup_s" "s" setup_s;
  metric "peak_rss_mb" "MB" (Util.peak_rss_mb ());
  metric "p50_us" "us" (lat 0.5);
  metric "p99_us" "us" (lat 0.99)

(* The digest of window 0's outputs.  The untraced and traced runs of one
   seed print the same line, so run.py can compare them across
   processes. *)
let digest_line sc ~seed d =
  Printf.printf "digest %s seed=%d %s\n" sc.name seed (Digest.to_hex d)

(* ---------- traffic-churn, traffic-calls ---------- *)

type tstats = {
  events : int;
  offered : int;
  served : int;
  blocked : int;
  blocked_full : int;
  dropped : int;
  rerouted : int;
  failures : int;
  repairs : int;
  sim_time : float;
  occupancy : float;
  carried : float;
  catastrophe : bool;
}

let of_stats (s : Traffic.stats) =
  {
    events = s.events;
    offered = s.offered;
    served = s.served;
    blocked = s.blocked;
    blocked_full = s.blocked_full;
    dropped = s.dropped;
    rerouted = s.rerouted;
    failures = s.failures;
    repairs = s.repairs;
    sim_time = s.sim_time;
    occupancy = s.occupancy;
    carried = s.carried;
    catastrophe = s.catastrophe_at <> None;
  }

let of_summary (s : Traffic.summary) =
  {
    events = s.t_events;
    offered = s.t_offered;
    served = s.t_served;
    blocked = s.t_blocked;
    blocked_full = s.t_blocked_full;
    dropped = s.t_dropped;
    rerouted = s.t_rerouted;
    failures = s.t_failures;
    repairs = s.t_repairs;
    sim_time = s.t_sim_time;
    occupancy = s.occupancy;
    carried = s.carried;
    catastrophe = s.catastrophes > 0;
  }

let tstats_line t =
  Printf.sprintf "%d %d %d %d %d %d %d %d %d %s %s %s %b" t.events t.offered
    t.served t.blocked t.blocked_full t.dropped t.rerouted t.failures t.repairs
    (Util.float_bits t.sim_time) (Util.float_bits t.occupancy)
    (Util.float_bits t.carried) t.catastrophe

(* the paper's nonblocking violations plus lost calls *)
let traffic_failed t = t.blocked - t.blocked_full + (t.dropped - t.rerouted)

(* Little's law: time-average occupancy against carried load λ·W̄ over
   the measured window of length T = measured / λ.  The two differ by
   the residual holding of the calls live at either end of the window,
   whose standard deviation is about 2·sqrt(L)/T; allow five of them. *)
let little_tolerance sc t = 10.0 *. sqrt t.carried *. sc.load /. float_of_int sc.measured

let check_traffic sc w t =
  if t.offered <> t.served + t.blocked then
    problem "%s window %d: offered %d <> served %d + blocked %d" sc.name w
      t.offered t.served t.blocked;
  if t.rerouted > t.dropped then
    problem "%s window %d: rerouted %d > dropped %d" sc.name w t.rerouted t.dropped;
  if sc.kind = Churn && t.catastrophe then problem "%s window %d: catastrophe" sc.name w;
  if sc.kind = Calls
     && Float.abs (t.occupancy -. t.carried) > little_tolerance sc t
  then
    problem "%s window %d: Little's law: occupancy %.3f vs carried %.3f" sc.name
      w t.occupancy t.carried

let traffic_config sc =
  let stop =
    match sc.kind with
    | Churn -> Traffic.Horizon sc.horizon
    | _ -> Traffic.Calls { warmup = sc.warmup; measured = sc.measured }
  in
  Traffic.config ~load:sc.load ~mtbf:sc.mtbf ~mttr:sc.mttr
    ~policy:Traffic.Route_staged ~stop ~shards:1 ~shard_jobs:1 ()

let run_traffic sc ~seed ~seconds ~trace =
  let cfg = traffic_config sc in
  let setup_s, build_s, net, _ = setup sc (fun net -> Traffic.router_name cfg net) in
  let root = Rng.create ~seed in
  (* replication w runs on substream 0 of window stream w, which is
     exactly the replication [Traffic.estimate ~trials:1] runs on it *)
  let window ?(cfg = cfg) w =
    let t0 = Util.now_ns () in
    let t =
      of_stats (Traffic.run ~rng:(Rng.substream (Rng.substream root w) 0) ~config:cfg net)
    in
    let wall = Util.seconds_since t0 in
    check_traffic sc w t;
    (t, wall)
  in
  let count t =
    res.attempted <- res.attempted + t.events;
    res.failed <- res.failed + traffic_failed t
  in
  (* window 0, the warm-up and the digest: on traffic-churn a shorter
     replication, so running it twice stays cheap *)
  let check_cfg =
    if sc.kind = Churn then traffic_config { sc with horizon = sc.check_horizon } else cfg
  in
  let first, _ = window ~cfg:check_cfg 0 in
  digest_line sc ~seed (Digest.string (tstats_line first));
  if not trace then begin
    let windows =
      timed_windows ~seconds ~min_windows:3 (fun w ->
          (* the last window's O(m) state is garbage by now; collecting
             it first keeps peak_rss_mb to one replication's worth *)
          Gc.full_major ();
          let (t, _), ns, scale = Pace.timed (fun () -> window w) in
          count t;
          { ops = t.events; busy_s = ns *. scale *. 1e-9; raw_s = ns *. 1e-9; op_ns = [||] })
    in
    let again, _ = window ~cfg:check_cfg 0 in
    if tstats_line again <> tstats_line first then
      problem "%s: window 0 differs between two runs of one seed" sc.name;
    report_end_to_end windows ~setup_s
  end
  else begin
    let k = sc.trace_windows in
    let untraced = Array.init k (fun w -> window (w + 1)) in
    let sp = Spans.create () in
    let n_rep = Spans.intern sp "traffic.replication" in
    let n_chunk = Spans.intern sp "trials.chunk" in
    let t_phase = Util.now_ns () in
    let traced, words, d =
      delta_counters [ "greedy.search"; "dyn_conn.rebuilds" ] (fun () ->
          Array.init k (fun w ->
              let sink, events = Trace.memory () in
              let i = Spans.enter sp n_rep ~req:(w + 1) in
              let s =
                Traffic.estimate ~jobs:1 ~trace:sink ~trials:1
                  ~rng:(Rng.substream root (w + 1)) ~config:cfg net
              in
              Spans.leave sp i;
              List.iter
                (fun ns -> Spans.add_child sp n_chunk ~parent:i ~dur_ns:ns ~stop:sp.Spans.stop.(i))
                (chunk_events (events ()));
              of_summary s))
    in
    let wall = Util.seconds_since t_phase in
    Array.iteri
      (fun w t ->
        check_traffic sc (w + 1) t;
        if tstats_line t <> tstats_line (fst untraced.(w)) then
          problem "%s window %d: traced and untraced runs differ" sc.name (w + 1))
      traced;
    Array.iter (fun (t, _) -> count t) untraced;
    Array.iter count traced;
    let sum f = Array.fold_left (fun a t -> a + f t) 0 traced in
    let events = sum (fun t -> t.events) in
    let failures = sum (fun t -> t.failures) in
    let rerouted = sum (fun t -> t.rerouted) in
    let searches, rebuilds = match d with [ a; b ] -> (a, b) | _ -> assert false in
    let rep_ns = Spans.durations sp "traffic.replication" in
    let untraced_rate = Util.median (Array.map (fun (t, s) -> float_of_int t.events /. s) untraced) in
    let traced_rate =
      Util.median (Array.mapi (fun w t -> float_of_int t.events /. (rep_ns.(w) *. 1e-9)) traced)
    in
    let p = run_probes sc net (Rng.create ~seed:(seed + 17)) in
    let rep_total = Spans.total sp "traffic.replication" in
    let chunk_total = Spans.total sp "trials.chunk" in
    let g = p.greedy.Probe.route_ns_p50 *. 1e-9 in
    let unattributed =
      print_breakdown sc
        {
          wall;
          rows =
            [
              ( "bench",
                wall -. rep_total,
                "span bookkeeping and output checks between replications" );
              ("trials engine", rep_total -. chunk_total, "Traffic.estimate outside its trial chunk");
              ( "clock bootstrap est.",
                float_of_int k *. p.bootstrap_s,
                Printf.sprintf "%d replications x Traffic.run to t=1e-9 (%.4f s)" k p.bootstrap_s );
              ( "clock steps est.",
                float_of_int events *. p.step_ns *. 1e-9,
                Printf.sprintf "%d events x heap step %.1f ns" events p.step_ns );
              ( "greedy est.",
                float_of_int searches *. g,
                Printf.sprintf "%d searches x route p50 %.0f ns" searches
                  p.greedy.Probe.route_ns_p50 );
              (* half the failures are closed ones, which reach Dyn_conn;
                 a repair costs little until the next query rebuilds *)
              ( "dyn_conn est.",
                ((0.5 *. float_of_int failures *. p.dyn.Probe.close_ns)
                +. (float_of_int rebuilds *. p.dyn.Probe.reopen_query_ns))
                *. 1e-9,
                Printf.sprintf "half of %d failures x close + %d rebuilds x reopen+query"
                  failures rebuilds );
            ];
          rest = "event dispatch, call store, sever/reroute bookkeeping";
        }
    in
    write_spans sp;
    metric "topology.build_s" "s" build_s;
    metric "greedy.searches_per_op" "count" (Util.iratio searches events);
    report_probes p;
    metric "dyn_conn.rebuilds_per_event" "count" (Util.iratio rebuilds events);
    metric "traffic.words_per_event" "words" (words /. float_of_int events);
    metric "traffic.failures_per_event" "count" (Util.iratio failures events);
    metric "traffic.reroutes_per_failure" "count" (Util.iratio rerouted failures);
    metric "traffic.unattributed_share" "ratio" unattributed;
    probe_timed "session" (fun () -> session_probe sc net ~seed ~budget_s:1.5);
    let _, _, survivor_calls =
      probe_timed "survival" (fun () ->
          survival_probe sc net (Rng.create ~seed:(seed + 23))
            ~trials:(if Digraph.edge_count net.Network.graph > 1_000_000 then 1 else 4))
    in
    report_trials ~chunks:(List.length (Array.to_list (Spans.durations sp "trials.chunk")))
      ~busy:(Util.ratio chunk_total rep_total) ~survivor_calls;
    metric "trace.overhead" "ratio" (Util.ratio untraced_rate traced_rate -. 1.0)
  end

(* ---------- serve-replay ---------- *)

let run_serve sc ~seed ~seconds ~trace =
  let setup_s, build_s, net, first = setup sc (fun net -> new_session sc ~seed net) in
  let win = sc.window in
  let session_problem (s : Session.t) =
    match s.Session.problem with Some p -> problem "%s: %s" sc.name p | None -> ()
  in
  (* the digest after the first [n] requests of a fresh session *)
  let reference n =
    let s = new_session sc ~seed net in
    for _ = 1 to n do
      ignore (Session.step s)
    done;
    session_problem s;
    Session.digest s
  in
  if not trace then begin
    let s = first in
    let times = Array.make win 0.0 in
    (* the pace kernel runs between requests, every [pace_every] of them *)
    let pace_every = 512 in
    let run_window () =
      Pace.reset ();
      Pace.sample ();
      for i = 0 to win - 1 do
        times.(i) <- float_of_int (Session.step s);
        if (i + 1) mod pace_every = 0 then Pace.sample ()
      done;
      let raw = Array.fold_left ( +. ) 0.0 times in
      let scale = Pace.scale () in
      Array.iteri (fun i t -> times.(i) <- t *. scale) times;
      raw
    in
    ignore (run_window ());
    let d0 = Session.digest s in
    let failed0 = Session.failed_ops s in
    (* [times] is read into the histogram before the next window *)
    let windows =
      timed_windows ~seconds ~min_windows:5 (fun _ ->
          let raw = run_window () in
          res.attempted <- res.attempted + win;
          {
            ops = win;
            busy_s = Array.fold_left ( +. ) 0.0 times *. 1e-9;
            raw_s = raw *. 1e-9;
            op_ns = times;
          })
    in
    res.failed <- Session.failed_ops s - failed0;
    Session.finish s;
    session_problem s;
    if reference win <> d0 then
      problem "%s: first window differs between two sessions of one seed" sc.name;
    digest_line sc ~seed d0;
    Printf.printf "outcomes: %d requests, %d block:no_path, %d dropped, %d error\n"
      s.Session.sent s.Session.no_path s.Session.dropped s.Session.errors;
    report_end_to_end windows ~setup_s
  end
  else begin
    let n = sc.trace_windows * win in
    (* untraced phase *)
    let s = first in
    let rates = Util.Samples.create () in
    for w = 1 to sc.trace_windows do
      let busy = ref 0 in
      for _ = 1 to win do
        busy := !busy + Session.step s
      done;
      if w = 1 then digest_line sc ~seed (Session.digest s);
      Util.Samples.add rates (float_of_int win /. (float_of_int !busy *. 1e-9))
    done;
    let d_untraced = Session.digest s in
    session_problem s;
    res.attempted <- res.attempted + n;
    res.failed <- res.failed + Session.failed_ops s;
    (* traced phase: a fresh session from the same seeds *)
    let sp = Spans.create () in
    let tr = Session.tracer sp in
    let s = new_session ~tracer:tr sc ~seed net in
    let t_rates = Util.Samples.create () in
    let t_phase = Util.now_ns () in
    let (), _, d =
      delta_counters [ "greedy.search"; "dyn_conn.rebuilds" ] (fun () ->
          for _ = 1 to sc.trace_windows do
            let busy = ref 0 in
            for _ = 1 to win do
              busy := !busy + Session.step_traced s tr
            done;
            Util.Samples.add t_rates (float_of_int win /. (float_of_int !busy *. 1e-9))
          done)
    in
    let wall = Util.seconds_since t_phase in
    if Session.digest s <> d_untraced then
      problem "%s: traced and untraced sessions differ" sc.name;
    res.attempted <- res.attempted + n;
    res.failed <- res.failed + Session.failed_ops s;
    Session.finish s;
    session_problem s;
    let searches, rebuilds = match d with [ a; b ] -> (a, b) | _ -> assert false in
    let self = Spans.self_times sp in
    let self_of name = try List.assoc name self with Not_found -> 0.0 in
    let unattributed =
      print_breakdown sc
        {
          wall;
          rows =
            [
              ("client", wall -. Spans.total sp "serve.request", "request generation and response checks");
              ("request glue", self_of "serve.request", "serve.request self time");
              ("proto.parse", self_of "proto.parse", "Proto.parse_request");
              ("engine.advance", self_of "engine.advance", "Engine.advance to the parsed at");
              ("engine.decide", self_of "engine.decide", "Engine.handle after the advance");
              ("proto.serialize", self_of "proto.serialize", "Proto.response_to_string in emit");
            ];
          rest = "clock reads between spans";
        }
    in
    write_spans sp;
    let p = run_probes sc net (Rng.create ~seed:(seed + 17)) in
    metric "topology.build_s" "s" build_s;
    metric "greedy.searches_per_op" "count" (Util.iratio searches n);
    report_probes p;
    metric "dyn_conn.rebuilds_per_event" "count" (Util.iratio rebuilds n);
    probe_timed "traffic" (fun () -> traffic_probe sc net (Rng.create ~seed:(seed + 29)));
    metric "traffic.unattributed_share" "ratio" unattributed;
    report_session s tr ~requests:n;
    let chunks, busy, survivor_calls =
      survival_probe sc net (Rng.create ~seed:(seed + 23)) ~trials:4
    in
    report_trials ~chunks ~busy ~survivor_calls;
    metric "trace.overhead" "ratio"
      (Util.ratio (Util.Samples.quantile rates 0.5) (Util.Samples.quantile t_rates 0.5) -. 1.0)
  end

(* ---------- survive-curve ---------- *)

let run_survive sc ~seed ~seconds ~trace =
  let setup_s, build_s, net, _ = setup sc (fun net -> Pipeline.create_ws net) in
  let root = Rng.create ~seed in
  let curve ?trace w =
    Pipeline.survival_curve ~jobs:1 ?trace ~trials:sc.trials
      ~rng:(Rng.substream root w) ~eps:eps_grid ~probe:Pipeline.sc_probe_only net
  in
  let line est =
    String.concat " "
      (Array.to_list
         (Array.map
            (fun (e : Ftcsn_reliability.Monte_carlo.estimate) ->
              Printf.sprintf "%d/%d" e.successes e.trials)
            est))
  in
  (* a window's trials all count as failed when one of its checks fails *)
  let check w est =
    let before = List.length res.problems in
    Array.iteri
      (fun k (e : Ftcsn_reliability.Monte_carlo.estimate) ->
        if not (e.ci_low <= e.mean && e.mean <= e.ci_high) then
          problem "%s window %d: point %d outside its own interval" sc.name w k;
        if e.trials <> sc.trials then
          problem "%s window %d: point %d ran %d trials" sc.name w k e.trials)
      est;
    if List.length res.problems > before then res.failed <- res.failed + sc.trials
  in
  (* one grid point must equal an independent Pipeline.survival run *)
  let independent est0 =
    let k = seed land 7 in
    let e =
      Pipeline.survival ~jobs:1 ~trials:sc.trials ~rng:(Rng.substream root 0)
        ~eps:eps_grid.(k) ~probe:Pipeline.sc_probe_only net
    in
    if e.successes <> est0.(k).Ftcsn_reliability.Monte_carlo.successes
       || e.trials <> est0.(k).Ftcsn_reliability.Monte_carlo.trials
    then problem "%s: grid point %d differs from an independent survival run" sc.name k
  in
  if not trace then begin
    let est0 = curve 0 in
    check 0 est0;
    independent est0;
    let windows =
      timed_windows ~seconds ~min_windows:5 (fun w ->
          let est, ns, scale = Pace.timed (fun () -> curve w) in
          check w est;
          res.attempted <- res.attempted + sc.trials;
          { ops = sc.trials; busy_s = ns *. scale *. 1e-9; raw_s = ns *. 1e-9; op_ns = [||] })
    in
    if line (curve 0) <> line est0 then
      problem "%s: window 0 differs between two runs of one seed" sc.name;
    digest_line sc ~seed (Digest.string (line est0));
    report_end_to_end windows ~setup_s
  end
  else begin
    let k = sc.trace_windows in
    let untraced =
      Array.init k (fun w ->
          let t0 = Util.now_ns () in
          let est = curve w in
          (est, Util.seconds_since t0))
    in
    independent (fst untraced.(0));
    digest_line sc ~seed (Digest.string (line (fst untraced.(0))));
    let sp = Spans.create () in
    let n_curve = Spans.intern sp "pipeline.survival_curve" in
    let n_chunk = Spans.intern sp "trials.chunk" in
    let t_phase = Util.now_ns () in
    let traced, _, d =
      delta_counters ("greedy.search" :: "dyn_conn.rebuilds" :: survivor_counters) (fun () ->
          Array.init k (fun w ->
              let sink, events = Trace.memory () in
              let i = Spans.enter sp n_curve ~req:w in
              let est = curve ~trace:sink w in
              Spans.leave sp i;
              List.iter
                (fun ns -> Spans.add_child sp n_chunk ~parent:i ~dur_ns:ns ~stop:sp.Spans.stop.(i))
                (chunk_events (events ()));
              est))
    in
    let wall = Util.seconds_since t_phase in
    Array.iteri
      (fun w est ->
        check w est;
        if line est <> line (fst untraced.(w)) then
          problem "%s window %d: traced and untraced runs differ" sc.name w)
      traced;
    let trials = k * sc.trials in
    res.attempted <- res.attempted + (2 * trials);
    let searches, rebuilds, survivor_calls =
      match d with
      | a :: b :: rest -> (a, b, List.fold_left ( + ) 0 rest)
      | _ -> assert false
    in
    let strips = List.nth d 2 in
    let p = run_probes sc net (Rng.create ~seed:(seed + 17)) in
    let curve_total = Spans.total sp "pipeline.survival_curve" in
    let chunk_total = Spans.total sp "trials.chunk" in
    let l = p.layers in
    let unattributed =
      print_breakdown sc
        {
          wall;
          rows =
            [
              ("bench", wall -. curve_total, "span bookkeeping and output checks between curves");
              ("trials engine", curve_total -. chunk_total, "survival_curve outside its trial chunk");
              ( "fault est.",
                float_of_int trials *. l.Probe.sample_ns *. 1e-9,
                Printf.sprintf "%d trials x sample %.0f ns" trials l.Probe.sample_ns );
              ( "fault_strip est.",
                float_of_int strips *. l.Probe.strip_ns *. 1e-9,
                Printf.sprintf "%d survivor applications x strip %.0f ns" strips
                  l.Probe.strip_ns );
            ];
          rest =
            Printf.sprintf
              "includes the flow probes (up to %d per healthy strip, %.0f ns each), \
               whose count is not observable from outside"
              Pipeline.sc_probe_only.Pipeline.sc_probes l.Probe.probe_ns;
        }
    in
    write_spans sp;
    let untraced_rate =
      Util.median (Array.map (fun (_, s) -> float_of_int sc.trials /. s) untraced)
    in
    let traced_rate =
      Util.median
        (Array.map (fun ns -> float_of_int sc.trials /. (ns *. 1e-9))
           (Spans.durations sp "pipeline.survival_curve"))
    in
    metric "topology.build_s" "s" build_s;
    metric "greedy.searches_per_op" "count" (Util.iratio searches trials);
    report_probes p;
    metric "dyn_conn.rebuilds_per_event" "count" (Util.iratio rebuilds trials);
    probe_timed "traffic" (fun () -> traffic_probe sc net (Rng.create ~seed:(seed + 29)));
    metric "traffic.unattributed_share" "ratio" unattributed;
    probe_timed "session" (fun () -> session_probe sc net ~seed ~budget_s:1.0);
    report_trials
      ~chunks:(Array.length (Spans.durations sp "trials.chunk"))
      ~busy:(Util.ratio chunk_total curve_total)
      ~survivor_calls:(Util.iratio survivor_calls trials);
    metric "trace.overhead" "ratio" (Util.ratio untraced_rate traced_rate -. 1.0)
  end

(* ---------- command line ---------- *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 in
  let trace = ref 0 and smoke = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME " ^ String.concat "|" workloads);
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S measured seconds");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end or per-layer metrics");
      ("--spans", Arg.Set_string spans_path, "FILE write the traced run's spans as JSONL");
      ("--smoke", Arg.Set smoke, " seconds-long sizes that still run every check");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "ftbench --workload NAME --seed N --seconds S --trace 0|1";
  if not (List.mem !workload workloads) then begin
    prerr_endline ("ftbench: unknown workload " ^ !workload);
    exit 2
  end;
  Ftcsn.Ft_topology.install ();
  let sc = scenario !workload ~smoke:!smoke in
  let trace = !trace = 1 and seed = !seed and seconds = !seconds in
  (match sc.kind with
  | Churn | Calls -> run_traffic sc ~seed ~seconds ~trace
  | Serve -> run_serve sc ~seed ~seconds ~trace
  | Survive -> run_survive sc ~seed ~seconds ~trace);
  print_result ()

