(* ftnet — command-line interface to the fault-tolerant circuit-switching
   network library.

   Subcommands:
     build      construct a network and print its vital statistics
     topologies list every registered network family (the --net registry)
     faults     sample a fault pattern and report the stripped survivor
     route      route a permutation (greedy) through an optionally faulty net
     check      run property deciders (superconcentrator / rearrangeable /
                nonblocking) on a small network
     survive    Monte-Carlo (eps, delta) survival estimation
     curve      coupled survival curve over an --eps-grid (CRN sweep)
     rare       rare-event failure estimation (tilted IS / multilevel
                splitting) for the paper's eps = 1e-6 regime
     traffic    continuous-time call traffic: steady-state blocking with CIs
     serve      live switch-controller daemon: line-JSON requests in,
                accept/block/rerouted decisions out, failure churn between
     tournament race every registered family through the survival sweep and
                the traffic engine; Pareto table on edges-per-terminal
     degrade    age the network under live traffic and report degradation
     critical   rank switches by Birnbaum criticality
     render     DOT or ASCII renderings (grids, stage census)

   Networks come from the Ftcsn_networks.Topology registry: every
   subcommand but tournament takes --net SPEC (default ft; e.g.
   benes:16, clos:n=64:rearr, multibutterfly:degree=4), -n and --seed.
   `ftnet topologies' lists the registered families.  Seed offsets live
   in Ftcsn.Seeds.

   Every Monte-Carlo workload runs on the Ftcsn_sim.Trials engine, so
   --jobs only changes wall-clock time: estimates, witnesses and ranks are
   bit-identical at every job count.  The stochastic subcommands share the
   observability flags --metrics FILE (JSON counters/timers/gauges),
   --trace FILE (JSONL span/chunk/stop events) and --progress (live
   stderr); tracing is strictly observational, so results are also
   bit-identical with it on or off.

   Flags: a flag that means the same thing in several subcommands is one
   shared term, and every flag's value is checked while cmdliner
   evaluates its term, in the order the subcommand lists its terms.  Run
   bodies check only combinations of flags.

   Error convention: invalid flag values and unopenable metric/trace
   paths print "ftnet: error: ..." on stderr and exit with code 2. *)

module Network = Ftcsn_networks.Network
module Topology = Ftcsn_networks.Topology
module Rng = Ftcsn_prng.Rng
module Fault = Ftcsn_reliability.Fault
module Monte_carlo = Ftcsn_reliability.Monte_carlo
module Splitting = Ftcsn_reliability.Splitting
module Trials = Ftcsn_sim.Trials
module Traffic = Ftcsn_des.Traffic
module Dist = Ftcsn_des.Dist
module Serve_engine = Ftcsn_serve.Engine
module Serve_loop = Ftcsn_serve.Loop
module Admission = Ftcsn_serve.Admission
module Batch_means = Ftcsn_des.Batch_means
module Obs_json = Ftcsn_obs.Json
module Obs_metrics = Ftcsn_obs.Metrics
module Obs_timer = Ftcsn_obs.Timer
module Counter = Ftcsn_obs.Counter
module Trace = Ftcsn_obs.Trace
module Strip = Ftcsn.Fault_strip
module Seeds = Ftcsn.Seeds
open Cmdliner

(* ---------- error convention ---------- *)

let die fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("ftnet: error: " ^ msg);
      exit 2)
    fmt

let check_int ~min flag v =
  if v < min then die "invalid %s value %d: must be an integer >= %d" flag v min
  else v

let check_pos = check_int ~min:1

let check_float flag ok need v =
  if ok v then v else die "invalid %s value %g: %s" flag v need

(* Oversubscribing domains beyond the core count only adds scheduling
   overhead; warn (don't clamp) so deterministic runs pinned to an
   explicit --jobs keep their exact chunk layout. *)
let check_jobs v =
  let v = check_pos "--jobs" v in
  let cores = Domain.recommended_domain_count () in
  if v > cores then
    Printf.eprintf
      "ftnet: warning: --jobs %d exceeds the %d available core%s; extra \
       domains only add overhead\n%!"
      v cores
      (if cores = 1 then "" else "s");
  v

(* --eps-grid LO:HI:STEPS[:log|:lin] — an inclusive ε grid, linearly
   spaced by default or log-spaced on request.  HI is capped at 0.5
   because every sweep runs at ε₁ = ε₂ = ε. *)
let parse_eps_grid s =
  let fail why = die "invalid --eps-grid value %S: %s" s why in
  let lo_s, hi_s, steps_s, scale =
    match String.split_on_char ':' s with
    | [ lo; hi; steps ] | [ lo; hi; steps; "lin" ] -> (lo, hi, steps, `Lin)
    | [ lo; hi; steps; "log" ] -> (lo, hi, steps, `Log)
    | [ _; _; _; sc ] ->
        fail (Printf.sprintf "unknown spacing %S (expected log or lin)" sc)
    | _ -> fail "expected LO:HI:STEPS[:log|:lin]"
  in
  let flt name v =
    match float_of_string_opt v with
    | Some x -> x
    | None -> fail (Printf.sprintf "%s %S is not a number" name v)
  in
  let lo = flt "LO" lo_s and hi = flt "HI" hi_s in
  let steps =
    match int_of_string_opt steps_s with
    | Some k when k >= 1 -> k
    | _ -> fail (Printf.sprintf "STEPS %S must be an integer >= 1" steps_s)
  in
  if not (lo >= 0.0 && lo <= hi) then fail "need 0 <= LO <= HI";
  if hi > 0.5 then fail "need HI <= 0.5 (sweeps run at eps_open = eps_close = eps)";
  (match scale with
  | `Log when lo <= 0.0 -> fail "log spacing needs LO > 0"
  | _ -> ());
  let grid =
    Array.init steps (fun k ->
        if steps = 1 then lo
        else
          let t = float_of_int k /. float_of_int (steps - 1) in
          match scale with
          | `Lin -> lo +. (t *. (hi -. lo))
          | `Log -> lo *. exp (t *. log (hi /. lo)))
  in
  (* extreme LO/HI (e.g. a denormal LO with :log) can overflow the
     spacing arithmetic into inf/nan points that would crash the
     fault sampler mid-sweep; reject the grid up front instead *)
  Array.iteri
    (fun k x ->
      if not (Float.is_finite x && x >= 0.0 && x <= 0.5) then
        fail
          (Printf.sprintf
             "grid point %d computes to %g (degenerate spacing; LO/HI \
              too extreme for %s scale)"
             k x
             (match scale with `Log -> "log" | `Lin -> "lin")))
    grid;
  grid

(* ---------- observability ---------- *)

type obs = {
  trace : Trace.sink option;
  registry : Obs_metrics.t;
  progress : (Trials.progress -> unit) option;
}

let progress_printer () =
  let last = ref neg_infinity in
  fun (p : Trials.progress) ->
    if p.Trials.elapsed -. !last >= 0.2 || p.Trials.completed >= p.Trials.cap
    then begin
      last := p.Trials.elapsed;
      Printf.eprintf
        "progress: %d/%d trials, %d successes, %.0f trials/s (jobs=%d)\n%!"
        p.Trials.completed p.Trials.cap p.Trials.successes p.Trials.rate
        p.Trials.jobs
    end

(* Graceful shutdown: SIGINT/SIGTERM unwind as an exception so every
   Fun.protect ~finally on the way out runs — in particular with_obs
   closes the --trace sink on a whole-line boundary and still writes
   the --metrics report.  Long-running reactors (serve) swap in their
   own flag-setting handlers so they can also print a final summary. *)
exception Interrupted of int (* the signal number *)

(* OCaml's Sys.sig* numbers are its own negative codes, not the OS's, so
   only these two armed signals are named and mapped to an exit code *)
let signal_exit_code signo = if signo = Sys.sigterm then 143 else 130
let signal_name signo = if signo = Sys.sigterm then "SIGTERM" else "SIGINT"

let install_raising_handlers () =
  let arm s =
    (* keep the default behaviour on platforms without handlers *)
    try Sys.set_signal s (Sys.Signal_handle (fun _ -> raise (Interrupted s)))
    with Invalid_argument _ | Sys_error _ -> ()
  in
  arm Sys.sigint;
  arm Sys.sigterm

(* Sinks are opened before any work runs, so an unwritable path fails
   fast (exit 2) instead of after a long sweep.  The metrics report is
   written when the subcommand body returns (also on exceptions,
   including the SIGINT/SIGTERM unwind). *)
let with_obs (metrics_path, trace_path, progress) f =
  let open_out_checked flag path =
    try open_out path
    with Sys_error msg -> die "cannot open %s file %S: %s" flag path msg
  in
  let metrics_oc = Option.map (open_out_checked "--metrics") metrics_path in
  let trace_oc = Option.map (open_out_checked "--trace") trace_path in
  let obs =
    {
      trace = Option.map Trace.to_channel trace_oc;
      registry = Obs_metrics.default;
      progress = (if progress then Some (progress_printer ()) else None);
    }
  in
  install_raising_handlers ();
  match
    Fun.protect
      ~finally:(fun () ->
        Option.iter Trace.close obs.trace;
        Option.iter close_out trace_oc;
        match metrics_oc with
        | None -> ()
        | Some oc ->
            output_string oc
              (Obs_json.to_string (Obs_metrics.to_json obs.registry));
            output_char oc '\n';
            close_out oc)
      (fun () -> f obs)
  with
  | v -> v
  | exception Interrupted signo ->
      Printf.eprintf "ftnet: interrupted (%s); sinks flushed\n%!"
        (signal_name signo);
      exit (signal_exit_code signo)

(* time a coarse phase: a span in the trace and a phase.* timer in the
   metrics report *)
let phase obs name f =
  let tm = Obs_metrics.timer obs.registry ("phase." ^ name) in
  Trace.span obs.trace name (fun () -> Obs_timer.time tm f)

let note_estimate obs name (est : Trials.estimate) =
  let gauge k v = Obs_metrics.set_gauge obs.registry (name ^ "." ^ k) v in
  gauge "mean" est.Trials.mean;
  gauge "ci_low" est.Trials.ci_low;
  gauge "ci_high" est.Trials.ci_high;
  Counter.add
    (Obs_metrics.counter obs.registry "trials.executed")
    est.Trials.trials;
  Counter.add
    (Obs_metrics.counter obs.registry "trials.successes")
    est.Trials.successes

let print_curve_table grid (ests : Trials.estimate array) =
  Format.printf "  %-12s %-8s %-10s %-10s %s@." "eps" "mean" "ci_low"
    "ci_high" "successes/trials";
  Array.iteri
    (fun k (est : Trials.estimate) ->
      Format.printf "  %-12g %-8.4f %-10.4f %-10.4f %d/%d@." grid.(k)
        est.Trials.mean est.Trials.ci_low est.Trials.ci_high
        est.Trials.successes est.Trials.trials)
    ests

(* the network's terminal and switch counts, leading every JSON report *)
let net_fields net =
  [
    ("inputs", Obs_json.Int (Network.n_inputs net));
    ("outputs", Obs_json.Int (Network.n_outputs net));
    ("switches", Obs_json.Int (Network.size net));
  ]

(* ---------- shared flags ---------- *)

(* Each term below checks its value through [die] while cmdliner
   evaluates it.  An Arg.conv would fail with cmdliner's own text and
   exit 124 instead of the "ftnet: error:" + exit 2 convention. *)

let seed_arg =
  let doc =
    "PRNG seed (all randomness is derived deterministically from SEED at \
     fixed per-subcommand offsets)."
  in
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc)

let n_arg =
  let doc = "Number of terminals (rounded to the family's natural grid)." in
  Term.(
    const (check_pos "-n")
    $ Arg.(value & opt int 8 & info [ "n" ] ~docv:"N" ~doc))

(* which network a subcommand builds: the registry spec, -n and the seed
   of its construction stream *)
type net_args = { spec : string; n : int; seed : int }

let net_args =
  let doc =
    "Network spec $(docv) = FAMILY[:ARG]... where each ARG is a bare \
     integer (the terminal count), KEY=VALUE, or a flag name — e.g. \
     benes:16, clos:n=64:rearr, multibutterfly:degree=4.  See `ftnet \
     topologies' for the registered families."
  in
  Term.(
    const (fun spec n seed -> { spec; n; seed })
    $ Arg.(value & opt string "ft" & info [ "net" ] ~docv:"SPEC" ~doc)
    $ n_arg $ seed_arg)

(* a plain int or float flag --NAME and the check of its value *)
let int_flag ?(min = 1) key ~default ~docv ~doc =
  Term.(
    const (check_int ~min ("--" ^ key))
    $ Arg.(value & opt int default & info [ key ] ~docv ~doc))

let float_flag key ~default ~ok ~need ~docv ~doc =
  Term.(
    const (check_float ("--" ^ key) ok need)
    $ Arg.(value & opt float default & info [ key ] ~docv ~doc))

(* open = closed = EPS, so no EPS above 0.5 is a distribution; NaN fails
   both comparisons *)
let eps_arg =
  float_flag "eps" ~default:0.01
    ~ok:(fun e -> e >= 0.0 && e <= 0.5)
    ~need:"need 0 <= EPS <= 0.5 (open = closed = EPS)" ~docv:"EPS"
    ~doc:"Per-switch failure probability (open = closed = EPS)."

let jobs_arg =
  let doc =
    "Worker domains for Monte-Carlo trials (default: the machine's \
     recommended domain count).  Results are bit-identical at every J; \
     only wall-clock time changes."
  in
  Term.(
    const check_jobs
    $ Arg.(
        value
        & opt int (Domain.recommended_domain_count ())
        & info [ "jobs"; "j" ] ~docv:"J" ~doc))

let target_ci_arg =
  let doc =
    "Adaptive stopping: keep running trials until the Wilson 95% interval \
     half-width drops to W or below (the --trials cap still applies)."
  in
  let parse s =
    match float_of_string_opt s with
    | Some w when w > 0.0 && w < 1.0 -> w
    | _ ->
        die "invalid --target-ci value %S: expected a half-width in (0, 1)" s
  in
  Term.(
    const (Option.map parse)
    $ Arg.(
        value & opt (some string) None & info [ "target-ci" ] ~docv:"W" ~doc))

let trials_arg ~default ~doc = int_flag "trials" ~default ~docv:"T" ~doc

let eps_grid_arg ?default ~doc () =
  Term.(
    const (Option.map parse_eps_grid)
    $ Arg.(
        value
        & opt (some string) default
        & info [ "eps-grid" ] ~docv:"GRID" ~doc))

(* faults and route: the surveys' optional coupled curve *)
let survey_grid_arg =
  eps_grid_arg
    ~doc:
      "Sweep a coupled ε-curve over $(docv) = LO:HI:STEPS[:log|:lin] instead \
       of the single --eps point: every trial draws one uniform per switch \
       and thresholds that same draw vector at each grid ε (common random \
       numbers), so the whole curve costs about one run and the points are \
       positively correlated.  Incompatible with --target-ci."
    ()

(* a coupled curve has no single half-width to aim for *)
let no_target_ci_on_curve eps_grid target_ci =
  if eps_grid <> None && target_ci <> None then
    die "--eps-grid cannot be combined with --target-ci (a single \
         half-width target is ill-defined across a curve)"

let json_flag =
  Arg.(
    value & flag
    & info [ "json" ]
        ~doc:"Emit the result as one JSON object instead of a table.")

let holding_arg =
  let doc =
    "Holding-time distribution (of every call in traffic, of calls without \
     an explicit \"hold\" field in serve): exp (memoryless, mean 1) or \
     pareto:ALPHA (heavy-tailed, ALPHA > 1, rescaled to mean 1)."
  in
  let parse s =
    match Dist.holding_of_string s with
    | Ok h -> h
    | Error msg -> die "invalid --holding value %S: %s" s msg
  in
  Term.(
    const parse
    $ Arg.(value & opt string "exp" & info [ "holding" ] ~docv:"DIST" ~doc))

let mtbf_arg ?default () =
  let doc =
    "Per-switch mean time between failures (exponential clock, open/closed \
     with equal probability)."
  in
  Term.(
    const (Option.map (check_float "--mtbf" (fun x -> x > 0.0) "must be > 0"))
    $ Arg.(
        value
        & opt (some ~none:"no failures" float) default
        & info [ "mtbf" ] ~docv:"T" ~doc))

let mttr_arg =
  Term.(
    const
      (check_float "--mttr"
         (fun x -> x > 0.0)
         "must be > 0 (use a huge value for permanent failures)")
    $ Arg.(
        value & opt float 10.0
        & info [ "mttr" ] ~docv:"T"
            ~doc:"Per-switch mean time to repair (exponential clock)."))

let warmup_arg ~default =
  Term.(
    const (check_int ~min:0 "--warmup")
    $ Arg.(
        value & opt int default
        & info [ "warmup" ] ~docv:"CALLS"
            ~doc:
              "Offered calls discarded before the measured window opens \
               (warm-up truncation)."))

let calls_arg ~default =
  int_flag "calls" ~default ~docv:"CALLS"
    ~doc:"Offered calls measured per traffic replication."

let check_load =
  check_float "--load"
    (fun l -> l > 0.0 && Float.is_finite l)
    "must be a finite offered load > 0"

let metrics_arg =
  let doc =
    "Write a JSON metrics report (operation counters, per-phase timers, \
     estimate gauges) to $(docv) when the subcommand finishes."
  in
  Arg.(value & opt (some string) None & info [ "metrics" ] ~docv:"FILE" ~doc)

let trace_arg =
  let doc =
    "Stream structured JSONL trace events to $(docv): phase spans, one \
     event per trial chunk (worker domain, wall-clock cost, RNG substream \
     range) and every adaptive-stopping decision with its Wilson \
     half-width.  Tracing never changes estimates."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

let progress_flag =
  let doc = "Report live trial progress on stderr." in
  Arg.(value & flag & info [ "progress" ] ~doc)

let obs_args =
  Term.(
    const (fun m t p -> (m, t, p)) $ metrics_arg $ trace_arg $ progress_flag)

(* Build through the registry and warn when the family snapped n to its
   natural grid.  Exits 2 with the registry's normalized message on an
   unknown family/parameter. *)
let build_network { spec; n; seed } =
  match Topology.build_string ~n ~rng:(Seeds.network seed) spec with
  | Error msg -> die "%s" msg
  | Ok built ->
      if built.Topology.n_effective <> built.Topology.n_requested then
        Printf.eprintf
          "ftnet: warning: family %s snapped n=%d to its natural grid \
           (effective n=%d)\n%!"
          built.Topology.gen.Topology.name built.Topology.n_requested
          built.Topology.n_effective;
      built

(* open the sinks, then build the network under the build-network phase *)
let with_net obsargs net_args f =
  with_obs obsargs @@ fun obs ->
  f obs (phase obs "build-network" (fun () -> build_network net_args))

(* ---------- build ---------- *)

let build_cmd =
  let run net_args =
    let built = build_network net_args in
    let net = built.Topology.net in
    let g = net.Network.graph in
    Format.printf "%a@." Network.pp net;
    Format.printf "family: %s@." built.Topology.gen.Topology.name;
    if built.Topology.n_effective <> built.Topology.n_requested then
      Format.printf "effective n: %d (requested %d)@."
        built.Topology.n_effective built.Topology.n_requested
    else Format.printf "effective n: %d@." built.Topology.n_effective;
    Format.printf "acyclic: %b@." (Network.is_acyclic net);
    Format.printf "vertices: %d@." (Ftcsn_graph.Digraph.vertex_count g);
    let p = Ftcsn_graph.Metrics.degree_profile g in
    Format.printf "degrees: in %d..%d, out %d..%d, mean %.2f@."
      p.Ftcsn_graph.Metrics.min_in p.Ftcsn_graph.Metrics.max_in
      p.Ftcsn_graph.Metrics.min_out p.Ftcsn_graph.Metrics.max_out
      p.Ftcsn_graph.Metrics.mean_out;
    let rng = Seeds.build net_args.seed in
    Format.printf "directed diameter (sampled lower bound): %d@."
      (Ftcsn_graph.Metrics.diameter_lower_bound g ~samples:8 ~rng)
  in
  let doc = "Construct a network and print size, depth and degree stats." in
  Cmd.v (Cmd.info "build" ~doc) Term.(const run $ net_args)

(* ---------- topologies ---------- *)

let topologies_cmd =
  let run names_only =
    let gens = Topology.all () in
    if names_only then
      List.iter (fun (g : Topology.gen) -> print_endline g.Topology.name) gens
    else begin
      Format.printf
        "registered network families (use --net FAMILY[:ARG]...):@.";
      List.iter
        (fun (g : Topology.gen) ->
          let params =
            List.map
              (fun (p : Topology.param) ->
                match p.Topology.kind with
                | `Flag -> p.Topology.key
                | `Int -> p.Topology.key ^ "=INT")
              g.Topology.params
          in
          let extras =
            (match g.Topology.aliases with
            | [] -> []
            | a -> [ "aliases: " ^ String.concat ", " a ])
            @
            match params with
            | [] -> []
            | ps -> [ "params: " ^ String.concat ", " ps ]
          in
          Format.printf "  %-16s %s%s@." g.Topology.name g.Topology.doc
            (match extras with
            | [] -> ""
            | es -> "  (" ^ String.concat "; " es ^ ")"))
        gens
    end
  in
  let names_only =
    Arg.(
      value & flag
      & info [ "names" ]
          ~doc:
            "Print only the canonical family names, one per line (for \
             scripting loops over the registry).")
  in
  let doc = "List every registered network family with its parameters." in
  Cmd.v (Cmd.info "topologies" ~doc) Term.(const run $ names_only)

(* ---------- per-domain survey workspaces ---------- *)

(* The surveys' trials run on a Fault_strip workspace (for route, with
   the greedy router it masks), and each re-strips or clears what it
   reads, so a reused one gives a fresh one's results.  The last one
   built on each domain is kept while the network is the same, so a
   survey builds one per domain instead of one per 256-trial chunk. *)
let strip_slot = Ftcsn_util.Domain_slot.create ()

let strip_ws net =
  Ftcsn_util.Domain_slot.get strip_slot
    ~fits:(fun ws -> Strip.ws_net ws == net)
    ~build:(fun () -> Strip.create_ws net)

let routed_slot = Ftcsn_util.Domain_slot.create ()

let routed_ws net =
  Ftcsn_util.Domain_slot.get routed_slot
    ~fits:(fun (fs, _) -> Strip.ws_net fs == net)
    ~build:(fun () ->
      let fs = Strip.create_ws net in
      ( fs,
        Ftcsn_routing.Greedy.create ~allowed:(Strip.ws_allowed fs)
          ~edge_ok:(Strip.ws_edge_ok fs) net ))

(* ---------- faults ---------- *)

let faults_cmd =
  let run net_args eps trials jobs eps_grid target_ci radius obsargs =
    no_target_ci_on_curve eps_grid target_ci;
    with_net obsargs net_args @@ fun obs { Topology.net; _ } ->
    let rng = Seeds.faults net_args.seed in
    let m = Network.size net in
    let pattern = Fault.sample rng ~eps_open:eps ~eps_close:eps ~m in
    let opens = Fault.count pattern Fault.Open_failure in
    let closes = Fault.count pattern Fault.Closed_failure in
    Format.printf "switches: %d, open failures: %d, closed failures: %d@." m
      opens closes;
    let ws = strip_ws net in
    Strip.strip_into ~radius ws pattern;
    let stripped = Ftcsn_util.Bitset.cardinal (Strip.ws_stripped ws) in
    let vertices = Ftcsn_graph.Digraph.vertex_count net.Network.graph in
    Format.printf "stripped vertices: %d (%.2f%%)@." stripped
      (100.0 *. (float_of_int stripped /. float_of_int vertices));
    Format.printf "terminals shorted: %s@."
      (match Strip.ws_shorted_terminals ws with
      | [] -> "none"
      | ps ->
          String.concat ", "
            (List.map (fun (a, b) -> Printf.sprintf "(%d,%d)" a b) ps));
    Format.printf "isolated inputs: %s@."
      (match Strip.ws_isolated_inputs ws with
      | [] -> "none"
      | is -> String.concat ", " (List.map string_of_int is));
    (* the surveys' event: a fresh pattern leaves a clean survivor (no
       shorted terminals, no isolated inputs); one Fault_strip workspace
       per domain, so trials allocate nothing but the isolated-input
       lists *)
    let init () = strip_ws net in
    let clean ws _ pattern =
      Strip.strip_into ~radius ws pattern;
      Strip.ws_healthy ws && Strip.ws_isolated_inputs ws = []
    in
    match eps_grid with
    | Some grid ->
        (* coupled curve survey (common random numbers); the
           clean-survivor event reads the closed-edge set, which is not
           nested in ε, so every point is evaluated *)
        let ests =
          phase obs "estimate" (fun () ->
              Monte_carlo.estimate_curve ~jobs ?progress:obs.progress
                ?trace:obs.trace ~label:"faults.survey_curve" ~trials ~rng ~m
                ~grid:(Array.map (fun e -> (e, e)) grid)
                ~init clean)
        in
        Format.printf
          "P[survivor clean] curve (%d coupled trials, jobs=%d):@." trials
          jobs;
        print_curve_table grid ests
    | None ->
        if trials > 1 then begin
          let est =
            phase obs "estimate" (fun () ->
                Monte_carlo.estimate_event ~jobs ?target_ci
                  ?progress:obs.progress ?trace:obs.trace
                  ~label:"faults.survey" ~trials ~rng ~m ~eps_open:eps
                  ~eps_close:eps ~init clean)
          in
          note_estimate obs "faults.clean" est;
          Format.printf "P[survivor clean] = %a  (%d trials, jobs=%d)@."
            Monte_carlo.pp est est.Monte_carlo.trials jobs
        end
  in
  let radius =
    int_flag ~min:0 "radius" ~default:0 ~docv:"R"
      ~doc:"Strip radius: 0 = faulty vertices, 1 = plus neighbours."
  in
  let trials =
    trials_arg ~default:1
      ~doc:
        "With T > 1, additionally survey T sampled patterns and estimate \
         P[survivor has no shorted terminals or isolated inputs]."
  in
  let doc = "Sample a fault pattern and report the stripped survivor." in
  Cmd.v (Cmd.info "faults" ~doc)
    Term.(
      const run $ net_args $ eps_arg $ trials $ jobs_arg $ survey_grid_arg
      $ target_ci_arg $ radius $ obs_args)

(* ---------- route ---------- *)

let route_cmd =
  let run net_args eps trials jobs eps_grid target_ci verbose obsargs =
    no_target_ci_on_curve eps_grid target_ci;
    with_net obsargs net_args @@ fun obs { Topology.net; _ } ->
    let rng = Seeds.route net_args.seed in
    let n' = min (Network.n_inputs net) (Network.n_outputs net) in
    (* one Fault_strip workspace and the greedy router it masks: the
       router runs on the original graph and sees each re-strip *)
    let init () = routed_ws net in
    (* the surveys' event: a random permutation, drawn after the
       switches, routes fully on the strip *)
    let full_route (fs, router) sub pattern =
      Strip.strip_into fs pattern;
      Ftcsn_routing.Greedy.clear router;
      let success = ref 0 in
      ignore
        (Ftcsn_routing.Greedy.route_permutation router (Rng.permutation sub n')
           ~success);
      !success = n'
    in
    let m = Network.size net in
    match eps_grid with
    | Some grid ->
        (* coupled curve survey: shared per-switch draws across the grid,
           and every point draws the same permutation *)
        let ests =
          phase obs "estimate" (fun () ->
              Monte_carlo.estimate_curve ~jobs ?progress:obs.progress
                ?trace:obs.trace ~label:"route.survey_curve" ~trials ~rng ~m
                ~grid:(Array.map (fun e -> (e, e)) grid)
                ~init full_route)
        in
        Format.printf
          "P[random permutation fully routes] curve (%d coupled trials, \
           jobs=%d):@."
          trials jobs;
        print_curve_table grid ests
    | None when trials <= 1 ->
        let pi = Rng.permutation rng n' in
        let fs, router = init () in
        if eps > 0.0 then begin
          let pattern = Strip.ws_pattern fs in
          Fault.sample_into rng ~eps_open:eps ~eps_close:eps pattern;
          Strip.strip_into fs pattern
        end;
        let success = ref 0 in
        let paths = Ftcsn_routing.Greedy.route_permutation router pi ~success in
        Format.printf "requests: %d, routed: %d, blocked: %d@." n' !success
          (n' - !success);
        if verbose then
          Array.iteri
            (fun i path ->
              match path with
              | Some p ->
                  Format.printf "  %d -> %d: %s@." i pi.(i)
                    (String.concat " " (List.map string_of_int p))
              | None -> Format.printf "  %d -> %d: BLOCKED@." i pi.(i))
            paths
    | None ->
        (* survey mode: each trial draws its own fault pattern and then
           its own permutation; success = every request routed greedily *)
        let est =
          phase obs "estimate" (fun () ->
              Monte_carlo.estimate_event ~jobs ?target_ci
                ?progress:obs.progress ?trace:obs.trace ~label:"route.survey"
                ~trials ~rng ~m ~eps_open:eps ~eps_close:eps ~init full_route)
        in
        note_estimate obs "route.full" est;
        Format.printf
          "P[random permutation fully routes, eps=%g] = %a  (%d trials, jobs=%d)@."
          eps Monte_carlo.pp est est.Monte_carlo.trials jobs
  in
  let verbose =
    Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Print every path.")
  in
  let trials =
    trials_arg ~default:1
      ~doc:
        "With T > 1, estimate P[a random permutation routes fully] over T \
         independent fault samples instead of printing one route."
  in
  let doc = "Greedily route a random permutation, optionally under faults." in
  Cmd.v (Cmd.info "route" ~doc)
    Term.(
      const run $ net_args $ eps_arg $ trials $ jobs_arg $ survey_grid_arg
      $ target_ci_arg $ verbose $ obs_args)

(* ---------- check ---------- *)

let check_cmd =
  let run net_args trials jobs target_ci obsargs =
    with_net obsargs net_args @@ fun obs { Topology.net; _ } ->
    let rng = Seeds.check net_args.seed in
    Format.printf "%a@." Network.pp net;
    phase obs "superconcentrator" (fun () ->
        match
          Ftcsn_routing.Properties.superconcentrator_exhaustive
            ~max_work:100_000 net
        with
        | `Holds -> Format.printf "superconcentrator: yes (exhaustive)@."
        | `Violated v ->
            Format.printf "superconcentrator: NO (r=%d achieved=%d)@."
              v.Ftcsn_routing.Properties.r v.Ftcsn_routing.Properties.achieved
        | `Too_large -> (
            match
              Ftcsn_routing.Properties.superconcentrator_sampled ~jobs
                ?trace:obs.trace ~trials ~rng net
            with
            | None ->
                Format.printf "superconcentrator: probably (%d samples)@." trials
            | Some v ->
                Format.printf "superconcentrator: NO (sampled r=%d)@."
                  v.Ftcsn_routing.Properties.r));
    phase obs "rearrangeable" (fun () ->
        if Network.n_inputs net <= 5 then begin
          match Ftcsn_routing.Properties.rearrangeable_exhaustive net with
          | `Holds -> Format.printf "rearrangeable: yes (exhaustive)@."
          | `Violated pi ->
              Format.printf "rearrangeable: NO (witness %s)@."
                (Format.asprintf "%a" Ftcsn_util.Perm.pp pi)
          | `Budget_exceeded -> Format.printf "rearrangeable: budget exceeded@."
        end
        else begin
          let perm_trials = max 5 (trials / 5) in
          match
            Ftcsn_routing.Properties.rearrangeable_sampled ~jobs
              ?trace:obs.trace ~trials:perm_trials ~rng net
          with
          | None ->
              Format.printf "rearrangeable: probably (%d samples)@." perm_trials
          | Some _ -> Format.printf "rearrangeable: NO (sampled witness)@."
        end);
    phase obs "nonblocking" (fun () ->
        if Network.n_inputs net <= 4 && Network.size net <= 64 then begin
          match
            Ftcsn_routing.Properties.nonblocking_exhaustive ~max_states:100_000
              net
          with
          | `Holds -> Format.printf "strictly nonblocking: yes (exhaustive)@."
          | `Violated _ -> Format.printf "strictly nonblocking: NO@."
          | `Budget_exceeded ->
              Format.printf "strictly nonblocking: budget exceeded@."
        end
        else begin
          (* estimate P[a 200-call stress episode blocks no request
             between idle terminals] so that --target-ci / --jobs have
             something to sharpen; offering one Erlang per call slot keeps
             the fabric busy without every arrival being a system-full
             loss *)
          let episodes = max 5 (trials / 5) in
          let calls = 200 in
          let config =
            Traffic.config
              ~load:
                (float_of_int
                   (min (Network.n_inputs net) (Network.n_outputs net)))
              ~stop:(Traffic.Calls { warmup = 0; measured = calls })
              ~stop_on_degradation:true ()
          in
          let est =
            Monte_carlo.estimate ~jobs ?target_ci ?progress:obs.progress
              ?trace:obs.trace ~label:"check.nonblocking_stress"
              ~trials:episodes ~rng (fun sub ->
                (Traffic.run ~rng:sub ~config net).Traffic.degraded_at = None)
          in
          note_estimate obs "check.nonblocking_stress" est;
          Format.printf
            "nonblocking stress: P[0 blocked in %d-call episode] = %a  (%d \
             episodes, jobs=%d)@."
            calls Monte_carlo.pp est est.Monte_carlo.trials jobs
        end)
  in
  let trials =
    trials_arg ~default:100
      ~doc:
        "Sampled-decider budget: T superconcentrator probes, T/5 sampled \
         permutations, T/5 nonblocking stress episodes."
  in
  let doc = "Decide/estimate the three §2 properties for a network." in
  Cmd.v (Cmd.info "check" ~doc)
    Term.(const run $ net_args $ trials $ jobs_arg $ target_ci_arg $ obs_args)

(* ---------- survive ---------- *)

let survive_cmd =
  let run net_args eps trials jobs target_ci obsargs =
    with_net obsargs net_args @@ fun obs { Topology.net; _ } ->
    let rng = Seeds.survive net_args.seed in
    let last_rate = ref 0.0 in
    let progress p =
      last_rate := p.Trials.rate;
      match obs.progress with Some cb -> cb p | None -> ()
    in
    let est =
      phase obs "estimate" (fun () ->
          Ftcsn.Pipeline.survival ~jobs ?target_ci ~progress ?trace:obs.trace
            ~trials ~rng ~eps ~probe:Ftcsn.Pipeline.sc_probe_only net)
    in
    note_estimate obs "survive" est;
    Format.printf "%a@." Network.pp net;
    Format.printf
      "P[survives eps=%g, superconcentrator probes] = %.3f  (95%% CI [%.3f, %.3f], %d trials)@."
      eps est.Monte_carlo.mean est.Monte_carlo.ci_low est.Monte_carlo.ci_high
      est.Monte_carlo.trials;
    Format.printf "throughput: %.0f trials/s (jobs=%d)@." !last_rate jobs
  in
  let trials = trials_arg ~default:100 ~doc:"Monte-Carlo trial cap." in
  let doc = "Monte-Carlo (eps, delta) survival estimation." in
  Cmd.v (Cmd.info "survive" ~doc)
    Term.(
      const run $ net_args $ eps_arg $ trials $ jobs_arg $ target_ci_arg
      $ obs_args)

(* ---------- curve ---------- *)

let curve_cmd =
  let run net_args trials jobs grid json obsargs =
    with_net obsargs net_args @@ fun obs { Topology.net; _ } ->
    let rng = Seeds.curve net_args.seed in
    let ests =
      phase obs "estimate" (fun () ->
          Ftcsn.Pipeline.survival_curve ~jobs ?progress:obs.progress
            ?trace:obs.trace ~trials ~rng ~eps:grid
            ~probe:Ftcsn.Pipeline.sc_probe_only net)
    in
    if json then begin
      let point k (est : Trials.estimate) =
        Obs_json.Obj
          [
            ("eps", Obs_json.Float grid.(k));
            ("mean", Obs_json.Float est.Trials.mean);
            ("ci_low", Obs_json.Float est.Trials.ci_low);
            ("ci_high", Obs_json.Float est.Trials.ci_high);
            ("successes", Obs_json.Int est.Trials.successes);
            ("trials", Obs_json.Int est.Trials.trials);
          ]
      in
      print_endline
        (Obs_json.to_string
           (Obs_json.Obj
              (net_fields net
              @ [
                  ("trials", Obs_json.Int trials);
                  ("probe", Obs_json.String "sc_probe_only");
                  ( "curve",
                    Obs_json.List (Array.to_list (Array.mapi point ests)) );
                ])))
    end
    else begin
      Format.printf "%a@." Network.pp net;
      Format.printf
        "survival curve (superconcentrator probes, %d coupled trials, \
         jobs=%d):@."
        trials jobs;
      print_curve_table grid ests
    end
  in
  let grid =
    Term.(
      const Option.get
      $ eps_grid_arg ~default:"0.001:0.1:8:log"
          ~doc:
            "ε grid LO:HI:STEPS[:log|:lin] for the sweep (inclusive; \
             lin-spaced by default, log-spaced with :log)."
          ())
  in
  let trials =
    trials_arg ~default:200 ~doc:"Coupled Monte-Carlo trials (shared by every grid point)."
  in
  let doc =
    "Survival-probability curve over an ε grid via one coupled sweep \
     (common random numbers: every grid point shares each trial's \
     per-switch draws, so the curve costs about one run and each point \
     is bit-identical to an independent survive run at that ε)."
  in
  Cmd.v (Cmd.info "curve" ~doc)
    Term.(
      const run $ net_args $ trials $ jobs_arg $ grid $ json_flag $ obs_args)

(* ---------- rare ---------- *)

(* Plain MC needs ~1/(eps·n·RE²) trials to pin a probability of order
   eps·n at relative error RE — hopeless at the paper's eps = 1e-6.
   `ftnet rare` runs the lib/reliability/splitting estimators instead:
   cross-entropy-tilted importance sampling (the full failure event) and
   multilevel splitting/RESTART (the monotone sub-event via the critical-ε
   importance function).  Both run on Trials, so estimates stay
   bit-identical at every --jobs; the sequential pilot phases (CE tilt
   tuning, level-schedule calibration) draw from the same --seed stream
   before the parallel phase, so the whole run is deterministic. *)

let rare_est_json (e : Splitting.estimate) =
  [
    ("mean", Obs_json.Float e.Splitting.mean);
    ("rel_err", Obs_json.Float e.Splitting.rel_err);
    ("ci_low", Obs_json.Float e.Splitting.ci_low);
    ("ci_high", Obs_json.Float e.Splitting.ci_high);
    ("trials", Obs_json.Int e.Splitting.trials);
    ("variance_ratio", Obs_json.Float e.Splitting.variance_ratio);
    ("evals", Obs_json.Int e.Splitting.evals);
  ]

let note_rare_estimate obs name (e : Splitting.estimate) =
  let gauge k v = Obs_metrics.set_gauge obs.registry (name ^ "." ^ k) v in
  gauge "mean" e.Splitting.mean;
  gauge "rel_err" e.Splitting.rel_err;
  gauge "variance_ratio" e.Splitting.variance_ratio

let print_rare_row name (e : Splitting.estimate) =
  Format.printf "  %-6s %-12.4e %-9.4f [%.3e, %.3e]  %-8d %-12.4g %d@." name
    e.Splitting.mean e.Splitting.rel_err e.Splitting.ci_low
    e.Splitting.ci_high e.Splitting.trials e.Splitting.variance_ratio
    e.Splitting.evals

let rare_cmd =
  let run net_args trials jobs pilot_trials tilt_iters particles eps level_p0
      mutate (method_name, method_) grid per_edge json obsargs =
    (match (grid, method_) with
    | Some _, (`Split | `Both) ->
        die
          "--eps-grid sweeps share one tilted sample per trial across the \
           grid; only --method tilt supports it"
    | Some g, `Tilt ->
        Array.iter
          (fun x ->
            if not (x > 0.0) then
              die
                "invalid --eps-grid value: grid point %g must be > 0 (tilted \
                 weights are likelihood ratios against eps)"
                x)
          g
    | None, _ -> ());
    with_net obsargs net_args @@ fun obs { Topology.net; _ } ->
    let rng = Seeds.rare net_args.seed in
    (* pilots can reject a degenerate configuration (population collapse,
       zero-mass tilt) only once they see the event; normalize to exit 2 *)
    let checked name f =
      try f () with Invalid_argument msg -> die "%s phase failed: %s" name msg
    in
    let tune eps =
      checked "tilt-tuning" @@ fun () ->
      phase obs "tune-tilt" (fun () ->
          Ftcsn.Rare.tune_tilt ~iters:tilt_iters ~trials:pilot_trials ~per_edge
            ?trace:obs.trace ~rng ~eps net)
    in
    match grid with
    | Some grid ->
        (* tune at the rarest (smallest) grid point so the tilt reaches
           every point; larger points just carry milder weights *)
        let eps_min = Array.fold_left min grid.(0) grid in
        let tilt = tune eps_min in
        let ests =
          phase obs "estimate-tilt-curve" (fun () ->
              Ftcsn.Rare.failure_tilted_curve ~jobs ?trace:obs.trace ~trials
                ~rng ~grid ~tilt net)
        in
        note_rare_estimate obs "rare.tilt" ests.(0);
        if json then
          let point k est =
            Obs_json.Obj
              (("eps", Obs_json.Float grid.(k)) :: rare_est_json est)
          in
          print_endline
            (Obs_json.to_string
               (Obs_json.Obj
                  (net_fields net
                  @ [
                      ("method", Obs_json.String "tilt");
                      ("trials", Obs_json.Int trials);
                      ( "curve",
                        Obs_json.List (Array.to_list (Array.mapi point ests))
                      );
                    ])))
        else begin
          Format.printf "%a@." Network.pp net;
          Format.printf
            "rare-event failure curve (tilted IS tuned at eps=%g, %d \
             coupled trials, jobs=%d):@."
            eps_min trials jobs;
          Format.printf "  %-12s %-12s %-9s %-24s %s@." "eps" "mean"
            "rel_err" "95% CI" "var_ratio";
          Array.iteri
            (fun k (e : Splitting.estimate) ->
              Format.printf "  %-12g %-12.4e %-9.4f [%.3e, %.3e]  %.4g@."
                grid.(k) e.Splitting.mean e.Splitting.rel_err
                e.Splitting.ci_low e.Splitting.ci_high
                e.Splitting.variance_ratio)
            ests
        end
    | None -> (
        let tilt_est =
          match method_ with
          | `Tilt | `Both ->
              let tilt = tune eps in
              let est =
                phase obs "estimate-tilt" (fun () ->
                    Ftcsn.Rare.failure_tilted ~jobs ?trace:obs.trace ~trials
                      ~rng ~eps ~tilt net)
              in
              note_rare_estimate obs "rare.tilt" est;
              Some est
          | `Split -> None
        in
        let split_res =
          match method_ with
          | `Split | `Both ->
              let schedule =
                checked "level-pilot" @@ fun () ->
                phase obs "pilot-levels" (fun () ->
                    Ftcsn.Rare.pilot_schedule ~particles ~p0:level_p0 ~mutate
                      ?trace:obs.trace ~rng ~eps net)
              in
              let est =
                phase obs "estimate-split" (fun () ->
                    Ftcsn.Rare.failure_split ~jobs ?trace:obs.trace ~mutate
                      ~trials ~rng ~schedule net)
              in
              note_rare_estimate obs "rare.split" est;
              Some (schedule, est)
          | `Tilt -> None
        in
        if json then
          let list f a = Obs_json.List (Array.to_list (Array.map f a)) in
          print_endline
            (Obs_json.to_string
               (Obs_json.Obj
                  (net_fields net
                  @ [
                      ("eps", Obs_json.Float eps);
                      ("method", Obs_json.String method_name);
                    ]
                  @ (match tilt_est with
                    | Some e -> [ ("tilt", Obs_json.Obj (rare_est_json e)) ]
                    | None -> [])
                  @
                  match split_res with
                  | Some (sched, e) ->
                      [
                        ( "split",
                          Obs_json.Obj
                            (rare_est_json e
                            @ [
                                ( "levels",
                                  list
                                    (fun l -> Obs_json.Float l)
                                    sched.Splitting.levels );
                                ( "splits",
                                  list
                                    (fun s -> Obs_json.Int s)
                                    sched.Splitting.splits );
                                ( "entry_rate",
                                  Obs_json.Float sched.Splitting.entry_rate );
                              ]) );
                      ]
                  | None -> [])))
        else begin
          Format.printf "%a@." Network.pp net;
          Format.printf
            "rare-event failure estimate at eps=%g (superconcentrator \
             probes, jobs=%d):@."
            eps jobs;
          Format.printf "  %-6s %-12s %-9s %-24s %-8s %-12s %s@." "method"
            "mean" "rel_err" "95% CI" "trials" "var_ratio" "evals";
          Option.iter (print_rare_row "tilt") tilt_est;
          (match split_res with
          | Some (sched, e) ->
              print_rare_row "split" e;
              Format.printf "  level schedule (%d levels, entry rate %.3g):@."
                (Array.length sched.Splitting.levels)
                sched.Splitting.entry_rate;
              Array.iteri
                (fun d l ->
                  let s =
                    if d < Array.length sched.Splitting.splits then
                      Printf.sprintf " x%d" sched.Splitting.splits.(d)
                    else ""
                  in
                  Format.printf "    L%d: eps <= %.4e%s@." d l s)
                sched.Splitting.levels
          | None -> ());
          match method_ with
          | `Both ->
              Format.printf
                "  (tilt measures the full event, split its monotone part; \
                 the gap is the O(eps^2) shorted-terminal term)@."
          | _ -> ()
        end)
  in
  let eps =
    float_flag "eps" ~default:1e-6
      ~ok:(fun e -> e > 0.0 && e <= 0.5)
      ~need:"need 0 < EPS <= 0.5" ~docv:"EPS"
      ~doc:
        "Target per-switch failure probability (open = closed = EPS); the \
         subcommand exists for the paper's EPS = 1e-6 regime."
  in
  let grid =
    eps_grid_arg
      ~doc:
        "Tilted-IS curve over $(docv) = LO:HI:STEPS[:log|:lin]: one tilted \
         sample per trial serves every grid point (only the likelihood \
         weights differ).  Only --method tilt supports it."
      ()
  in
  let method_ =
    let doc =
      "Estimator: $(b,tilt) (cross-entropy-tilted importance sampling, \
       full failure event), $(b,split) (multilevel splitting/RESTART on \
       the monotone sub-event), or $(b,both)."
    in
    let parse s =
      match s with
      | "tilt" -> (s, `Tilt)
      | "split" -> (s, `Split)
      | "both" -> (s, `Both)
      | s -> die "invalid --method value %S: expected tilt, split or both" s
    in
    Term.(
      const parse
      $ Arg.(value & opt string "tilt" & info [ "method" ] ~docv:"METHOD" ~doc))
  in
  let trials =
    trials_arg ~default:10_000
      ~doc:"Independent root trials for the main estimation phase."
  in
  let pilot_trials =
    int_flag "pilot-trials" ~default:1000 ~docv:"T"
      ~doc:"Trials per cross-entropy tuning iteration."
  in
  let tilt_iters =
    int_flag "tilt-iters" ~default:4 ~docv:"K"
      ~doc:"Cross-entropy tuning iterations."
  in
  let per_edge =
    Arg.(
      value & flag
      & info [ "per-edge-tilt" ]
          ~doc:
            "Tune one tilt per switch instead of a shared pair (more \
             parameters; needs more pilot trials to stabilize).")
  in
  let particles =
    int_flag "particles" ~default:256 ~docv:"P"
      ~doc:"Pilot population size for the splitting level schedule."
  in
  let level_p0 =
    float_flag "level-p0" ~default:0.2
      ~ok:(fun q -> q > 0.0 && q < 1.0)
      ~need:"must lie in (0, 1)" ~docv:"Q"
      ~doc:
        "Target conditional success fraction per splitting level (the \
         pilot places each level at this quantile)."
  in
  let mutate =
    float_flag "mutate" ~default:0.2
      ~ok:(fun r -> r > 0.0 && r <= 1.0)
      ~need:"must lie in (0, 1]" ~docv:"R"
      ~doc:
        "Per-coordinate resampling probability of the splitting \
         Metropolis move."
  in
  let doc =
    "Rare-event failure estimation for the paper's eps = 1e-6 regime: \
     cross-entropy-tilted importance sampling and/or multilevel \
     splitting, orders of magnitude fewer trials than plain Monte Carlo \
     at the same relative error."
  in
  Cmd.v (Cmd.info "rare" ~doc)
    Term.(
      const run $ net_args $ trials $ jobs_arg $ pilot_trials $ tilt_iters
      $ particles $ eps $ level_p0 $ mutate $ method_ $ grid $ per_edge
      $ json_flag $ obs_args)

(* ---------- traffic ---------- *)

(* greedy | rearrange[:BUDGET] | staged | loop — BUDGET caps the
   backtracking search per re-lay attempt (default 10000 states) *)
let parse_policy s =
  match String.split_on_char ':' s with
  | [ "greedy" ] -> Traffic.Route_greedy
  | [ "rearrange" ] -> Traffic.Route_rearrange 10_000
  | [ "rearrange"; b ] -> (
      match int_of_string_opt b with
      | Some k when k >= 1 -> Traffic.Route_rearrange k
      | _ ->
          die "invalid --policy value %S: BUDGET %S must be an integer >= 1" s b)
  | [ "staged" ] -> Traffic.Route_staged
  | [ "loop" ] -> Traffic.Route_loop
  | _ ->
      die
        "invalid --policy value %S: expected greedy, rearrange[:BUDGET], \
         staged or loop"
        s

(* Traffic.config's own checks span several flags (measured calls >=
   batches, ...); traffic and tournament both run them before any work *)
let traffic_config ?load ?holding ?mtbf ~mttr ~warmup ~calls ?batches ?policy
    () =
  try
    Traffic.config ?load ?holding ?mtbf ~mttr
      ~stop:(Traffic.Calls { warmup; measured = calls })
      ?batches ?policy ()
  with Invalid_argument msg -> die "%s" msg

let traffic_cmd =
  let run net_args trials jobs calls batches warmup load mtbf mttr holding
      policy json obsargs =
    let config =
      traffic_config ~load ~holding ?mtbf ~mttr ~warmup ~calls ~batches
        ~policy ()
    in
    with_net obsargs net_args @@ fun obs ({ Topology.net; _ } as built) ->
    let rng = Seeds.traffic net_args.seed in
    (* which router engaged after fallback resolution (e.g. --policy loop
       on a non-Benes family reports staged or bfs) *)
    let router = Traffic.router_name config net in
    let s =
      phase obs "estimate" (fun () ->
          Traffic.estimate ~jobs ?trace:obs.trace ~trials ~rng ~config net)
    in
    let b = s.Traffic.blocking in
    Obs_metrics.set_gauge obs.registry "traffic.blocking.mean"
      b.Batch_means.mean;
    Obs_metrics.set_gauge obs.registry "traffic.blocking.ci_low"
      b.Batch_means.ci_low;
    Obs_metrics.set_gauge obs.registry "traffic.blocking.ci_high"
      b.Batch_means.ci_high;
    Obs_metrics.set_gauge obs.registry "traffic.occupancy" s.Traffic.occupancy;
    if json then
      print_endline
        (Obs_json.to_string
           (Obs_json.Obj
              (net_fields net
              @ [
                  ("n_requested", Obs_json.Int built.Topology.n_requested);
                  ("n_effective", Obs_json.Int built.Topology.n_effective);
                  ("router", Obs_json.String router);
                  ("load", Obs_json.Float load);
                  ( "holding",
                    Obs_json.String (Format.asprintf "%a" Dist.pp_holding holding)
                  );
                  ("replications", Obs_json.Int s.Traffic.replications);
                  ("blocking", Obs_json.Float b.Batch_means.mean);
                  ("blocking_ci_low", Obs_json.Float b.Batch_means.ci_low);
                  ("blocking_ci_high", Obs_json.Float b.Batch_means.ci_high);
                  ("batches", Obs_json.Int b.Batch_means.batches);
                  ("measured_calls", Obs_json.Int b.Batch_means.count);
                  ("occupancy", Obs_json.Float s.Traffic.occupancy);
                  ("carried", Obs_json.Float s.Traffic.carried);
                  ("offered", Obs_json.Int s.Traffic.t_offered);
                  ("served", Obs_json.Int s.Traffic.t_served);
                  ("blocked", Obs_json.Int s.Traffic.t_blocked);
                  ("blocked_full", Obs_json.Int s.Traffic.t_blocked_full);
                  ("dropped", Obs_json.Int s.Traffic.t_dropped);
                  ("rerouted", Obs_json.Int s.Traffic.t_rerouted);
                  ("failures", Obs_json.Int s.Traffic.t_failures);
                  ("repairs", Obs_json.Int s.Traffic.t_repairs);
                  ("events", Obs_json.Int s.Traffic.t_events);
                  ("sim_time", Obs_json.Float s.Traffic.t_sim_time);
                  ("catastrophes", Obs_json.Int s.Traffic.catastrophes);
                ])))
    else begin
      Format.printf "%a@." Network.pp net;
      if built.Topology.n_effective <> built.Topology.n_requested then
        Format.printf "effective n: %d (requested %d)@."
          built.Topology.n_effective built.Topology.n_requested
      else Format.printf "effective n: %d@." built.Topology.n_effective;
      Format.printf
        "offered load %g Erlang, holding %a, %d replication%s x (%d warmup \
         + %d measured calls), jobs=%d@."
        load Dist.pp_holding holding s.Traffic.replications
        (if s.Traffic.replications = 1 then "" else "s")
        warmup calls jobs;
      Format.printf "router: %s@." router;
      Format.printf
        "blocking: %.5f  (95%% CI [%.5f, %.5f], %d batches, %d measured calls)@."
        b.Batch_means.mean b.Batch_means.ci_low b.Batch_means.ci_high
        b.Batch_means.batches b.Batch_means.count;
      Format.printf
        "occupancy (Little's L): %.3f   carried (lambda x W): %.3f@."
        s.Traffic.occupancy s.Traffic.carried;
      Format.printf
        "offered=%d served=%d blocked=%d (system-full=%d) dropped=%d \
         rerouted=%d@."
        s.Traffic.t_offered s.Traffic.t_served s.Traffic.t_blocked
        s.Traffic.t_blocked_full s.Traffic.t_dropped s.Traffic.t_rerouted;
      Format.printf "failures=%d repairs=%d events=%d sim-time=%.1f@."
        s.Traffic.t_failures s.Traffic.t_repairs s.Traffic.t_events
        s.Traffic.t_sim_time;
      if s.Traffic.catastrophes > 0 then
        Format.printf "catastrophes (terminals fused): %d replication%s@."
          s.Traffic.catastrophes
          (if s.Traffic.catastrophes = 1 then "" else "s")
    end
  in
  let load =
    Term.(
      const check_load
      $ Arg.(
          value & opt float 1.0
          & info [ "load" ] ~docv:"ERLANGS"
              ~doc:
                "Offered load in Erlangs (arrival rate; holding times have \
                 unit mean)."))
  in
  let batches =
    int_flag "batches" ~default:10 ~docv:"B"
      ~doc:
        "Batch-means batches per replication (Student-t interval over the \
         pooled batch means)."
  in
  let policy =
    Term.(
      const parse_policy
      $ Arg.(
          value & opt string "greedy"
          & info [ "policy" ] ~docv:"P"
              ~doc:
                "Routing policy: greedy (strictly-nonblocking operation), \
                 rearrange[:BUDGET] (re-lay all live calls with \
                 backtracking when the greedy probe blocks; default budget \
                 10000), staged (level-bounded dive on staged families) \
                 or loop (Benes block-tree descent with staged \
                 fallback).  staged/loop keep greedy's accept/block \
                 decisions but route each call in O(depth) instead of \
                 O(switches); the table and JSON report which router \
                 actually engaged."))
  in
  let trials =
    trials_arg ~default:5 ~doc:"Independent replications (one substream each)."
  in
  let doc =
    "Continuous-time call traffic through the network: Poisson arrivals, \
     unit-mean holding times, optional switch failure/repair clocks; \
     reports steady-state blocking with batch-means confidence intervals \
     and a Little's-law occupancy cross-check."
  in
  Cmd.v (Cmd.info "traffic" ~doc)
    Term.(
      const run $ net_args $ trials $ jobs_arg $ calls_arg ~default:5000
      $ batches $ warmup_arg ~default:500 $ load $ mtbf_arg () $ mttr_arg
      $ holding_arg $ policy $ json_flag $ obs_args)

(* ---------- serve ---------- *)

(* The daemon exits through with_obs's finally (sinks flushed) and only
   then converts the stop reason into a process exit code, so `exit`
   never bypasses the cleanup. *)
let serve_cmd =
  let run net_args calls mtbf mttr speed max_load queue holding engine_kind
      replay socket obsargs =
    (match (replay, socket) with
    | Some _, Some _ -> die "--replay and --socket cannot both be given"
    | _ -> ());
    let max_calls = if calls = 0 then max_int else calls in
    let code =
      with_net obsargs net_args @@ fun obs { Topology.net; _ } ->
      let rng = Seeds.serve net_args.seed in
      (* responses go to the current sink: stdout, or the connected
         client in --socket mode *)
      let sink = ref stdout in
      let line = Buffer.create 256 in
      let emit r =
        Buffer.clear line;
        Ftcsn_serve.Proto.write_response line r;
        Buffer.add_char line '\n';
        Buffer.output_buffer !sink line
      in
      let engine =
        try
          Serve_engine.create ~engine:engine_kind ~holding
            ~mtbf:(Option.value mtbf ~default:infinity)
            ~mttr ?trace:obs.trace ~emit ~rng net
        with Invalid_argument msg -> die "%s" msg
      in
      let admission =
        Admission.combine
          ((match max_load with
           | Some l -> [ Admission.max_load l ]
           | None -> [])
          @ [ Admission.queue_limit queue ])
      in
      (* replace the raising handlers: the reactor polls this flag, so
         it can drain, print the summary and still flush sinks *)
      let stop_sig = ref 0 in
      let arm s =
        try Sys.set_signal s (Sys.Signal_handle (fun _ -> stop_sig := s))
        with Invalid_argument _ | Sys_error _ -> ()
      in
      arm Sys.sigint;
      arm Sys.sigterm;
      let stop () = !stop_sig <> 0 in
      Printf.eprintf
        "serve: %s, engine %s, admission %s, %s%s\n%!"
        net.Network.name
        (Serve_engine.engine_label engine)
        (Admission.name admission)
        (match replay with
        | Some f -> Printf.sprintf "replay from %s" f
        | None -> (
            match socket with
            | Some p -> Printf.sprintf "listening on %s" p
            | None -> "live on stdin"))
        (match mtbf with
        | Some t -> Printf.sprintf ", failures on (mtbf %g, mttr %g)" t mttr
        | None -> ", failures off");
      let reason =
        match replay with
        | Some file ->
            let ic =
              if file = "-" then stdin
              else
                try open_in file
                with Sys_error msg ->
                  die "cannot open --replay file %S: %s" file msg
            in
            Fun.protect
              ~finally:(fun () -> if file <> "-" then close_in_noerr ic)
              (fun () ->
                Serve_loop.replay ~engine ~admission ~emit ~max_calls ~stop
                  ic)
        | None -> (
            match socket with
            | None ->
                Serve_loop.live ~engine ~admission ~emit ~max_calls ~stop
                  ~speed
                  ~flush:(fun () -> flush stdout)
                  Unix.stdin
            | Some path ->
                (* refuse to clobber anything that is not a stale socket *)
                (match Unix.stat path with
                | { Unix.st_kind = Unix.S_SOCK; _ } -> Unix.unlink path
                | _ -> die "--socket path %S exists and is not a socket" path
                | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ());
                let srv = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
                Unix.bind srv (Unix.ADDR_UNIX path);
                Unix.listen srv 8;
                let reason = ref Serve_loop.Eof in
                let finished = ref false in
                Fun.protect
                  ~finally:(fun () ->
                    Unix.close srv;
                    try Unix.unlink path with Unix.Unix_error _ -> ())
                  (fun () ->
                    while not !finished do
                      if stop () then begin
                        reason := Serve_loop.Interrupted;
                        finished := true
                      end
                      else
                        let readable, _, _ =
                          try Unix.select [ srv ] [] [] 0.2
                          with Unix.Unix_error (Unix.EINTR, _, _) ->
                            ([], [], [])
                        in
                        if readable <> [] then begin
                          let client, _ = Unix.accept srv in
                          let oc = Unix.out_channel_of_descr client in
                          sink := oc;
                          let r =
                            Serve_loop.live ~engine ~admission ~emit
                              ~max_calls ~stop ~speed
                              ~flush:(fun () -> flush oc)
                              client
                          in
                          sink := stdout;
                          (try flush oc with Sys_error _ -> ());
                          (try Unix.close client
                           with Unix.Unix_error _ -> ());
                          match r with
                          | Serve_loop.Eof -> () (* next client *)
                          | r ->
                              reason := r;
                              finished := true
                        end
                    done;
                    !reason))
      in
      flush stdout;
      Obs_metrics.set_gauge obs.registry "serve.decisions"
        (float_of_int (Serve_engine.decisions engine));
      Obs_metrics.set_gauge obs.registry "serve.sim_time"
        (Serve_engine.now engine);
      (* the final summary goes to stderr: stdout carries only the
         response stream *)
      Printf.eprintf "%s%s\n%!"
        (Serve_engine.summary engine)
        (match reason with
        | Serve_loop.Eof -> ""
        | Serve_loop.Limit -> " [stopped: --calls bound]"
        | Serve_loop.Interrupted -> " [stopped: signal]");
      match reason with
      | Serve_loop.Interrupted -> signal_exit_code !stop_sig
      | _ -> 0
    in
    if code <> 0 then exit code
  in
  let calls =
    Term.(
      const (fun c ->
          if c < 0 then
            die "invalid --calls value %d: must be >= 0 (0 = unbounded)" c
          else c)
      $ Arg.(
          value & opt int 0
          & info [ "calls" ] ~docv:"N"
              ~doc:
                "Stop after $(docv) call decisions (accept + block + \
                 overload).  0 = unbounded."))
  in
  let speed =
    float_flag "speed" ~default:1.0
      ~ok:(fun x -> x > 0.0 && Float.is_finite x)
      ~need:"must be a finite factor > 0" ~docv:"X"
      ~doc:
        "Wall-clock coupling for live mode: $(docv) virtual time units \
         elapse per wall second (ignored under --replay)."
  in
  let max_load =
    Term.(
      const
        (Option.map
           (check_float "--max-load"
              (fun l -> l > 0.0 && l <= 1.0)
              "must be an occupancy in (0, 1]"))
      $ Arg.(
          value
          & opt (some float) None
          & info [ "max-load" ] ~docv:"L"
              ~doc:
                "Admission control: shed call requests with an overload \
                 reply once fabric occupancy (live calls / capacity) \
                 reaches $(docv) in (0, 1].  Omit to admit up to the \
                 routing layer's verdict."))
  in
  let queue =
    int_flag "queue" ~default:1024 ~docv:"K"
      ~doc:
        "Backpressure bound: at most $(docv) requests pending in the \
         reactor before new call requests are shed with an overload reply \
         instead of buffered."
  in
  let engine_kind =
    let parse policy =
      match parse_policy policy with
      | Traffic.Route_greedy -> `Bfs
      | Traffic.Route_staged -> `Staged
      | Traffic.Route_loop -> `Loop
      | Traffic.Route_rearrange _ ->
          die
            "invalid --policy value %S: serve routes one request at a time \
             (greedy, staged or loop)"
            policy
    in
    Term.(
      const parse
      $ Arg.(
          value & opt string "greedy"
          & info [ "policy" ] ~docv:"P"
              ~doc:
                "Routing engine for live decisions: greedy (CSR-order BFS), \
                 staged (level-bounded dive) or loop (Benes \
                 block-tree descent).  All three agree on accept vs block; \
                 rearrange is not available because the daemon decides one \
                 request at a time."))
  in
  let replay =
    Arg.(
      value & opt (some string) None
      & info [ "replay" ] ~docv:"FILE"
          ~doc:
            "Replay a scripted request file (one line-JSON request per \
             line; - for stdin) as fast as possible, driving virtual time \
             from the requests' \"at\" fields only.  Deterministic: the \
             same file, seed and options produce a byte-identical response \
             stream.")
  in
  let socket =
    Arg.(
      value & opt (some string) None
      & info [ "socket" ] ~docv:"PATH"
          ~doc:
            "Listen on a Unix-domain socket instead of stdin; clients are \
             served one at a time against the same persistent fabric.")
  in
  let doc =
    "Live switch-controller daemon over the DES fabric: line-JSON \
     connection requests in (stdin, --replay FILE, or a Unix socket), one \
     accept/block/overload decision line out per request, with per-switch \
     failure/repair churn firing between requests and asynchronous \
     rerouted/dropped/released notifications as calls are hit.  A \
     metrics request returns a live JSON snapshot; --trace emits one \
     span per decision."
  in
  Cmd.v (Cmd.info "serve" ~doc)
    Term.(
      const run $ net_args $ calls $ mtbf_arg () $ mttr_arg $ speed $ max_load
      $ queue $ holding_arg $ engine_kind $ replay $ socket $ obs_args)

(* ---------- degrade ---------- *)

let degrade_cmd =
  let run net_args trials jobs ticks hazard arrival obsargs =
    with_net obsargs net_args @@ fun obs { Topology.net; _ } ->
    let rng = Seeds.degrade net_args.seed in
    (* a per-tick hazard is an exponential failure clock of mean 1/hazard
       (the same expected failures per unit time), repairs stay off, and
       the ticks are the time horizon *)
    let mtbf = if hazard > 0.0 then 1.0 /. hazard else infinity in
    let stop = Traffic.Horizon (float_of_int ticks) in
    let tick_of t = int_of_float (ceil t) in
    if trials <= 1 then begin
      let config =
        Traffic.config ~load:arrival ~mtbf ~mttr:infinity ~stop ()
      in
      let s = phase obs "session" (fun () -> Traffic.run ~rng ~config net) in
      Format.printf "%a@." Network.pp net;
      (* placed counts reroutes; blocked counts only requests between idle
         terminals, never system-full losses *)
      Format.printf
        "ticks=%d placed=%d blocked=%d dropped=%d rerouted=%d failures=%d@."
        (match s.Traffic.catastrophe_at with
        | Some t -> max 1 (tick_of t)
        | None -> ticks)
        (s.Traffic.served + s.Traffic.rerouted)
        (s.Traffic.blocked - s.Traffic.blocked_full)
        s.Traffic.dropped s.Traffic.rerouted s.Traffic.failures;
      match s.Traffic.catastrophe_at with
      | Some t ->
          Format.printf "catastrophe (terminals fused) at tick %d@." (tick_of t)
      | None -> Format.printf "no catastrophe within the horizon@."
    end
    else begin
      (* a saturated run stops at its first service failure or at the
         horizon, so its sim_time is the time to degradation *)
      let config =
        Traffic.config ~load:0.0 ~mtbf ~mttr:infinity ~stop ~saturate:true
          ~stop_on_degradation:true ()
      in
      let s =
        phase obs "estimate" (fun () ->
            Traffic.estimate ~jobs ?trace:obs.trace ~label:"degrade.mttd"
              ~trials ~rng ~config net)
      in
      let mttd = s.Traffic.t_sim_time /. float_of_int s.Traffic.replications in
      Obs_metrics.set_gauge obs.registry "degrade.mttd_ticks" mttd;
      Format.printf "%a@." Network.pp net;
      Format.printf
        "mean time to degradation: %.0f ticks (%d trials, horizon %d, jobs=%d)@."
        mttd trials ticks jobs
    end
  in
  let probability =
    float_flag
      ~ok:(fun p -> p >= 0.0 && p <= 1.0)
      ~need:"must be a probability in [0, 1]"
  in
  let hazard =
    probability "hazard" ~default:1e-5 ~docv:"H"
      ~doc:"Per-switch failure probability per tick."
  in
  let arrival =
    probability "arrival" ~default:0.6 ~docv:"A"
      ~doc:
        "Per-tick call arrival probability in [0, 1] (single-run mode; the \
         multi-trial estimator always saturates)."
  in
  let ticks =
    int_flag "ticks" ~default:2000 ~docv:"T" ~doc:"Simulation horizon."
  in
  let trials =
    trials_arg ~default:1
      ~doc:
        "With T > 1, report mean time to degradation under saturating \
         traffic over T independent sessions instead of one traced run."
  in
  let doc = "Age the network under live traffic and report degradation." in
  Cmd.v (Cmd.info "degrade" ~doc)
    Term.(
      const run $ net_args $ trials $ jobs_arg $ ticks $ hazard $ arrival
      $ obs_args)

(* ---------- critical ---------- *)

let critical_cmd =
  let run net_args eps trials jobs sample obsargs =
    with_net obsargs net_args @@ fun obs { Topology.net; _ } ->
    let rng = Seeds.critical net_args.seed in
    let g = net.Network.graph in
    (* event: the stripped survivor fails the class-fair probes; runs on
       a per-domain Fault_strip workspace so the 3·sample evaluations per
       trial stay allocation-free *)
    let init () = strip_ws net in
    let event ws pattern =
      Strip.strip_into ws pattern;
      (not (Strip.ws_healthy ws)) || Strip.ws_isolated_inputs ws <> []
    in
    let ranked =
      phase obs "estimate" (fun () ->
          Ftcsn_reliability.Importance.rank ~jobs ?trace:obs.trace ~trials
            ~rng ~graph:g ~eps ~init ~event ~sample ())
    in
    Format.printf "%a@." Network.pp net;
    Format.printf "most critical sampled switches (Birnbaum, %d trials):@."
      trials;
    Array.iteri
      (fun i e ->
        if i < 10 then
          let src, dst =
            Ftcsn_graph.Digraph.edge_endpoints g e.Ftcsn_reliability.Importance.switch
          in
          Format.printf "  switch %5d (%d -> %d): open %+.4f  close %+.4f@."
            e.Ftcsn_reliability.Importance.switch src dst
            e.Ftcsn_reliability.Importance.open_importance
            e.Ftcsn_reliability.Importance.close_importance)
      ranked
  in
  let sample =
    int_flag "sample" ~default:24 ~docv:"S"
      ~doc:"Number of switches to sample for ranking."
  in
  let trials = trials_arg ~default:300 ~doc:"Trials per switch." in
  let doc = "Rank switches by Birnbaum criticality for the survival event." in
  Cmd.v (Cmd.info "critical" ~doc)
    Term.(
      const run $ net_args $ eps_arg $ trials $ jobs_arg $ sample $ obs_args)

(* ---------- render ---------- *)

let render_cmd =
  let run net_args kind =
    match kind with
    | `Grid ->
        let s = Ftcsn.Directed_grid.make ~rows:net_args.n ~stages:8 in
        print_string (Ftcsn.Directed_grid.render s)
    | `Census ->
        let net = (build_network net_args).Topology.net in
        print_string
          (Ftcsn_graph.Render.ascii_stages net.Network.graph
             ~inputs:(Array.to_list net.Network.inputs))
    | `Dot ->
        let net = (build_network net_args).Topology.net in
        print_string (Ftcsn_graph.Render.to_dot net.Network.graph)
  in
  let kind =
    Arg.(
      value
      & opt (enum [ ("grid", `Grid); ("census", `Census); ("dot", `Dot) ]) `Census
      & info [ "kind" ] ~docv:"KIND" ~doc:"grid | census | dot.")
  in
  let doc = "ASCII/DOT renderings." in
  Cmd.v (Cmd.info "render" ~doc) Term.(const run $ net_args $ kind)

(* ---------- tournament ---------- *)

let tournament_cmd =
  let run n seed trials traffic_trials calls warmup jobs grid load mtbf mttr
      json obsargs =
    ignore (traffic_config ?load ?mtbf ~mttr ~warmup ~calls ());
    with_obs obsargs @@ fun obs ->
    let note fam =
      if Option.is_some obs.progress then
        Printf.eprintf "tournament: sweeping %s\n%!" fam
    in
    let outcome =
      phase obs "tournament" (fun () ->
          Ftcsn.Tournament.run ~jobs ?trace:obs.trace ?progress:obs.progress
            ~note ?load ?mtbf ~mttr ~trials ~eps:grid ~traffic_trials ~calls
            ~warmup ~n ~seed ())
    in
    if json then
      print_endline (Obs_json.to_string (Ftcsn.Tournament.to_json outcome))
    else begin
      Ftcsn_util.Table.print (Ftcsn.Tournament.to_table outcome);
      Format.printf
        "front: * = Pareto-optimal on (edges/terminal, survival at \
         eps=%g); traffic: load %s Erlangs, mtbf %g, mttr %g@."
        grid.(Array.length grid - 1)
        (match load with Some l -> Printf.sprintf "%g" l | None -> "n/4")
        (Option.get mtbf) mttr;
      List.iter
        (fun (fam, why) -> Format.printf "skipped %s: %s@." fam why)
        outcome.Ftcsn.Tournament.skipped
    end
  in
  let grid =
    Term.(
      const Option.get
      $ eps_grid_arg ~default:"0.001:0.05:4:log"
          ~doc:
            "ε grid LO:HI:STEPS[:log|:lin] for the coupled survival sweep; \
             the Pareto front is computed at the harshest (last) grid point."
          ())
  in
  let trials =
    trials_arg ~default:150
      ~doc:"Coupled survival trials per family (shared by every grid point)."
  in
  let traffic_trials =
    int_flag "traffic-trials" ~default:3 ~docv:"T"
      ~doc:"Traffic replications per family (one substream each)."
  in
  let load =
    Term.(
      const (Option.map check_load)
      $ Arg.(
          value
          & opt (some float) None
          & info [ "load" ] ~docv:"ERLANGS"
              ~doc:
                "Offered load in Erlangs (default: effective n / 4, scaling \
                 the workload with each family's terminal count)."))
  in
  let doc =
    "Race every registered topology family through the coupled survival \
     sweep and the call-traffic engine at a common n; report fault \
     tolerance against edges per terminal with a Pareto-front marker."
  in
  Cmd.v (Cmd.info "tournament" ~doc)
    Term.(
      const run $ n_arg $ seed_arg $ trials $ traffic_trials
      $ calls_arg ~default:1000 $ warmup_arg ~default:100 $ jobs_arg $ grid
      $ load $ mtbf_arg ~default:500.0 () $ mttr_arg $ json_flag $ obs_args)

let () =
  (* the paper's family lives in lib/core, which the networks registry
     cannot depend on; install it before any spec is parsed *)
  Ftcsn.Ft_topology.install ();
  let doc = "fault-tolerant circuit-switching networks (Pippenger & Lin)" in
  let info = Cmd.info "ftnet" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            build_cmd; topologies_cmd; faults_cmd; route_cmd; check_cmd;
            survive_cmd; curve_cmd; rare_cmd; traffic_cmd; serve_cmd;
            tournament_cmd; degrade_cmd;
            critical_cmd; render_cmd;
          ]))
