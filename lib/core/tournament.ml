module Topology = Ftcsn_networks.Topology
module Network = Ftcsn_networks.Network
module Monte_carlo = Ftcsn_reliability.Monte_carlo
module Trials = Ftcsn_sim.Trials
module Traffic = Ftcsn_des.Traffic
module Batch_means = Ftcsn_des.Batch_means
module Table = Ftcsn_util.Table
module Json = Ftcsn_obs.Json

type entry = {
  gen : Topology.gen;
  spec : string;
  net_name : string;
  n : int;
  n_requested : int;
  size : int;
  depth : int;
  edges_per_terminal : float;
  survival : Monte_carlo.estimate array;
  blocking_mean : float;
  blocking_ci_low : float;
  blocking_ci_high : float;
  catastrophes : int;
  pareto : bool;
}

type outcome = {
  eps : float array;
  entries : entry list;
  skipped : (string * string) list;
}

(* survival at the harshest grid point — the fault-tolerance score the
   Pareto front is computed on *)
let score e = e.survival.(Array.length e.survival - 1).Trials.mean

let mark_pareto entries =
  List.map
    (fun e ->
      let dominated =
        List.exists
          (fun o ->
            o != e
            && o.edges_per_terminal <= e.edges_per_terminal
            && score o >= score e
            && (o.edges_per_terminal < e.edges_per_terminal
               || score o > score e))
          entries
      in
      { e with pareto = not dominated })
    entries

let run ?jobs ?trace ?progress ?note ?load ?(mtbf = 500.0) ?(mttr = 10.0)
    ~trials ~eps ~traffic_trials ~calls ~warmup ~n ~seed () =
  if Array.length eps = 0 then invalid_arg "Tournament.run: empty eps grid";
  Ft_topology.install ();
  let entries = ref [] and skipped = ref [] in
  List.iter
    (fun (gen : Topology.gen) ->
      (match note with Some f -> f gen.Topology.name | None -> ());
      let spec = { Topology.family = gen.Topology.name; args = [] } in
      (* the same --seed denotes the same network, the same survival
         stream and the same traffic stream as the standalone
         subcommands *)
      match Topology.build ~n ~rng:(Seeds.network seed) spec with
      | Error msg -> skipped := (gen.Topology.name, msg) :: !skipped
      | Ok b ->
          let net = b.Topology.net in
          let n_eff = b.Topology.n_effective in
          let survival =
            Pipeline.survival_curve ?jobs ?progress ?trace ~trials
              ~rng:(Seeds.curve seed) ~eps ~probe:Pipeline.sc_probe_only net
          in
          let load =
            match load with Some l -> l | None -> float_of_int n_eff /. 4.0
          in
          let config =
            Traffic.config ~load ~mtbf ~mttr
              ~stop:(Traffic.Calls { warmup; measured = calls })
              ()
          in
          let s =
            Traffic.estimate ?jobs ?trace
              ~label:("tournament." ^ gen.Topology.name)
              ~trials:traffic_trials ~rng:(Seeds.traffic seed) ~config net
          in
          let blocking = s.Traffic.blocking in
          entries :=
            {
              gen;
              spec = Topology.to_string spec;
              net_name = net.Network.name;
              n = n_eff;
              n_requested = b.Topology.n_requested;
              size = Network.size net;
              depth = Network.depth net;
              edges_per_terminal =
                float_of_int (Network.size net) /. float_of_int n_eff;
              survival;
              blocking_mean = blocking.Batch_means.mean;
              blocking_ci_low = blocking.Batch_means.ci_low;
              blocking_ci_high = blocking.Batch_means.ci_high;
              catastrophes = s.Traffic.catastrophes;
              pareto = false;
            }
            :: !entries)
    (Topology.all ());
  let entries =
    List.sort
      (fun a b -> compare a.edges_per_terminal b.edges_per_terminal)
      (mark_pareto !entries)
  in
  { eps; entries; skipped = List.rev !skipped }

let to_table { eps; entries; skipped = _ } =
  let lo = eps.(0) and hi = eps.(Array.length eps - 1) in
  let t =
    Table.create
      ~title:"tournament: fault tolerance vs edges per terminal"
      ~columns:
        [
          ("family", Table.Left); ("n", Table.Right); ("size", Table.Right);
          ("depth", Table.Right); ("edges/term", Table.Right);
          (Printf.sprintf "surv@%g" lo, Table.Right);
          (Printf.sprintf "surv@%g" hi, Table.Right);
          ("blocking", Table.Right); ("front", Table.Left);
        ]
  in
  List.iter
    (fun e ->
      Table.add_row t
        [
          e.gen.Topology.name; Table.fi e.n; Table.fi e.size; Table.fi e.depth;
          Table.ff ~decimals:1 e.edges_per_terminal;
          Table.ff ~decimals:3 e.survival.(0).Trials.mean;
          Table.ff ~decimals:3 (score e);
          Table.ff ~decimals:4 e.blocking_mean;
          (if e.pareto then "*" else "");
        ])
    entries;
  t

let to_json { eps; entries; skipped } =
  let curve e =
    Json.List
      (Array.to_list
         (Array.mapi
            (fun k (est : Trials.estimate) ->
              Json.Obj
                [
                  ("eps", Json.Float eps.(k));
                  ("mean", Json.Float est.Trials.mean);
                  ("ci_low", Json.Float est.Trials.ci_low);
                  ("ci_high", Json.Float est.Trials.ci_high);
                  ("successes", Json.Int est.Trials.successes);
                  ("trials", Json.Int est.Trials.trials);
                ])
            e.survival))
  in
  Json.Obj
    [
      ("eps", Json.List (Array.to_list (Array.map (fun e -> Json.Float e) eps)));
      ( "entries",
        Json.List
          (List.map
             (fun e ->
               Json.Obj
                 [
                   ("family", Json.String e.gen.Topology.name);
                   ("spec", Json.String e.spec);
                   ("net", Json.String e.net_name);
                   ("n", Json.Int e.n);
                   ("n_requested", Json.Int e.n_requested);
                   ("size", Json.Int e.size);
                   ("depth", Json.Int e.depth);
                   ("edges_per_terminal", Json.Float e.edges_per_terminal);
                   ("survival", curve e);
                   ("blocking", Json.Float e.blocking_mean);
                   ("blocking_ci_low", Json.Float e.blocking_ci_low);
                   ("blocking_ci_high", Json.Float e.blocking_ci_high);
                   ("catastrophes", Json.Int e.catastrophes);
                   ("pareto", Json.Bool e.pareto);
                 ])
             entries) );
      ( "skipped",
        Json.List
          (List.map
             (fun (family, reason) ->
               Json.Obj
                 [
                   ("family", Json.String family);
                   ("reason", Json.String reason);
                 ])
             skipped) );
    ]
