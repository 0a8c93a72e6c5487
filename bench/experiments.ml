(* Experiment harness: regenerates every theorem / lemma / figure of the
   paper as a printed table (see DESIGN.md section 4 for the index and
   EXPERIMENTS.md for recorded outcomes).

   All workloads are seeded; [scale] (set from the command line) divides
   Monte-Carlo trial counts so `--quick` runs finish fast. *)

module Table = Ftcsn_util.Table
module Prob = Ftcsn_util.Prob
module Stats = Ftcsn_util.Stats
module Rng = Ftcsn_prng.Rng
module Digraph = Ftcsn_graph.Digraph
module Traverse = Ftcsn_graph.Traverse
module Fault = Ftcsn_reliability.Fault
module Monte_carlo = Ftcsn_reliability.Monte_carlo
module Scratch = Ftcsn_reliability.Scratch
module Sp_network = Ftcsn_reliability.Sp_network
module Hammock = Ftcsn_reliability.Hammock
module Bipartite = Ftcsn_expander.Bipartite
module Random_regular = Ftcsn_expander.Random_regular
module Check = Ftcsn_expander.Check
module Spectral = Ftcsn_expander.Spectral
module Network = Ftcsn_networks.Network
module Topology = Ftcsn_networks.Topology
module Benes = Ftcsn_networks.Benes
module Butterfly = Ftcsn_networks.Butterfly
module Multibutterfly = Ftcsn_networks.Multibutterfly
module Cantor = Ftcsn_networks.Cantor
module Crossbar = Ftcsn_networks.Crossbar
module Clos = Ftcsn_networks.Clos
module Valiant_sc = Ftcsn_networks.Valiant_sc
module Ft_params = Ftcsn.Ft_params
module Ft_network = Ftcsn.Ft_network
module Fault_strip = Ftcsn.Fault_strip
module Pipeline = Ftcsn.Pipeline
module Directed_grid = Ftcsn.Directed_grid
module Tree_paths = Ftcsn.Tree_paths
module Lower_bound = Ftcsn.Lower_bound
module Tournament = Ftcsn.Tournament
module Traffic = Ftcsn_des.Traffic

let quick = ref false

let jobs = ref 1 (* worker domains for Monte-Carlo workloads (--jobs) *)

let trials base = if !quick then max 10 (base / 10) else base

let seed_of name = Hashtbl.hash name land 0xFFFF

let rng_for name = Rng.create ~seed:(seed_of name)

(* Every registered topology family built at a requested n with default
   parameters and a per-(experiment, family) deterministic rng; families
   that refuse the size (exact power-of-two generators asked for an
   off-grid n) are dropped, so registry-driven experiments pick up new
   generators automatically. *)
let registry_nets ~who ~n =
  Ftcsn.Ft_topology.install ();
  List.filter_map
    (fun (gen : Topology.gen) ->
      let name = gen.Topology.name in
      match
        Topology.build ~n
          ~rng:(rng_for (Printf.sprintf "%s-build-%s" who name))
          { Topology.family = name; args = [] }
      with
      | Ok b -> Some (name, b.Topology.net)
      | Error _ -> None)
    (Topology.all ())

(* One network from a spec string, for experiments that compare a fixed
   shortlist rather than the whole registry. *)
let net_of_spec ~who ~n spec =
  Ftcsn.Ft_topology.install ();
  match Topology.build_string ~n ~rng:(rng_for (who ^ "-" ^ spec)) spec with
  | Ok b -> b.Topology.net
  | Error msg -> failwith msg

let log2f x = log x /. log 2.0

let log4f x = log x /. log 4.0

(* ------------------------------------------------------------------ *)
(* E1 — Proposition 1: Moore–Shannon amplification                     *)
(* ------------------------------------------------------------------ *)

let e1_hammock () =
  let eps = 0.1 in
  let t =
    Table.create ~title:"E1  Proposition 1: (eps,eps')-1-networks at eps=0.1"
      ~columns:
        [
          ("target eps'", Table.Right);
          ("quad iters", Table.Right);
          ("size", Table.Right);
          ("depth", Table.Right);
          ("size/(lg 1/e')^2", Table.Right);
          ("depth/lg 1/e'", Table.Right);
          ("exact open", Table.Right);
          ("exact short", Table.Right);
        ]
  in
  List.iter
    (fun k ->
      let eps' = Prob.pow 0.5 k in
      let spec = Sp_network.design ~eps ~eps' in
      let size = Sp_network.size spec and depth = Sp_network.depth spec in
      let iters =
        (* quad count recoverable from size = 4^i *)
        int_of_float (Float.round (log (float_of_int size) /. log 4.0))
      in
      let lg = float_of_int k in
      Table.add_row t
        [
          Table.fe eps';
          Table.fi iters;
          Table.fi size;
          Table.fi depth;
          Table.ff (float_of_int size /. (lg *. lg));
          Table.ff (float_of_int depth /. lg);
          Table.fe (Sp_network.open_prob spec ~eps_open:eps ~eps_close:eps);
          Table.fe (Sp_network.short_prob spec ~eps_open:eps ~eps_close:eps);
        ])
    [ 2; 4; 6; 8; 10; 14; 20 ];
  Table.print t;
  (* hammock flavour: grid fabrics measured by Monte-Carlo *)
  let rng = rng_for "e1" in
  let t2 =
    Table.create ~title:"E1b  hammock (l,w) grids, measured at eps=0.05"
      ~columns:
        [
          ("rows", Table.Right);
          ("width", Table.Right);
          ("size", Table.Right);
          ("P[open]", Table.Right);
          ("P[short]", Table.Right);
        ]
  in
  List.iter
    (fun (rows, width) ->
      let h = Hammock.make ~rows ~width in
      let po =
        Hammock.open_failure_prob ~jobs:!jobs ~trials:(trials 20000) ~rng
          ~eps:0.05 h
      in
      let ps =
        Hammock.short_failure_prob ~jobs:!jobs ~trials:(trials 20000) ~rng
          ~eps:0.05 h
      in
      Table.add_row t2
        [
          Table.fi rows;
          Table.fi width;
          Table.fi (Hammock.size h);
          Table.fe po.Monte_carlo.mean;
          Table.fe ps.Monte_carlo.mean;
        ])
    [ (1, 4); (2, 4); (4, 4); (8, 8); (16, 8) ];
  Table.print t2

(* ------------------------------------------------------------------ *)
(* E2/E3 — Theorem 1 and 2: size and depth scaling                     *)
(* ------------------------------------------------------------------ *)

let scaled_ft ~u =
  let rng = rng_for (Printf.sprintf "ft-%d" u) in
  Ft_network.make ~rng (Ft_params.scaled ~u ())

(* the paper's gamma grows like log(34 u); mirror that shape at test scale
   (gamma ~ log2(2u)) so the n log^2 n asymptotics are visible *)
let growing_ft ~u =
  let gamma =
    max 2 (int_of_float (ceil (log (float_of_int (2 * u)) /. log 2.0)))
  in
  let rng = rng_for (Printf.sprintf "ftg-%d" u) in
  Ft_network.make ~rng (Ft_params.scaled ~gamma ~u ())

let e2_size () =
  let t =
    Table.create ~title:"E2  size scaling: FT construction vs baselines"
      ~columns:
        [
          ("n", Table.Right);
          ("FT size", Table.Right);
          ("FT/(n lg^2 n)", Table.Right);
          ("Benes", Table.Right);
          ("Cantor", Table.Right);
          ("crossbar", Table.Right);
          ("Thm1 bound", Table.Right);
        ]
  in
  List.iter
    (fun u ->
      let ft = growing_ft ~u in
      let n = Ft_params.n ft.Ft_network.params in
      let size = Network.size ft.Ft_network.net in
      let lg = log2f (float_of_int n) in
      let benes = Network.size (Benes.create n) in
      let cantor = Network.size (Cantor.make n) in
      Table.add_row t
        [
          Table.fi n;
          Table.fi size;
          Table.ff (float_of_int size /. (float_of_int n *. lg *. lg));
          Table.fi benes;
          Table.fi cantor;
          Table.fi (n * n);
          Table.ff (Lower_bound.theorem1_size_bound ~n);
        ])
    [ 2; 3; 4; 5; 6 ];
  Table.print t;
  (* paper-constant instances, predicted analytically *)
  let t2 =
    Table.create ~title:"E2b  paper constants (predicted, Theorem 2: <= 49 n (log4 n)^2)"
      ~columns:
        [
          ("u", Table.Right);
          ("n", Table.Right);
          ("gamma", Table.Right);
          ("predicted size", Table.Right);
          ("size/(1408 u 4^(u+g))", Table.Right);
          ("size/(n lg4^2 n)", Table.Right);
          ("predicted depth", Table.Right);
          ("depth/log4 n", Table.Right);
        ]
  in
  List.iter
    (fun u ->
      let p = Ft_params.paper ~u in
      let n = Ft_params.n p in
      let size = Ft_params.predicted_size p in
      let depth = Ft_params.predicted_depth p in
      let l4 = log4f (float_of_int n) in
      let paper_count =
        (* the paper's own stated edge count for network N *)
        1408.0 *. float_of_int u
        *. (4.0 ** float_of_int (u + p.Ft_params.gamma))
      in
      Table.add_row t2
        [
          Table.fi u;
          Table.fi n;
          Table.fi p.Ft_params.gamma;
          Table.fi size;
          Table.ff (float_of_int size /. paper_count);
          Table.ff (float_of_int size /. (float_of_int n *. l4 *. l4));
          Table.fi depth;
          Table.ff (float_of_int depth /. l4);
        ])
    [ 2; 3; 4; 5; 6; 8 ];
  Table.print t2

let e3_depth () =
  let t =
    Table.create ~title:"E3  depth scaling (Theorem 2: <= 5 log4 n; Theorem 1: >= (1/12) log2 n)"
      ~columns:
        [
          ("n", Table.Right);
          ("FT depth", Table.Right);
          ("depth/log4 n", Table.Right);
          ("Benes depth", Table.Right);
          ("Thm1 bound", Table.Right);
        ]
  in
  List.iter
    (fun u ->
      let ft = growing_ft ~u in
      let n = Ft_params.n ft.Ft_network.params in
      let depth = Network.depth ft.Ft_network.net in
      Table.add_row t
        [
          Table.fi n;
          Table.fi depth;
          Table.ff (float_of_int depth /. log4f (float_of_int n));
          Table.fi (Network.depth (Benes.create n));
          Table.ff (Lower_bound.theorem1_depth_bound ~n);
        ])
    [ 2; 3; 4; 5; 6 ];
  Table.print t

(* ------------------------------------------------------------------ *)
(* E4 — Lemma 3: grid access probability                               *)
(* ------------------------------------------------------------------ *)

(* the lemma's setting: a terminal feeding every first-column vertex;
   majority access to the last column through non-faulty vertices.
   Runs on the Scratch workspace: the faulty bitset and BFS arrays are
   per-worker buffers. *)
let grid_majority_access_event grid_s sc _ pattern =
  let g = Scratch.graph sc in
  let grid = grid_s.Directed_grid.grid in
  let faulty = Scratch.faulty sc in
  Fault.faulty_vertices_into g pattern faulty;
  let ok v = not (Ftcsn_util.Bitset.mem faulty v) in
  let sources =
    Array.to_list grid.Directed_grid.columns.(0)
    |> List.filter ok
  in
  if sources = [] then false
  else begin
    Traverse.bfs_directed_into ~allowed:ok g ~sources
      ~queue:sc.Scratch.queue ~dist:sc.Scratch.dist;
    let last = grid.Directed_grid.columns.(grid.Directed_grid.stages - 1) in
    let reached =
      Array.fold_left
        (fun acc v ->
          if sc.Scratch.dist.(v) >= 0 && ok v then acc + 1 else acc)
        0 last
    in
    2 * reached > Array.length last
  end

let e4_eps = [| 1e-3; 1e-2; 5e-2; 1e-1 |]

let e4_grid_access () =
  let t =
    Table.create ~title:"E4  Lemma 3: P[input keeps majority access to grid outputs]"
      ~columns:
        [
          ("rows", Table.Right);
          ("stages", Table.Right);
          ("eps", Table.Right);
          ("P[majority access]", Table.Right);
          ("95% CI", Table.Left);
        ]
  in
  List.iter
    (fun (rows, stages) ->
      let s = Directed_grid.make ~rows ~stages in
      (* one CRN sweep over the ε grid: every grid point shares each
         trial's per-edge draws, and because the historical loop re-seeded
         the same rng for every ε, the per-point numbers are unchanged *)
      let rng = rng_for (Printf.sprintf "e4-%d-%d" rows stages) in
      let g = s.Directed_grid.graph in
      let ests =
        Monte_carlo.estimate_curve ~jobs:!jobs ~label:"e4.curve"
          ~trials:(trials 6000) ~rng ~m:(Digraph.edge_count g)
          ~grid:(Array.map (fun e -> (e, e)) e4_eps)
          ~init:(fun () -> Scratch.create g)
          (grid_majority_access_event s)
      in
      Array.iteri
        (fun k est ->
          Table.add_row t
            [
              Table.fi rows;
              Table.fi stages;
              Table.fe e4_eps.(k);
              Table.ff est.Monte_carlo.mean;
              Printf.sprintf "[%s, %s]"
                (Table.ff est.Monte_carlo.ci_low)
                (Table.ff est.Monte_carlo.ci_high);
            ])
        ests)
    [ (8, 4); (16, 4); (32, 6) ];
  Table.print t

(* ------------------------------------------------------------------ *)
(* E5 — Lemmas 4/5: expander faulty-outlet tails                       *)
(* ------------------------------------------------------------------ *)

let e5_expander_faults () =
  let t =
    Table.create
      ~title:"E5  Lemmas 4-5: P[> 7% of expander outlets faulty] vs Chernoff"
      ~columns:
        [
          ("outlets", Table.Right);
          ("degree", Table.Right);
          ("eps", Table.Right);
          ("measured", Table.Right);
          ("Chernoff bound", Table.Right);
        ]
  in
  let eps_grid = [| 1e-4; 1e-3; 3e-3; 1e-2 |] in
  List.iter
    (fun outlets ->
      let rng = rng_for (Printf.sprintf "e5-%d" outlets) in
      let b =
        Random_regular.matching_union ~rng ~inlets:outlets ~outlets ~degree:10
      in
      let g, _, outlet_ids = Bipartite.to_digraph b in
      let threshold = max 1 (7 * outlets / 100) in
      (* coupled CRN sweep on the workspace path; the tail event is
         monotone (the faulty set only grows with ε on shared draws), so
         once a trial crosses the threshold its later points are free.
         Unlike the historical loop, which threaded one rng through all
         four ε runs, each point now sees the same coupled draws — the
         estimates are equally valid but not bit-identical to the old
         table. *)
      let ests =
        Monte_carlo.estimate_curve ~jobs:!jobs ~label:"e5.curve"
          ~monotone_event:true ~trials:(trials 8000) ~rng
          ~m:(Digraph.edge_count g)
          ~grid:(Array.map (fun e -> (e, e)) eps_grid)
          ~init:(fun () -> Scratch.create g)
          (fun sc _ pattern ->
            let faulty = Scratch.faulty sc in
            Fault.faulty_vertices_into g pattern faulty;
            let count =
              Array.fold_left
                (fun acc v ->
                  if Ftcsn_util.Bitset.mem faulty v then acc + 1 else acc)
                0 outlet_ids
            in
            count > threshold)
      in
      Array.iteri
        (fun k est ->
          let eps = eps_grid.(k) in
          (* an outlet has 20 incident switches; P[faulty] <= 40 eps *)
          let p_faulty = Float.min 1.0 (40.0 *. eps) in
          let bound =
            Prob.chernoff_upper ~n:outlets ~p:p_faulty ~k:(threshold + 1)
          in
          Table.add_row t
            [
              Table.fi outlets;
              Table.fi 10;
              Table.fe eps;
              Table.fe est.Monte_carlo.mean;
              Table.fe bound;
            ])
        ests)
    [ 64; 256 ];
  Table.print t

(* expander flavours side by side: the constructions the paper cites
   ([BP] random, [GG], [M], [LPS]) measured with our own spectral and
   combinatorial certifiers *)
let e5c_expander_zoo () =
  let t =
    Table.create ~title:"E5c  expander constructions: spectral gap vs Ramanujan"
      ~columns:
        [
          ("construction", Table.Left);
          ("side", Table.Right);
          ("degree", Table.Right);
          ("sigma2/d", Table.Right);
          ("ramanujan", Table.Right);
          ("min |G(S)|, |S|=4", Table.Right);
        ]
  in
  let rng = rng_for "e5c" in
  let row name b =
    let degree = Bipartite.max_degree b in
    let s2 = Spectral.second_singular_value b in
    let nb = Check.min_neighbourhood_sampled b ~c:4 ~samples:400 ~rng in
    Table.add_row t
      [
        name;
        Table.fi b.Bipartite.inlets;
        Table.fi degree;
        Table.ff s2;
        Table.ff (Spectral.ramanujan_bound ~degree);
        Table.fi nb;
      ]
  in
  row "random matching-union d=6"
    (Random_regular.matching_union ~rng ~inlets:2448 ~outlets:2448 ~degree:6);
  row "gabber-galil m=13" (Ftcsn_expander.Gabber_galil.make ~m:13);
  row "margulis m=13" (Ftcsn_expander.Margulis.make ~m:13);
  row "lps p=5 q=13 (PGL2, bipartite)" (Ftcsn_expander.Lps.make ~p:5 ~q:13);
  row "lps p=13 q=17 (PSL2, ramanujan)" (Ftcsn_expander.Lps.make ~p:13 ~q:17);
  Table.print t

(* ------------------------------------------------------------------ *)
(* E6 — Lemma 7: terminal shorting probability                         *)
(* ------------------------------------------------------------------ *)

let e6_shorting () =
  let t =
    Table.create ~title:"E6  Lemma 7: P[two terminals contract] vs eps"
      ~columns:
        [
          ("network", Table.Left);
          ("n", Table.Right);
          ("eps", Table.Right);
          ("P[short]", Table.Right);
          ("Lemma 7 formula", Table.Right);
        ]
  in
  let nets =
    [
      (let ft = scaled_ft ~u:2 in ft.Ft_network.net);
      (let ft = scaled_ft ~u:3 in ft.Ft_network.net);
      Benes.create 8;
    ]
  in
  let eps_grid = [| 1e-2; 5e-2; 1e-1; 2e-1 |] in
  List.iter
    (fun net ->
      (* CRN sweep on the Fault_strip workspace.  The historical loop
         re-seeded the same rng at every ε, so per-point numbers are
         unchanged; shorting is not monotone in ε (the closed-edge set is
         not nested), so every point is evaluated. *)
      let rng = rng_for ("e6" ^ net.Network.name) in
      let ests =
        Monte_carlo.estimate_curve ~jobs:!jobs ~label:"e6.curve"
          ~trials:(trials 4000) ~rng ~m:(Network.size net)
          ~grid:(Array.map (fun e -> (e, e)) eps_grid)
          ~init:(fun () -> Fault_strip.create_ws net)
          (fun ws _ pattern ->
            Fault_strip.strip_into ws pattern;
            not (Fault_strip.ws_healthy ws))
      in
      Array.iteri
        (fun k est ->
          let eps = eps_grid.(k) in
          let u =
            max 1
              (int_of_float
                 (log (float_of_int (Network.n_inputs net)) /. log 2.0))
          in
          Table.add_row t
            [
              net.Network.name;
              Table.fi (Network.n_inputs net);
              Table.fe eps;
              Table.fe est.Ftcsn_sim.Trials.mean;
              Table.fe
                (Float.min 1.0
                   (Ftcsn.Paper_bounds.lemma7_shorting_bound ~u ~eps));
            ])
        ests)
    nets;
  Table.print t;
  Printf.printf
    "note: the Lemma 7 formula only binds in the paper's regime (its c2 =\n\
     4^15 constant is tuned for eps = 1e-6 and large u); at eps = 1e-6,\n\
     u = 8 it gives %.2e.\n\n"
    (Ftcsn.Paper_bounds.lemma7_shorting_bound ~u:8
       ~eps:Ftcsn.Paper_bounds.paper_epsilon)

(* ------------------------------------------------------------------ *)
(* E7 — Theorem 2 headline: survival under faults (who wins)           *)
(* ------------------------------------------------------------------ *)

let e7_survival () =
  let n = 16 in
  let nets = registry_nets ~who:"e7" ~n in
  let eps_list = [ 1e-4; 1e-3; 1e-2; 3e-2; 1e-1 ] in
  let eps_grid = Array.of_list eps_list in
  let t =
    Table.create
      ~title:
        (Printf.sprintf
           "E7  survival under faults (superconcentrator probes), every \
            registered family, n=%d"
           n)
      ~columns:
        (("family", Table.Left)
        :: List.map (fun e -> (Table.fe e, Table.Right)) eps_list)
  in
  (* one coupled sweep per network instead of five independent runs; each
     point of the curve is bit-identical to the historical per-ε run (the
     old loop re-seeded the same rng at every ε, and survival_curve's
     per-point probe streams match an independent run's), and each trial
     bisects the grid for its first failing point instead of probing
     every point *)
  List.iter
    (fun (name, net) ->
      let rng = rng_for ("e7" ^ name) in
      let ests =
        Pipeline.survival_curve ~jobs:!jobs ~trials:(trials 200) ~rng
          ~eps:eps_grid ~probe:Pipeline.sc_probe_only net
      in
      let row =
        Array.to_list
          (Array.map
             (fun (est : Monte_carlo.estimate) ->
               Table.ff ~decimals:2 est.Monte_carlo.mean)
             ests)
      in
      Table.add_row t (name :: row))
    nets;
  Table.print t;
  (* nonblocking-style greedy operation: only meaningful on (near-)
     nonblocking networks; Benes shown to document that greedy fails on a
     merely-rearrangeable network even fault-free *)
  let t2 =
    Table.create
      ~title:"E7b  greedy nonblocking-style operation (paper section 4 remark)"
      ~columns:
        (("network", Table.Left)
        :: List.map (fun e -> (Table.fe e, Table.Right)) eps_list)
  in
  List.iter
    (fun (name, net) ->
      let rng = rng_for ("e7b" ^ name) in
      let ests =
        Pipeline.survival_curve ~jobs:!jobs ~trials:(trials 200) ~rng
          ~eps:eps_grid ~probe:Pipeline.default_probe net
      in
      let row =
        Array.to_list
          (Array.map
             (fun (est : Monte_carlo.estimate) ->
               Table.ff ~decimals:2 est.Monte_carlo.mean)
             ests)
      in
      Table.add_row t2 (name :: row))
    (List.map (fun spec -> (spec, net_of_spec ~who:"e7b" ~n spec))
       [ "ft"; "clos"; "benes" ]);
  Table.print t2

(* ------------------------------------------------------------------ *)
(* E8 — complexity landscape                                           *)
(* ------------------------------------------------------------------ *)

let e8_landscape () =
  Ftcsn.Ft_topology.install ();
  let ns = [ 4; 8; 16; 32; 64 ] in
  let t =
    Table.create
      ~title:"E8  size & depth landscape (size | depth), every registered family"
      ~columns:
        (("family", Table.Left)
        :: List.map (fun n -> (Printf.sprintf "n=%d" n, Table.Right)) ns)
  in
  List.iter
    (fun (gen : Topology.gen) ->
      let name = gen.Topology.name in
      let cells =
        List.map
          (fun n ->
            match
              Topology.build ~n
                ~rng:(rng_for (Printf.sprintf "e8-%s-%d" name n))
                { Topology.family = name; args = [] }
            with
            | Ok b ->
                Printf.sprintf "%d | %d"
                  (Network.size b.Topology.net)
                  (Network.depth b.Topology.net)
            | Error _ -> "-")
          ns
      in
      Table.add_row t (name :: cells))
    (Topology.all ());
  Table.print t;
  (* the headline constant-factor comparison of the old table: the paper
     construction against Benes, sizes from the registry builds *)
  Printf.printf "FT/benes size ratio: %s\n"
    (String.concat "  "
       (List.map
          (fun n ->
            let size spec =
              float_of_int (Network.size (net_of_spec ~who:"e8r" ~n spec))
            in
            Printf.sprintf "n=%d: %.1fx" n (size "ft" /. size "benes"))
          ns));
  (* the [PY] depth/size tradeoff: recursive Clos at n = 64 *)
  let t2 =
    Table.create
      ~title:"E8b  depth vs size: recursive Clos ([PY] tradeoff), n = 64"
      ~columns:
        [
          ("levels", Table.Right);
          ("stages", Table.Right);
          ("k", Table.Right);
          ("size", Table.Right);
          ("depth", Table.Right);
        ]
  in
  List.iter
    (fun levels ->
      let ms = Ftcsn_networks.Multistage.make ~levels 64 in
      let net = Ftcsn_networks.Multistage.network ms in
      (* each input feeds the k link vertices of its ingress crossbar *)
      let k =
        Ftcsn_graph.Digraph.out_degree net.Network.graph net.Network.inputs.(0)
      in
      Table.add_row t2
        [
          Table.fi levels;
          Table.fi (Ftcsn_networks.Multistage.stage_count ms);
          Table.fi k;
          Table.fi (Network.size net);
          Table.fi (Network.depth net);
        ])
    [ 0; 1; 2; 3; 5 ];
  Table.print t2

(* ------------------------------------------------------------------ *)
(* E9 — Lemma 1: edge-disjoint short leaf paths                        *)
(* ------------------------------------------------------------------ *)

let e9_tree_paths () =
  let t =
    Table.create
      ~title:"E9  Lemma 1: maximal families of edge-disjoint length-<=3 leaf paths"
      ~columns:
        [
          ("leaves", Table.Right);
          ("paths found", Table.Right);
          ("paths/leaves", Table.Right);
          ("lemma bound 1/42", Table.Right);
          ("remark bound 1/4", Table.Right);
        ]
  in
  let rng = rng_for "e9" in
  List.iter
    (fun l ->
      let stats = Stats.create () in
      let reps = if !quick then 2 else 5 in
      for _ = 1 to reps do
        let tree = Tree_paths.random_internal3_tree ~rng ~leaves:l in
        let paths = Tree_paths.short_leaf_paths tree in
        Stats.add stats (float_of_int (List.length paths) /. float_of_int l)
      done;
      Table.add_row t
        [
          Table.fi l;
          Table.fi (int_of_float (Stats.mean stats *. float_of_int l));
          Table.ff (Stats.mean stats);
          Table.ff (1.0 /. 42.0);
          Table.ff 0.25;
        ])
    [ 30; 100; 1000; 10_000 ];
  Table.print t

(* ------------------------------------------------------------------ *)
(* E10 — Theorem 1 zones                                               *)
(* ------------------------------------------------------------------ *)

let e10_zones () =
  let t =
    Table.create ~title:"E10  Theorem 1 certificates: good inputs and zones"
      ~columns:
        [
          ("network", Table.Left);
          ("n", Table.Right);
          ("good frac", Table.Right);
          ("depth cert", Table.Right);
          ("min zone", Table.Right);
          ("B(v) total", Table.Right);
          ("linked inputs", Table.Right);
          ("shorting families", Table.Right);
          ("Thm1 size bound", Table.Right);
        ]
  in
  let analyse name net =
    let report = Lower_bound.analyse ~threshold:3 ~radius:1 net in
    let lemma2 = Lower_bound.lemma2_certificate ~threshold:3 net in
    let min_zone =
      List.fold_left
        (fun acc z -> min acc z.Lower_bound.min_zone)
        max_int report.Lower_bound.zones
    in
    Table.add_row t
      [
        name;
        Table.fi report.Lower_bound.n;
        Table.ff report.Lower_bound.good_fraction;
        Table.fi report.Lower_bound.depth_certificate;
        Table.fi (if min_zone = max_int then 0 else min_zone);
        Table.fi report.Lower_bound.neighbourhood_total;
        Table.fi lemma2.Lower_bound.linked_inputs;
        Table.fi (List.length lemma2.Lower_bound.shorting_families);
        Table.ff (Lower_bound.theorem1_size_bound ~n:report.Lower_bound.n);
      ]
  in
  List.iter
    (fun u ->
      let ft = scaled_ft ~u in
      analyse (Printf.sprintf "ft u=%d" u) ft.Ft_network.net)
    [ 2; 3; 4 ];
  analyse "benes-64" (Benes.create 64);
  Table.print t

(* ------------------------------------------------------------------ *)
(* Figures                                                             *)
(* ------------------------------------------------------------------ *)

let f1_f3_gadgets () =
  print_endline "== F1-F3  Lemma 1 proof gadgets ==";
  let t1, bad = Tree_paths.fig1_bad_leaf () in
  Printf.printf
    "F1 (bad leaf): tree with %d vertices, %d leaves; leaf %d has nearest \
     other leaf at distance %d (> 3, hence bad)\n"
    t1.Tree_paths.n
    (List.length (Tree_paths.leaves t1))
    bad
    (Tree_paths.nearest_leaf_distance t1 bad);
  let t2, collector = Tree_paths.fig2_crowded_internal () in
  Printf.printf
    "F2 (six dollars): internal node %d of the gadget has degree %d and \
     collects the bad-leaf payments of the proof\n"
    collector (Tree_paths.degree t2 collector);
  let t3, path = Tree_paths.fig3_path_with_unlucky () in
  let leaves3 = Tree_paths.leaves t3 in
  Printf.printf
    "F3 (four dollars): central leaf path [%s] of length %d; %d further \
     leaves sit within distance 2 and become 'unlucky'\n\n"
    (String.concat "; " (List.map string_of_int path))
    (List.length path - 1)
    (List.length leaves3 - 2)

let f4_grid () =
  print_endline "== F4  the (4,8)-directed grid of Fig. 4 ==";
  let s = Directed_grid.make ~rows:4 ~stages:8 in
  print_string (Directed_grid.render s);
  Printf.printf "vertices=%d switches=%d depth(first->last column)=%d\n\n"
    (Digraph.vertex_count s.Directed_grid.graph)
    (Digraph.edge_count s.Directed_grid.graph)
    (s.Directed_grid.grid.Directed_grid.stages - 1)

let f5_composition () =
  print_endline "== F5  network N composition census (Fig. 5) ==";
  let ft = scaled_ft ~u:3 in
  let p = ft.Ft_network.params in
  Printf.printf "instance: %s\n" (Format.asprintf "%a" Ft_params.pp p);
  Printf.printf "%-14s %10s %10s\n" "stage" "vertices" "out-edges";
  List.iter
    (fun (label, v, e) -> Printf.printf "%-14s %10d %10d\n" label v e)
    (Ft_network.stage_census ft);
  Printf.printf "total: size=%d (predicted %d), depth=%d (predicted %d)\n\n"
    (Network.size ft.Ft_network.net)
    (Ft_params.predicted_size p)
    (Network.depth ft.Ft_network.net)
    (Ft_params.predicted_depth p)

(* ------------------------------------------------------------------ *)
(* Ablations (DESIGN.md section 5)                                     *)
(* ------------------------------------------------------------------ *)

let a1_ablations () =
  let eps = 3e-2 in
  let t =
    Table.create
      ~title:
        (Printf.sprintf "A1  ablations: survival at eps=%g (sc probes)" eps)
      ~columns:
        [ ("variant", Table.Left); ("size", Table.Right); ("survival", Table.Right) ]
  in
  let survival name net =
    let rng = rng_for ("a1" ^ name) in
    let est =
      Pipeline.survival ~jobs:!jobs ~trials:(trials 200) ~rng ~eps
        ~probe:Pipeline.sc_probe_only net
    in
    Table.add_row t
      [ name; Table.fi (Network.size net); Table.ff ~decimals:2 est.Monte_carlo.mean ]
  in
  (* full construction *)
  let ft = scaled_ft ~u:3 in
  survival "full (grids + oversizing)" ft.Ft_network.net;
  (* no grids / no oversizing: plain recursive construction at same n *)
  let rng = rng_for "a1-plain" in
  let plain, _ =
    Ftcsn_networks.Recursive_nb.make ~rng
      ~params:(Ftcsn_networks.Recursive_nb.scaled_params ~branching:2 ~width_factor:4 ~degree:4 ())
      ~levels:3
  in
  survival "no grids, gamma=0 (plain P82)" plain;
  (* shallower grids *)
  let rng2 = rng_for "a1-shallow" in
  let shallow =
    Ft_network.make ~rng:rng2 (Ft_params.scaled ~u:3 ~gamma:1 ())
  in
  survival "gamma=1 (less oversizing)" shallow.Ft_network.net;
  (* degree ablation *)
  let rng3 = rng_for "a1-deg" in
  let thin = Ft_network.make ~rng:rng3 (Ft_params.scaled ~u:3 ~degree:2 ()) in
  survival "expander degree 2" thin.Ft_network.net;
  (* strip radius 1 on the full construction *)
  let rng4 = rng_for "a1-radius" in
  let est =
    Pipeline.survival ~jobs:!jobs ~trials:(trials 200) ~rng:rng4 ~eps
      ~strip_radius:1 ~probe:Pipeline.sc_probe_only ft.Ft_network.net
  in
  Table.add_row t
    [
      "full, strip radius 1";
      Table.fi (Network.size ft.Ft_network.net);
      Table.ff ~decimals:2 est.Monte_carlo.mean;
    ];
  Table.print t

(* ------------------------------------------------------------------ *)
(* E11 — degradation: switches failing during operation               *)
(* ------------------------------------------------------------------ *)

let e11_degradation () =
  let t =
    Table.create
      ~title:
        "E11  degradation under live failures (equal expected failures/tick)"
      ~columns:
        [
          ("family", Table.Left);
          ("size", Table.Right);
          ("failures/tick", Table.Right);
          ("mean ticks to degradation", Table.Right);
          ("switch failures absorbed", Table.Right);
        ]
  in
  let nets = registry_nets ~who:"e11" ~n:8 in
  let lambda = 0.05 in
  List.iter
    (fun (name, net) ->
      let rng = rng_for ("e11-" ^ name) in
      let hazard = lambda /. float_of_int (Network.size net) in
      (* saturated identity calls, permanent failures at a per-switch
         hazard per tick; a run stops at its first service failure or at
         the horizon, so its sim_time is the time to degradation *)
      let config =
        Traffic.config ~load:0.0 ~mtbf:(1.0 /. hazard) ~mttr:infinity
          ~stop:(Traffic.Horizon 20_000.0) ~saturate:true
          ~stop_on_degradation:true ()
      in
      let s =
        Traffic.estimate ~jobs:!jobs ~trials:(max 3 (trials 20)) ~rng ~config
          net
      in
      let mttd = s.Traffic.t_sim_time /. float_of_int s.Traffic.replications in
      Table.add_row t
        [
          name;
          Table.fi (Network.size net);
          Table.ff lambda;
          Table.ff ~decimals:0 mttd;
          Table.ff ~decimals:1 (mttd *. lambda);
        ])
    nets;
  Table.print t

(* ------------------------------------------------------------------ *)
(* E12 — the reliability-per-edge tournament                           *)
(* ------------------------------------------------------------------ *)

let e12_tournament () =
  (* every registered family through the same survival sweep and call
     workload, scored on fault tolerance per switch (Tournament docs) *)
  let eps = [| 1e-3; 1e-2; 5e-2 |] in
  let traffic_trials = if !quick then 1 else 3 in
  let calls = if !quick then 300 else 2000 in
  let warmup = if !quick then 50 else 200 in
  let outcome =
    Tournament.run ~jobs:!jobs ~trials:(trials 200) ~eps ~traffic_trials
      ~calls ~warmup ~n:16 ~seed:(seed_of "e12") ()
  in
  Table.print (Tournament.to_table outcome);
  Printf.printf "front: * marks Pareto-optimal families (no rival with \
                 fewer edges/terminal and better survival at eps=%g)\n"
    eps.(Array.length eps - 1);
  List.iter
    (fun (family, reason) -> Printf.printf "skipped %s: %s\n" family reason)
    outcome.Tournament.skipped

(* ------------------------------------------------------------------ *)
(* A2 — wide-sense strategies ([FFP])                                 *)
(* ------------------------------------------------------------------ *)

let a2_wide_sense () =
  let t =
    Table.create
      ~title:"A2  routing strategies under adversarial traffic (blocked/offered)"
      ~columns:
        [
          ("network", Table.Left);
          ("greedy", Table.Right);
          ("packing", Table.Right);
        ]
  in
  let module Ws = Ftcsn_routing.Wide_sense in
  let stress name net =
    let cell strategy =
      let rng = rng_for ("a2" ^ name) in
      let offered, blocked =
        Ws.stress ~steps:(trials 2000) ~rng strategy net
      in
      Printf.sprintf "%d/%d" blocked offered
    in
    Table.add_row t [ name; cell Ws.greedy_strategy; cell Ws.packing_strategy ]
  in
  stress "crossbar-4" (Crossbar.square 4);
  stress "clos-snb-4" (Clos.make { Clos.m = 3; k = 2; r = 2 });
  stress "clos-rearr-4" (Clos.make { Clos.m = 2; k = 2; r = 2 });
  stress "benes-8" (Benes.create 8);
  Table.print t

(* ------------------------------------------------------------------ *)
(* A3 — [LM]: routing around faults on multibutterflies                *)
(* ------------------------------------------------------------------ *)

let a3_multibutterfly () =
  let t =
    Table.create
      ~title:
        "A3  multibutterfly splitter redundancy: mean fraction of a \
         permutation served (levelled greedy), n = 32"
      ~columns:
        [
          ("degree", Table.Right);
          ("eps=0", Table.Right);
          ("eps=1e-3", Table.Right);
          ("eps=1e-2", Table.Right);
          ("eps=5e-2", Table.Right);
        ]
  in
  let n = 32 in
  List.iter
    (fun degree ->
      let rng = rng_for (Printf.sprintf "a3-%d" degree) in
      let mb = Multibutterfly.make ~rng ~degree n in
      (* re-strip in place on a Fault_strip workspace instead of
         allocating a pattern and strip record per rep; sample_into
         consumes the stream exactly as sample did, so numbers match *)
      let fs = Fault_strip.create_ws mb in
      let cell eps =
        let reps = max 5 (trials 30) in
        let acc = ref 0 in
        for _ = 1 to reps do
          let allowed =
            if eps = 0.0 then fun _ -> true
            else begin
              let pattern = Fault_strip.ws_pattern fs in
              Fault.sample_into rng ~eps_open:eps ~eps_close:eps pattern;
              Fault_strip.strip_into fs pattern;
              Fault_strip.ws_allowed fs
            end
          in
          let pi = Rng.permutation rng n in
          let router = Ftcsn_routing.Greedy.create ~allowed mb in
          ignore (Ftcsn_routing.Greedy.route_permutation router pi ~success:acc)
        done;
        Table.ff ~decimals:2
          (float_of_int !acc /. float_of_int (reps * n))
      in
      Table.add_row t
        [ Table.fi degree; cell 0.0; cell 1e-3; cell 1e-2; cell 5e-2 ])
    [ 1; 2; 3; 4 ];
  Table.print t

(* ------------------------------------------------------------------ *)
(* registry                                                            *)
(* ------------------------------------------------------------------ *)

let all : (string * string * (unit -> unit)) list =
  [
    ("e1", "Proposition 1: Moore-Shannon amplification", e1_hammock);
    ("e2", "Theorem 1/2: size scaling", e2_size);
    ("e3", "Theorem 1/2: depth scaling", e3_depth);
    ("e4", "Lemma 3: grid majority access", e4_grid_access);
    ("e5", "Lemmas 4-5: expander fault tails", e5_expander_faults);
    ("e5c", "expander construction zoo", e5c_expander_zoo);
    ("e6", "Lemma 7: terminal shorting", e6_shorting);
    ("e7", "Theorem 2: survival under faults", e7_survival);
    ("e8", "complexity landscape", e8_landscape);
    ("e9", "Lemma 1: tree leaf paths", e9_tree_paths);
    ("e10", "Theorem 1: zone certificates", e10_zones);
    ("e11", "degradation under live failures", e11_degradation);
    ("e12", "reliability-per-edge tournament", e12_tournament);
    ("f1", "Figures 1-3: proof gadgets", f1_f3_gadgets);
    ("f4", "Figure 4: directed grid", f4_grid);
    ("f5", "Figure 5: composition census", f5_composition);
    ("a1", "ablations", a1_ablations);
    ("a2", "wide-sense routing strategies", a2_wide_sense);
    ("a3", "[LM] multibutterfly fault routing", a3_multibutterfly);
  ]
