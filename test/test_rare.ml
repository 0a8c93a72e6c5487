(* Tests for the rare-event estimators: cross-entropy tilted importance
   sampling and multilevel splitting (Ftcsn_reliability.Splitting) plus
   the paper's failure-event glue (Ftcsn.Rare).

   Validation strategy: the estimators are checked against closed forms
   where they exist (Sp_network's series-parallel recurrences,
   Proposition 1) and against 3^m enumeration (Exact_ref) on a crossbar small
   enough to enumerate, and pinned bit-identical across --jobs. *)

module Digraph = Ftcsn_graph.Digraph
module Fault = Ftcsn_reliability.Fault
module Survivor = Ftcsn_reliability.Survivor
module Sp_network = Ftcsn_reliability.Sp_network
module Splitting = Ftcsn_reliability.Splitting
module Rng = Ftcsn_prng.Rng
module Network = Ftcsn_networks.Network
module Topology = Ftcsn_networks.Topology
module Rare = Ftcsn.Rare
module Monte_carlo = Ftcsn_reliability.Monte_carlo

let checkb = Alcotest.(check bool)
let checkf eps = Alcotest.(check (float eps))

let build_net spec ~n =
  Ftcsn.Ft_topology.install ();
  match Topology.build_string ~n ~rng:(Rng.create ~seed:1) spec with
  | Ok b -> b.Topology.net
  | Error msg -> Alcotest.failf "cannot build %s: %s" spec msg

(* ---------- tilted IS vs series-parallel closed forms ---------- *)

(* the open event of a two-terminal SP network: no path of non-open
   switches from input to output; its exact probability is
   Sp_network.open_prob *)
let sp_open_event (built : Sp_network.built) _ws _rng pattern =
  not
    (Strip_ref.connected_ignoring_opens built.Sp_network.graph pattern
       ~a:built.Sp_network.input ~b:built.Sp_network.output)

let test_tilted_matches_rectangle () =
  let spec = Exact_ref.rectangle ~j:2 ~k:3 in
  let built = Sp_network.build spec in
  let m = Digraph.edge_count built.Sp_network.graph in
  let eps = 0.02 in
  let exact = Sp_network.open_prob spec ~eps_open:eps ~eps_close:eps in
  let tilt = Splitting.uniform_tilt ~m ~eps_open:0.25 ~eps_close:eps in
  let est =
    Splitting.tilted ~trials:20_000 ~rng:(Rng.create ~seed:7) ~m
      ~eps_open:eps ~eps_close:eps ~tilt
      ~init:(fun () -> ())
      ~event:(sp_open_event built) ()
  in
  checkb "nonzero" true (est.Splitting.mean > 0.0);
  checkb "closed form within CI" true
    (est.Splitting.ci_low <= exact && exact <= est.Splitting.ci_high);
  checkb "tight" true (est.Splitting.rel_err < 0.10);
  checkb "beats MC variance" true (est.Splitting.variance_ratio > 10.0)

(* qcheck: random small rectangles, the closed form falls in the 95% CI
   (fixed seeds per case keep the suite deterministic; the CI check is a
   statistical statement, so allow the interval a 4-sigma widening) *)
let qcheck_tilted_rectangles =
  QCheck2.Test.make ~name:"tilted IS brackets rectangle closed forms"
    ~count:25
    QCheck2.Gen.(triple (int_range 1 3) (int_range 1 3) (int_range 0 1000))
    (fun (j, k, seed_off) ->
      let spec = Exact_ref.rectangle ~j ~k in
      let built = Sp_network.build spec in
      let m = Digraph.edge_count built.Sp_network.graph in
      let eps = 0.02 +. (0.08 *. (float_of_int (seed_off mod 7) /. 7.0)) in
      let exact = Sp_network.open_prob spec ~eps_open:eps ~eps_close:eps in
      let tilt = Splitting.uniform_tilt ~m ~eps_open:0.3 ~eps_close:eps in
      let est =
        Splitting.tilted ~trials:4_000
          ~rng:(Rng.create ~seed:(1000 + seed_off))
          ~m ~eps_open:eps ~eps_close:eps ~tilt
          ~init:(fun () -> ())
          ~event:(sp_open_event built) ()
      in
      let slack =
        2.0 *. (est.Splitting.ci_high -. est.Splitting.ci_low) +. 1e-12
      in
      est.Splitting.ci_low -. slack <= exact
      && exact <= est.Splitting.ci_high +. slack)

(* ---------- splitting engine vs a closed form ---------- *)

(* generic-threshold test, independent of Ftcsn.Rare: phi(u) = the
   critical eps_open at which the rectangle's open event holds when the
   open set is {u < eps}.  P[phi <= eps] = open_prob(eps). *)
type sp_ws = { pattern : Fault.pattern; order : int array }

let sp_threshold built ws u =
  let m = Array.length ws.pattern in
  for e = 0 to m - 1 do
    ws.order.(e) <- e
  done;
  Array.sort (fun a b -> Float.compare u.(a) u.(b)) ws.order;
  let fails_with_prefix j =
    Array.fill ws.pattern 0 m Fault.Normal;
    for i = 0 to j - 1 do
      ws.pattern.(ws.order.(i)) <- Fault.Open_failure
    done;
    sp_open_event built () () ws.pattern
  in
  if not (fails_with_prefix m) then infinity
  else begin
    let lo = ref 0 and hi = ref m in
    (if fails_with_prefix 0 then hi := 0
     else
       while !hi - !lo > 1 do
         let mid = (!lo + !hi) / 2 in
         if fails_with_prefix mid then hi := mid else lo := mid
       done);
    if !hi = 0 then 0.0 else u.(ws.order.(!hi - 1))
  end

let test_splitting_matches_rectangle () =
  let spec = Exact_ref.rectangle ~j:2 ~k:3 in
  let built = Sp_network.build spec in
  let m = Digraph.edge_count built.Sp_network.graph in
  let eps = 0.02 in
  let exact = Sp_network.open_prob spec ~eps_open:eps ~eps_close:eps in
  let init () =
    { pattern = Array.make m Fault.Normal; order = Array.make m 0 }
  in
  let prepare _ _ = () in
  let threshold = sp_threshold built in
  let rng = Rng.create ~seed:11 in
  let schedule =
    Splitting.pilot ~particles:128 ~rng ~m ~target:eps ~init ~prepare
      ~threshold ()
  in
  checkb "ladder reaches target" true
    (schedule.Splitting.levels.(Array.length schedule.Splitting.levels - 1)
    = eps);
  let est =
    Splitting.run ~trials:4_000 ~rng ~m ~schedule ~init ~prepare ~threshold ()
  in
  checkb "nonzero" true (est.Splitting.mean > 0.0);
  let se = est.Splitting.rel_err *. est.Splitting.mean in
  checkb "matches closed form within 5 se" true
    (Float.abs (est.Splitting.mean -. exact) <= (5.0 *. se) +. 1e-12)

(* a 1-level schedule is plain Monte-Carlo: the estimator must agree
   count-for-count with directly thresholding the root draws *)
let test_singleton_schedule_is_mc () =
  let spec = Exact_ref.rectangle ~j:1 ~k:2 in
  let built = Sp_network.build spec in
  let m = Digraph.edge_count built.Sp_network.graph in
  let eps = 0.3 in
  let init () =
    { pattern = Array.make m Fault.Normal; order = Array.make m 0 }
  in
  let schedule =
    {
      Splitting.levels = [| eps |];
      Splitting.splits = [||];
      Splitting.entry_rate = 1.0;
    }
  in
  let est =
    Splitting.run ~trials:2_000 ~rng:(Rng.create ~seed:5) ~m ~schedule ~init
      ~prepare:(fun _ _ -> ())
      ~threshold:(sp_threshold built) ()
  in
  let exact = Sp_network.open_prob spec ~eps_open:eps ~eps_close:eps in
  (* per-trial Z is 0/1, so the normal CI is the classical binomial one *)
  checkb "plain-MC mean in [0,1] grid" true
    (Float.abs
       ((est.Splitting.mean *. 2000.0)
       -. Float.round (est.Splitting.mean *. 2000.0))
    < 1e-9);
  checkb "near exact" true (Float.abs (est.Splitting.mean -. exact) < 0.05)

(* ---------- unbiasedness vs Exact on a crossbar ---------- *)

let test_tilted_unbiased_vs_exact () =
  let net = build_net "crossbar" ~n:3 in
  let m = Digraph.edge_count net.Network.graph in
  checkb "crossbar:3 is enumerable" true (m <= 13);
  let eps = 0.05 in
  (* a fixed probe plan makes the event a pure pattern predicate that
     Exact can enumerate; a fresh seeded stream per call pins the plan *)
  let oracle = Rare.create_ws net in
  let exact =
    Exact_ref.probability net.Network.graph ~eps_open:eps ~eps_close:eps
      (fun pattern -> Rare.fails oracle (Rng.create ~seed:99) pattern)
  in
  checkb "exact failure prob is nonzero" true (exact > 0.0);
  let runs = 24 in
  let means =
    Array.init runs (fun r ->
        let tilt = Splitting.uniform_tilt ~m ~eps_open:0.2 ~eps_close:0.2 in
        let est =
          Splitting.tilted ~trials:2_000
            ~rng:(Rng.create ~seed:(500 + r))
            ~m ~eps_open:eps ~eps_close:eps ~tilt
            ~init:(fun () -> Rare.create_ws net)
            ~event:(fun ws _sub pattern ->
              Rare.fails ws (Rng.create ~seed:99) pattern)
            ()
        in
        est.Splitting.mean)
  in
  let grand = Array.fold_left ( +. ) 0.0 means /. float_of_int runs in
  let var =
    Array.fold_left (fun a x -> a +. ((x -. grand) ** 2.0)) 0.0 means
    /. float_of_int (runs - 1)
  in
  let se_grand = sqrt (var /. float_of_int runs) in
  checkb "grand mean within 4 se of exact" true
    (Float.abs (grand -. exact) <= (4.0 *. se_grand) +. 1e-9)

(* the two plain estimators of the same event: independent Monte-Carlo
   runs at each ε and one CRN curve over the grid; each point must fall
   within 4 binomial standard errors of the enumeration *)
let test_mc_and_curve_vs_exact () =
  let net = build_net "crossbar" ~n:3 in
  let g = net.Network.graph in
  let grid = [| 0.02; 0.05; 0.1 |] in
  let trials = 20_000 in
  let oracle = Rare.create_ws net in
  let event pattern = Rare.fails oracle (Rng.create ~seed:99) pattern in
  let on_scratch sc = event (Ftcsn_reliability.Scratch.pattern sc) in
  let curve =
    Monte_carlo.estimate_curve ~trials ~rng:(Rng.create ~seed:31) ~graph:g
      ~grid:(Array.map (fun e -> (e, e)) grid)
      on_scratch
  in
  Array.iteri
    (fun k eps ->
      let exact = Exact_ref.probability g ~eps_open:eps ~eps_close:eps event in
      let se = sqrt (exact *. (1.0 -. exact) /. float_of_int trials) in
      let within name (e : Monte_carlo.estimate) =
        checkb
          (Printf.sprintf "%s at eps=%g: %g within 4 se of %g" name eps
             e.Monte_carlo.mean exact)
          true
          (Float.abs (e.Monte_carlo.mean -. exact) <= (4.0 *. se) +. 1e-12)
      in
      checkb "exact failure prob is nonzero" true (exact > 0.0);
      within "plain MC"
        (Monte_carlo.estimate_event_scratch ~trials
           ~rng:(Rng.create ~seed:(30 + k)) ~graph:g ~eps_open:eps
           ~eps_close:eps on_scratch);
      within "CRN curve" curve.(k))
    grid

let test_splitting_unbiased_vs_exact () =
  let net = build_net "crossbar" ~n:3 in
  let m = Digraph.edge_count net.Network.graph in
  let eps = 0.05 in
  (* same fixed plan for the enumeration and for every splitting trial *)
  let fixed_plan_ws () =
    let ws = Rare.create_ws net in
    Rare.prepare ws (Rng.create ~seed:99);
    ws
  in
  let oracle = fixed_plan_ws () in
  let exact =
    Exact_ref.probability net.Network.graph ~eps_open:eps ~eps_close:eps
      (fun pattern -> Rare.monotone_fails oracle pattern)
  in
  checkb "monotone exact prob is nonzero" true (exact > 0.0);
  let rng = Rng.create ~seed:21 in
  let init = fixed_plan_ws in
  let prepare _ _ = () in
  let schedule =
    Splitting.pilot ~particles:128 ~rng ~m ~target:eps ~init ~prepare
      ~threshold:Rare.threshold ()
  in
  let est =
    Splitting.run ~trials:6_000 ~rng ~m ~schedule ~init ~prepare
      ~threshold:Rare.threshold ()
  in
  let se = est.Splitting.rel_err *. est.Splitting.mean in
  checkb "within 5 se of enumeration" true
    (Float.abs (est.Splitting.mean -. exact) <= (5.0 *. se) +. 1e-12)

(* ---------- determinism: bit-identical at every --jobs ---------- *)

let test_jobs_bit_identity () =
  let net = build_net "benes" ~n:8 in
  let eps = 1e-3 in
  let run_tilt jobs =
    let rng = Rng.create ~seed:42 in
    let tilt = Rare.tune_tilt ~iters:2 ~trials:300 ~rng ~eps net in
    Rare.failure_tilted ~jobs ~trials:600 ~rng ~eps ~tilt net
  in
  let run_split jobs =
    let rng = Rng.create ~seed:43 in
    let schedule = Rare.pilot_schedule ~particles:64 ~rng ~eps net in
    Rare.failure_split ~jobs ~trials:400 ~rng ~schedule net
  in
  let t1 = run_tilt 1 and t2 = run_tilt 2 and t4 = run_tilt 4 in
  checkb "tilt jobs 1 = 2" true (t1 = t2);
  checkb "tilt jobs 1 = 4" true (t1 = t4);
  checkb "tilt nonzero" true (t1.Splitting.mean > 0.0);
  let s1 = run_split 1 and s2 = run_split 2 and s4 = run_split 4 in
  checkb "split jobs 1 = 2" true (s1 = s2);
  checkb "split jobs 1 = 4" true (s1 = s4);
  checkb "split nonzero" true (s1.Splitting.mean > 0.0)

(* ---------- tilted_curve coupling ---------- *)

let test_curve_point_matches_tilted () =
  let net = build_net "benes" ~n:8 in
  let m = Digraph.edge_count net.Network.graph in
  let tilt = Splitting.uniform_tilt ~m ~eps_open:0.02 ~eps_close:0.02 in
  let grid = [| 1e-3; 3e-3; 1e-2 |] in
  let curve =
    Rare.failure_tilted_curve ~trials:500 ~rng:(Rng.create ~seed:9) ~grid
      ~tilt net
  in
  Alcotest.(check int) "one estimate per point" 3 (Array.length curve);
  (* every curve point shares the trial patterns, so the middle point
     must agree exactly with a fresh single-point run on the same seed *)
  let single =
    Rare.failure_tilted ~trials:500 ~rng:(Rng.create ~seed:9) ~eps:grid.(1)
      ~tilt net
  in
  (checkf 0.0) "shared-pattern point is bit-identical"
    single.Splitting.mean curve.(1).Splitting.mean;
  (* weights against a larger eps are larger on every failing pattern *)
  checkb "curve is nonnegative" true
    (Array.for_all (fun e -> e.Splitting.mean >= 0.0) curve)

(* ---------- validation errors ---------- *)

let test_validation () =
  let expect_invalid name f =
    match f () with
    | _ -> Alcotest.failf "%s: expected Invalid_argument" name
    | exception Invalid_argument _ -> ()
  in
  let m = 4 in
  let init () = () in
  let threshold _ _ = 1.0 in
  expect_invalid "empty levels" (fun () ->
      Splitting.run ~trials:1 ~rng:(Rng.create ~seed:1) ~m
        ~schedule:
          { Splitting.levels = [||]; splits = [||]; entry_rate = 1.0 }
        ~init
        ~prepare:(fun _ _ -> ())
        ~threshold ());
  expect_invalid "non-decreasing levels" (fun () ->
      Splitting.run ~trials:1 ~rng:(Rng.create ~seed:1) ~m
        ~schedule:
          {
            Splitting.levels = [| 0.1; 0.1 |];
            splits = [| 2 |];
            entry_rate = 1.0;
          }
        ~init
        ~prepare:(fun _ _ -> ())
        ~threshold ());
  expect_invalid "split arity" (fun () ->
      Splitting.run ~trials:1 ~rng:(Rng.create ~seed:1) ~m
        ~schedule:
          { Splitting.levels = [| 0.1; 0.01 |]; splits = [||]; entry_rate = 1.0 }
        ~init
        ~prepare:(fun _ _ -> ())
        ~threshold ());
  expect_invalid "bad mutate" (fun () ->
      Splitting.run ~trials:1 ~rng:(Rng.create ~seed:1) ~m ~mutate:0.0
        ~schedule:
          { Splitting.levels = [| 0.1 |]; splits = [||]; entry_rate = 1.0 }
        ~init
        ~prepare:(fun _ _ -> ())
        ~threshold ());
  expect_invalid "tilt zero mass at positive target" (fun () ->
      Splitting.tilted ~trials:1 ~rng:(Rng.create ~seed:1) ~m ~eps_open:0.1
        ~eps_close:0.1
        ~tilt:(Splitting.uniform_tilt ~m ~eps_open:0.2 ~eps_close:0.0)
        ~init
        ~event:(fun _ _ _ -> true)
        ());
  expect_invalid "bad target" (fun () ->
      Splitting.tilted ~trials:1 ~rng:(Rng.create ~seed:1) ~m ~eps_open:0.0
        ~eps_close:0.0
        ~tilt:(Splitting.uniform_tilt ~m ~eps_open:0.2 ~eps_close:0.2)
        ~init
        ~event:(fun _ _ _ -> true)
        ());
  expect_invalid "pilot target 0" (fun () ->
      Splitting.pilot ~rng:(Rng.create ~seed:1) ~m ~target:0.0 ~init
        ~prepare:(fun _ _ -> ())
        ~threshold ())

(* ---------- the paper-regime smoke: benes:16 at eps = 1e-6 ---------- *)

let test_benes16_rare_regime () =
  let net = build_net "benes" ~n:16 in
  let eps = 1e-6 in
  let rng = Rng.create ~seed:3 in
  let tilt = Rare.tune_tilt ~iters:3 ~trials:500 ~rng ~eps net in
  let est = Rare.failure_tilted ~trials:3_000 ~rng ~eps ~tilt net in
  checkb "nonzero estimate where plain MC sees zero" true
    (est.Splitting.mean > 0.0);
  checkb "estimate is tiny" true (est.Splitting.mean < 1e-2);
  checkb "usable relative error" true (est.Splitting.rel_err < 0.25)

let () =
  Alcotest.run "rare"
    [
      ( "tilted",
        [
          Alcotest.test_case "rectangle closed form" `Quick
            test_tilted_matches_rectangle;
          QCheck_alcotest.to_alcotest qcheck_tilted_rectangles;
          Alcotest.test_case "unbiased vs Exact (crossbar)" `Slow
            test_tilted_unbiased_vs_exact;
          Alcotest.test_case "curve point = single point" `Quick
            test_curve_point_matches_tilted;
        ] );
      ( "splitting",
        [
          Alcotest.test_case "rectangle closed form" `Quick
            test_splitting_matches_rectangle;
          Alcotest.test_case "singleton schedule = plain MC" `Quick
            test_singleton_schedule_is_mc;
          Alcotest.test_case "unbiased vs Exact (crossbar)" `Slow
            test_splitting_unbiased_vs_exact;
        ] );
      ( "plain",
        [
          Alcotest.test_case "MC and CRN curve vs Exact (crossbar)" `Slow
            test_mc_and_curve_vs_exact;
        ] );
      ( "engine",
        [
          Alcotest.test_case "bit-identical at jobs 1/2/4" `Slow
            test_jobs_bit_identity;
          Alcotest.test_case "validation errors" `Quick test_validation;
          Alcotest.test_case "benes:16 at eps=1e-6" `Slow
            test_benes16_rare_regime;
        ] );
    ]
