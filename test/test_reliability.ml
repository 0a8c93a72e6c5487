(* Tests for the failure model, survivor semantics, exact and Monte-Carlo
   estimation, Moore-Shannon amplifiers, hammocks, and edge substitution. *)

module Digraph = Ftcsn_graph.Digraph
module Fault = Ftcsn_reliability.Fault
module Survivor = Ftcsn_reliability.Survivor
module Scratch = Ftcsn_reliability.Scratch
module Monte_carlo = Ftcsn_reliability.Monte_carlo
module Sp_network = Ftcsn_reliability.Sp_network
module Hammock = Ftcsn_reliability.Hammock
module Substitution = Ftcsn_reliability.Substitution
module Rng = Ftcsn_prng.Rng
module Trials = Ftcsn_sim.Trials

let check = Alcotest.(check int)
let checkb = Alcotest.(check bool)
let checkf eps = Alcotest.(check (float eps))

(* ---------- Fault ---------- *)

let test_sample_frequencies () =
  let rng = Rng.create ~seed:1 in
  let m = 100_000 in
  let pattern = Fault.sample rng ~eps_open:0.1 ~eps_close:0.2 ~m in
  let opens = Fault.count pattern Fault.Open_failure in
  let closes = Fault.count pattern Fault.Closed_failure in
  let normals = Fault.count pattern Fault.Normal in
  check "total" m (opens + closes + normals);
  checkb "open rate" true (Float.abs (float_of_int opens /. 100_000.0 -. 0.1) < 0.01);
  checkb "close rate" true (Float.abs (float_of_int closes /. 100_000.0 -. 0.2) < 0.01)

let test_sample_validation () =
  let rng = Rng.create ~seed:1 in
  Alcotest.check_raises "bad probabilities"
    (Invalid_argument "Fault.sample: bad probabilities") (fun () ->
      ignore (Fault.sample rng ~eps_open:0.7 ~eps_close:0.7 ~m:10));
  Alcotest.check_raises "NaN probability"
    (Invalid_argument "Fault.sample: bad probabilities") (fun () ->
      ignore (Fault.sample rng ~eps_open:nan ~eps_close:nan ~m:10))

let test_pattern_probability () =
  (* the product measure of one point of the event space *)
  let g = Digraph.of_edges ~n:4 [| (0, 1); (1, 2); (2, 3) |] in
  let pattern = [| Fault.Normal; Fault.Open_failure; Fault.Closed_failure |] in
  (checkf 1e-12) "product" (0.7 *. 0.1 *. 0.2)
    (Exact_ref.probability g ~eps_open:0.1 ~eps_close:0.2 (fun p ->
         Array.for_all2 Fault.state_equal p pattern))

let test_faulty_vertices () =
  let g = Digraph.of_edges ~n:4 [| (0, 1); (1, 2); (2, 3) |] in
  let pattern = [| Fault.Normal; Fault.Open_failure; Fault.Normal |] in
  let faulty = Ftcsn_util.Bitset.create 4 in
  Fault.faulty_vertices_into g pattern faulty;
  Alcotest.(check (list int)) "incident endpoints" [ 1; 2 ]
    (Ftcsn_util.Bitset.to_list faulty)

(* ---------- Survivor ---------- *)

let test_survivor_all_normal () =
  let g = Digraph.of_edges ~n:3 [| (0, 1); (1, 2) |] in
  let s = Strip_ref.apply g (Fault.all_normal 2) in
  check "classes" 3 s.Strip_ref.contracted_classes;
  check "edges survive" 2 (Digraph.edge_count s.Strip_ref.graph);
  checkb "terminals distinct" true (Strip_ref.terminals_distinct s [ 0; 2 ])

let test_survivor_open_removes () =
  let g = Digraph.of_edges ~n:3 [| (0, 1); (1, 2) |] in
  let s = Strip_ref.apply g [| Fault.Open_failure; Fault.Normal |] in
  check "one edge left" 1 (Digraph.edge_count s.Strip_ref.graph);
  check "edge 0 gone" (-1) s.Strip_ref.edge_image.(0);
  checkb "edge 1 kept" true (s.Strip_ref.edge_image.(1) >= 0)

let test_survivor_closed_contracts () =
  let g = Digraph.of_edges ~n:3 [| (0, 1); (1, 2) |] in
  let s = Strip_ref.apply g [| Fault.Closed_failure; Fault.Normal |] in
  check "two classes" 2 s.Strip_ref.contracted_classes;
  check "vertex image merged" s.Strip_ref.vertex_image.(0) s.Strip_ref.vertex_image.(1);
  checkb "terminals 0,1 merged" false (Strip_ref.terminals_distinct s [ 0; 1 ]);
  Alcotest.(check (list (pair int int))) "merged pair" [ (0, 1) ]
    (Strip_ref.merged_pairs s [ 0; 1; 2 ])

let test_survivor_contraction_makes_loop () =
  (* closing edge 0 merges 0 and 1; the parallel normal edge 0->1 becomes a
     self-loop and is dropped *)
  let g = Digraph.of_edges ~n:2 [| (0, 1); (0, 1) |] in
  let s = Strip_ref.apply g [| Fault.Closed_failure; Fault.Normal |] in
  check "loop dropped" 0 (Digraph.edge_count s.Strip_ref.graph);
  check "edge 1 dropped" (-1) s.Strip_ref.edge_image.(1)

let test_shorted_by_closure () =
  let g = Digraph.of_edges ~n:4 [| (0, 1); (1, 2); (2, 3) |] in
  checkb "full chain shorts" true
    (Strip_ref.shorted_by_closure g
       [| Fault.Closed_failure; Fault.Closed_failure; Fault.Closed_failure |]
       ~a:0 ~b:3);
  checkb "broken chain does not" false
    (Strip_ref.shorted_by_closure g
       [| Fault.Closed_failure; Fault.Normal; Fault.Closed_failure |]
       ~a:0 ~b:3)

let test_connected_ignoring_opens () =
  let g = Digraph.of_edges ~n:3 [| (0, 1); (1, 2) |] in
  checkb "normal+closed conduct" true
    (Strip_ref.connected_ignoring_opens g
       [| Fault.Normal; Fault.Closed_failure |] ~a:0 ~b:2);
  checkb "open breaks" false
    (Strip_ref.connected_ignoring_opens g
       [| Fault.Open_failure; Fault.Normal |] ~a:0 ~b:2)

(* ---------- Exact vs Monte-Carlo ---------- *)

let test_exact_single_edge () =
  let g = Digraph.of_edges ~n:2 [| (0, 1) |] in
  let p_open =
    Exact_ref.probability g ~eps_open:0.1 ~eps_close:0.2 (fun pattern ->
        Fault.state_equal pattern.(0) Fault.Open_failure)
  in
  (checkf 1e-12) "open prob" 0.1 p_open;
  let p_any =
    Exact_ref.probability g ~eps_open:0.1 ~eps_close:0.2 (fun _ -> true)
  in
  (checkf 1e-12) "total mass" 1.0 p_any

let test_exact_two_edge_series () =
  (* series of 2: P[no conduction 0->2] = 1 - (1-eps_open)^2 *)
  let g = Digraph.of_edges ~n:3 [| (0, 1); (1, 2) |] in
  let eps = 0.15 in
  let p =
    Exact_ref.probability g ~eps_open:eps ~eps_close:eps (fun pattern ->
        not (Strip_ref.connected_ignoring_opens g pattern ~a:0 ~b:2))
  in
  (checkf 1e-12) "series open" (1.0 -. ((1.0 -. eps) ** 2.0)) p

let test_exact_rejects_large () =
  let g = Digraph.of_edges ~n:2 (Array.make 14 (0, 1)) in
  Alcotest.check_raises "too many edges"
    (Invalid_argument "Exact_ref.probability: too many edges") (fun () ->
      ignore (Exact_ref.probability g ~eps_open:0.1 ~eps_close:0.1 (fun _ -> true)))

let test_monte_carlo_matches_exact () =
  (* parallel pair: P[both open] = eps^2 with eps=0.3 -> 0.09 *)
  let g = Digraph.of_edges ~n:2 [| (0, 1); (0, 1) |] in
  let eps = 0.3 in
  let event pattern = not (Strip_ref.connected_ignoring_opens g pattern ~a:0 ~b:1) in
  let exact = Exact_ref.probability g ~eps_open:eps ~eps_close:eps event in
  let rng = Rng.create ~seed:2024 in
  let est =
    Monte_carlo.estimate_event_scratch ~trials:20_000 ~rng ~graph:g
      ~eps_open:eps ~eps_close:eps (fun sc -> event (Scratch.pattern sc))
  in
  checkb "exact within CI" true (est.ci_low <= exact && exact <= est.ci_high)

let test_monte_carlo_extremes () =
  let rng = Rng.create ~seed:3 in
  let always = Monte_carlo.estimate ~trials:100 ~rng (fun _ -> true) in
  (checkf 1e-12) "p=1" 1.0 always.Monte_carlo.mean;
  let never = Monte_carlo.estimate ~trials:100 ~rng (fun _ -> false) in
  (checkf 1e-12) "p=0" 0.0 never.Monte_carlo.mean;
  checkb "ci is proper" true (never.ci_low = 0.0 && never.ci_high > 0.0)

(* ---------- Sp_network (Proposition 1) ---------- *)

let test_sp_size_depth () =
  check "edge size" 1 (Sp_network.size Sp_network.Edge);
  check "edge depth" 1 (Sp_network.depth Sp_network.Edge);
  let q1 = Sp_network.iterate_quad 1 in
  check "quad size" 4 (Sp_network.size q1);
  check "quad depth" 2 (Sp_network.depth q1);
  let q3 = Sp_network.iterate_quad 3 in
  check "quad^3 size" 64 (Sp_network.size q3);
  check "quad^3 depth" 8 (Sp_network.depth q3)

let test_sp_probs_single () =
  (checkf 1e-12) "open" 0.1
    (Sp_network.open_prob Sp_network.Edge ~eps_open:0.1 ~eps_close:0.2);
  (checkf 1e-12) "short" 0.2
    (Sp_network.short_prob Sp_network.Edge ~eps_open:0.1 ~eps_close:0.2)

let test_sp_recurrence_vs_exact () =
  (* the analytic recurrence must equal exhaustive enumeration *)
  let spec = Sp_network.quad Sp_network.Edge in
  let built = Sp_network.build spec in
  let g = built.Sp_network.graph in
  let eps = 0.2 in
  let exact_open =
    Exact_ref.probability g ~eps_open:eps ~eps_close:eps (fun pattern ->
        not
          (Strip_ref.connected_ignoring_opens g pattern ~a:built.Sp_network.input
             ~b:built.Sp_network.output))
  in
  let exact_short =
    Exact_ref.probability g ~eps_open:eps ~eps_close:eps (fun pattern ->
        Strip_ref.shorted_by_closure g pattern ~a:built.Sp_network.input
          ~b:built.Sp_network.output)
  in
  (checkf 1e-9) "open matches"
    (Sp_network.open_prob spec ~eps_open:eps ~eps_close:eps)
    exact_open;
  (checkf 1e-9) "short matches"
    (Sp_network.short_prob spec ~eps_open:eps ~eps_close:eps)
    exact_short

let test_sp_amplification_monotone () =
  let eps = 0.1 in
  let prev_open = ref 1.0 and prev_short = ref 1.0 in
  for k = 0 to 4 do
    let spec = Sp_network.iterate_quad k in
    let po = Sp_network.open_prob spec ~eps_open:eps ~eps_close:eps in
    let ps = Sp_network.short_prob spec ~eps_open:eps ~eps_close:eps in
    checkb (Printf.sprintf "open shrinks at k=%d" k) true (po < !prev_open);
    checkb (Printf.sprintf "short shrinks at k=%d" k) true (ps < !prev_short);
    prev_open := po;
    prev_short := ps
  done

let test_sp_design_meets_target () =
  let eps = 0.1 in
  List.iter
    (fun eps' ->
      let spec = Sp_network.design ~eps ~eps' in
      checkb "open under target" true
        (Sp_network.open_prob spec ~eps_open:eps ~eps_close:eps < eps');
      checkb "short under target" true
        (Sp_network.short_prob spec ~eps_open:eps ~eps_close:eps < eps'))
    [ 0.05; 0.01; 1e-3; 1e-6 ]

let test_sp_design_rejects_large_eps () =
  Alcotest.check_raises "eps too large"
    (Invalid_argument "Sp_network.design: need 0 < eps < 1/4") (fun () ->
      ignore (Sp_network.design ~eps:0.3 ~eps':0.01))

let test_sp_proposition1_scaling () =
  (* size ~ c (log 1/eps')^2 and depth ~ d log 1/eps': ratios flatten *)
  let eps = 0.05 in
  let measure eps' =
    let spec = Sp_network.design ~eps ~eps' in
    let lg = log (1.0 /. eps') /. log 2.0 in
    ( float_of_int (Sp_network.size spec) /. (lg *. lg),
      float_of_int (Sp_network.depth spec) /. lg )
  in
  let s1, d1 = measure 1e-4 in
  let s2, d2 = measure 1e-8 in
  (* quad-iteration is stepwise, so allow a generous constant band *)
  checkb "size ratio bounded" true (s2 /. s1 < 8.0 && s1 /. s2 < 8.0);
  checkb "depth ratio bounded" true (d2 /. d1 < 4.0 && d1 /. d2 < 4.0)

let test_sp_build_structure () =
  let spec = Sp_network.iterate_quad 2 in
  let built = Sp_network.build spec in
  check "edges" (Sp_network.size spec) (Digraph.edge_count built.Sp_network.graph);
  check "depth" (Sp_network.depth spec)
    (Ftcsn_graph.Traverse.depth built.Sp_network.graph
       ~inputs:[ built.Sp_network.input ] ~outputs:[ built.Sp_network.output ])

let test_rectangle_structure () =
  let r = Exact_ref.rectangle ~j:3 ~k:4 in
  check "size" 12 (Sp_network.size r);
  check "depth" 3 (Sp_network.depth r)

let test_rectangle_probs_match_closed_form () =
  let eps = 0.12 in
  let j = 3 and k = 5 in
  let r = Exact_ref.rectangle ~j ~k in
  let branch_opens = 1.0 -. ((1.0 -. eps) ** float_of_int j) in
  (checkf 1e-12) "open closed-form"
    (branch_opens ** float_of_int k)
    (Sp_network.open_prob r ~eps_open:eps ~eps_close:eps);
  let branch_shorts = eps ** float_of_int j in
  (checkf 1e-12) "short closed-form"
    (1.0 -. ((1.0 -. branch_shorts) ** float_of_int k))
    (Sp_network.short_prob r ~eps_open:eps ~eps_close:eps)

let test_design_rectangle_meets_targets () =
  let eps = 0.1 in
  List.iter
    (fun (t_open, t_short) ->
      match Exact_ref.design_rectangle ~eps ~target_open:t_open ~target_short:t_short with
      | None -> Alcotest.fail "rectangle should exist"
      | Some r ->
          checkb "open ok" true
            (Sp_network.open_prob r ~eps_open:eps ~eps_close:eps < t_open);
          checkb "short ok" true
            (Sp_network.short_prob r ~eps_open:eps ~eps_close:eps < t_short))
    [ (1e-2, 1e-2); (1e-6, 1e-2); (1e-2, 1e-6); (1e-8, 1e-8) ]

let test_design_rectangle_asymmetric_beats_quad () =
  (* when only one failure mode needs suppression, the rectangle is far
     smaller than symmetric quad iteration *)
  let eps = 0.1 in
  let quad = Sp_network.design ~eps ~eps':1e-6 in
  match
    Exact_ref.design_rectangle ~eps ~target_open:1e-6 ~target_short:0.4
  with
  | None -> Alcotest.fail "should exist"
  | Some r -> checkb "rectangle smaller" true (Sp_network.size r < Sp_network.size quad)

let test_design_rectangle_infeasible () =
  checkb "impossible targets" true
    (Exact_ref.design_rectangle ~eps:0.4 ~target_open:1e-300 ~target_short:1e-300
    = None)

(* ---------- Hammock ---------- *)

let test_hammock_structure () =
  let h = Hammock.make ~rows:4 ~width:6 in
  check "vertices" (2 + 24) (Digraph.vertex_count h.Hammock.graph);
  (* input fan 4 + output fan 4 + 2*4*(6-1) internal *)
  check "edges" (4 + 4 + 40) (Hammock.size h);
  check "depth" 7 (Hammock.depth h)

let test_hammock_single_row () =
  let h = Hammock.make ~rows:1 ~width:3 in
  check "edges" (1 + 1 + 2) (Hammock.size h);
  check "depth" 4 (Hammock.depth h)

let test_hammock_reliability_improves_with_rows () =
  let rng = Rng.create ~seed:5 in
  let eps = 0.15 in
  let open1 =
    Hammock.open_failure_prob ~trials:3000 ~rng ~eps (Hammock.make ~rows:1 ~width:4)
  in
  let open8 =
    Hammock.open_failure_prob ~trials:3000 ~rng ~eps (Hammock.make ~rows:8 ~width:4)
  in
  checkb "more rows, fewer opens" true
    (open8.Monte_carlo.mean < open1.Monte_carlo.mean)

let test_hammock_short_grows_with_rows () =
  (* more parallel rails make closed-failure shorts more likely at fixed
     width *)
  let rng = Rng.create ~seed:6 in
  let eps = 0.2 in
  let s1 =
    Hammock.short_failure_prob ~trials:4000 ~rng ~eps (Hammock.make ~rows:1 ~width:3)
  in
  let s8 =
    Hammock.short_failure_prob ~trials:4000 ~rng ~eps (Hammock.make ~rows:8 ~width:3)
  in
  checkb "more rows, more shorts" true (s8.Monte_carlo.mean > s1.Monte_carlo.mean)

(* ---------- Substitution ---------- *)

let test_substitution_counts () =
  let g = Digraph.of_edges ~n:3 [| (0, 1); (1, 2) |] in
  let gadget = Sp_network.build (Sp_network.iterate_quad 1) in
  let sub = Substitution.substitute g ~gadget in
  check "edges multiplied" (2 * 4) (Digraph.edge_count sub.Substitution.graph)

let test_substitution_preserves_connectivity () =
  let g = Digraph.of_edges ~n:4 [| (0, 1); (1, 2); (2, 3) |] in
  let gadget = Sp_network.build (Sp_network.iterate_quad 1) in
  let sub = Substitution.substitute g ~gadget in
  let src = sub.Substitution.vertex_image.(0) in
  let dst = sub.Substitution.vertex_image.(3) in
  let d = Ftcsn_graph.Traverse.bfs_directed sub.Substitution.graph ~sources:[ src ] in
  checkb "still connected" true (d.(dst) >= 0);
  check "depth scales by gadget depth" (3 * 2) d.(dst)

let test_logical_pattern_identity () =
  (* all-normal physical pattern -> all-normal logical pattern *)
  let g = Digraph.of_edges ~n:3 [| (0, 1); (1, 2) |] in
  let gadget = Sp_network.build (Sp_network.iterate_quad 1) in
  let sub = Substitution.substitute g ~gadget in
  let m = Digraph.edge_count sub.Substitution.graph in
  let logical = Substitution.logical_pattern sub (Fault.all_normal m) in
  check "arity" 2 (Array.length logical);
  Array.iter
    (fun s -> checkb "normal" true (Fault.state_equal s Fault.Normal))
    logical

let test_logical_pattern_open () =
  (* kill every physical switch of gadget copy 0 by open failure: logical
     edge 0 opens, logical edge 1 stays normal *)
  let g = Digraph.of_edges ~n:3 [| (0, 1); (1, 2) |] in
  let gadget = Sp_network.build (Sp_network.iterate_quad 1) in
  let sub = Substitution.substitute g ~gadget in
  let gm = Digraph.edge_count gadget.Sp_network.graph in
  let pattern = Fault.all_normal (2 * gm) in
  for j = 0 to gm - 1 do
    pattern.(j) <- Fault.Open_failure
  done;
  let logical = Substitution.logical_pattern sub pattern in
  checkb "edge 0 open" true (Fault.state_equal logical.(0) Fault.Open_failure);
  checkb "edge 1 normal" true (Fault.state_equal logical.(1) Fault.Normal)

let test_logical_pattern_short () =
  let g = Digraph.of_edges ~n:2 [| (0, 1) |] in
  let gadget = Sp_network.build (Sp_network.iterate_quad 1) in
  let sub = Substitution.substitute g ~gadget in
  let gm = Digraph.edge_count gadget.Sp_network.graph in
  let pattern = Array.make gm Fault.Closed_failure in
  let logical = Substitution.logical_pattern sub pattern in
  checkb "shorted" true (Fault.state_equal logical.(0) Fault.Closed_failure)

let test_logical_pattern_rates () =
  (* the measured logical failure rates must match the gadget's exact
     open/short probabilities *)
  let g = Digraph.of_edges ~n:2 [| (0, 1) |] in
  let spec = Sp_network.iterate_quad 1 in
  let gadget = Sp_network.build spec in
  let sub = Substitution.substitute g ~gadget in
  let gm = Digraph.edge_count gadget.Sp_network.graph in
  let eps = 0.15 in
  let rng = Rng.create ~seed:77 in
  let opens = ref 0 and shorts = ref 0 in
  let trials = 30_000 in
  for _ = 1 to trials do
    let pattern = Fault.sample rng ~eps_open:eps ~eps_close:eps ~m:gm in
    match (Substitution.logical_pattern sub pattern).(0) with
    | Fault.Open_failure -> incr opens
    | Fault.Closed_failure -> incr shorts
    | Fault.Normal -> ()
  done;
  let measured_open = float_of_int !opens /. float_of_int trials in
  let measured_short = float_of_int !shorts /. float_of_int trials in
  let exact_short = Sp_network.short_prob spec ~eps_open:eps ~eps_close:eps in
  (* logical_pattern classifies short-and-open patterns as short, so the
     open rate to compare is P[open and not short] = open_prob exactly,
     because a shorted gadget always conducts *)
  let exact_open = Sp_network.open_prob spec ~eps_open:eps ~eps_close:eps in
  checkb "open rate" true (Float.abs (measured_open -. exact_open) < 0.01);
  checkb "short rate" true (Float.abs (measured_short -. exact_short) < 0.01)

(* ---------- Importance (Birnbaum criticality) ---------- *)

module Importance = Ftcsn_reliability.Importance

let test_importance_single_wire () =
  (* one switch, event = no conduction: forcing it open guarantees the
     event, forcing it normal prevents it -> open importance 1 *)
  let g = Digraph.of_edges ~n:2 [| (0, 1) |] in
  let event pattern =
    not (Strip_ref.connected_ignoring_opens g pattern ~a:0 ~b:1)
  in
  let rng = Rng.create ~seed:88 in
  let est =
    Importance.importance ~trials:500 ~rng ~graph:g ~eps:0.2
      ~init:(fun () -> ())
      ~event:(fun () -> event) ~switches:[| 0 |] ()
  in
  (checkf 1e-9) "open importance" 1.0 est.(0).Importance.open_importance;
  (checkf 1e-9) "close importance" 0.0 est.(0).Importance.close_importance

let test_importance_redundant_pair () =
  (* parallel pair: opening one switch only matters when the other failed *)
  let g = Digraph.of_edges ~n:2 [| (0, 1); (0, 1) |] in
  let event pattern =
    not (Strip_ref.connected_ignoring_opens g pattern ~a:0 ~b:1)
  in
  let rng = Rng.create ~seed:89 in
  let eps = 0.2 in
  let est =
    Importance.importance ~trials:30_000 ~rng ~graph:g ~eps
      ~init:(fun () -> ())
      ~event:(fun () -> event) ~switches:[| 0 |] ()
  in
  (* exact: I0 = P[switch 1 open] = eps *)
  checkb "open importance ~ eps" true
    (Float.abs (est.(0).Importance.open_importance -. eps) < 0.02);
  checkb "redundancy lowers criticality" true
    (est.(0).Importance.open_importance < 0.5)

let test_importance_short_event () =
  (* chain of 2, event = terminals short: closing one switch matters iff
     the other is closed: I1 = eps *)
  let g = Digraph.of_edges ~n:3 [| (0, 1); (1, 2) |] in
  let event pattern = Strip_ref.shorted_by_closure g pattern ~a:0 ~b:2 in
  let rng = Rng.create ~seed:90 in
  let eps = 0.25 in
  let est =
    Importance.importance ~trials:30_000 ~rng ~graph:g ~eps
      ~init:(fun () -> ())
      ~event:(fun () -> event) ~switches:[| 0; 1 |] ()
  in
  Array.iter
    (fun e ->
      checkb "close importance ~ eps" true
        (Float.abs (e.Importance.close_importance -. eps) < 0.02);
      (checkf 1e-9) "open importance 0" 0.0 e.Importance.open_importance)
    est

let test_importance_rank () =
  (* series chain followed by a parallel pair: the series switch dominates *)
  let g = Digraph.of_edges ~n:3 [| (0, 1); (1, 2); (1, 2) |] in
  let event pattern =
    not (Strip_ref.connected_ignoring_opens g pattern ~a:0 ~b:2)
  in
  let rng = Rng.create ~seed:91 in
  let ranked =
    Importance.rank ~trials:8000 ~rng ~graph:g ~eps:0.15
      ~init:(fun () -> ())
      ~event:(fun () -> event) ~sample:3 ()
  in
  check "all sampled" 3 (Array.length ranked);
  check "series switch most critical" 0 ranked.(0).Importance.switch

(* ---------- section 3: the failure polynomial ---------- *)

let test_poly_single_switch () =
  (* single wire: fails iff the switch fails; P(eps) = 2 eps *)
  let g = Digraph.of_edges ~n:2 [| (0, 1) |] in
  let poly =
    Exact_ref.failure_polynomial g (fun pattern ->
        not (Fault.state_equal pattern.(0) Fault.Normal))
  in
  checkb "constant term vanishes" true (Exact_ref.constant_term_vanishes poly);
  List.iter
    (fun eps ->
      (checkf 1e-12)
        (Printf.sprintf "P(%g)" eps)
        (2.0 *. eps)
        (Exact_ref.eval poly ~eps))
    [ 0.0; 0.1; 0.25; 0.4 ]

let test_poly_matches_exact () =
  (* arbitrary event on a 3-switch chain: polynomial evaluation must equal
     direct exact enumeration at every eps *)
  let g = Digraph.of_edges ~n:4 [| (0, 1); (1, 2); (2, 3) |] in
  let event pattern =
    not (Strip_ref.connected_ignoring_opens g pattern ~a:0 ~b:3)
  in
  let poly = Exact_ref.failure_polynomial g event in
  List.iter
    (fun eps ->
      let exact = Exact_ref.probability g ~eps_open:eps ~eps_close:eps event in
      (checkf 1e-12) (Printf.sprintf "eps=%g" eps) exact (Exact_ref.eval poly ~eps))
    [ 0.05; 0.2; 0.45 ]

let test_poly_delta_rescaling () =
  (* the section-3 delta-invariance inequality on a concrete instance *)
  let g = Digraph.of_edges ~n:3 [| (0, 1); (1, 2); (0, 2) |] in
  let event pattern =
    Strip_ref.shorted_by_closure g pattern ~a:0 ~b:2
  in
  let poly = Exact_ref.failure_polynomial g event in
  checkb "constant vanishes" true (Exact_ref.constant_term_vanishes poly);
  List.iter
    (fun ratio ->
      checkb
        (Printf.sprintf "P(%g eps) <= %g P(eps)" ratio ratio)
        true
        (Exact_ref.delta_rescaling_bound poly ~eps:0.2 ~ratio))
    [ 1.0; 0.5; 0.1; 0.01 ]

let test_poly_rejects_large () =
  let g = Digraph.of_edges ~n:2 (Array.make 14 (0, 1)) in
  Alcotest.check_raises "too many"
    (Invalid_argument "Exact_ref.failure_polynomial: too many edges") (fun () ->
      ignore (Exact_ref.failure_polynomial g (fun _ -> true)))

(* ---------- trial engine determinism ---------- *)

(* a trial function with enough structure to expose scheduling bugs: each
   trial draws a variable number of values from its substream *)
let spiky_trial sub =
  let n = 1 + Rng.int sub 17 in
  let acc = ref 0.0 in
  for _ = 1 to n do
    acc := !acc +. Rng.float sub
  done;
  !acc < float_of_int n /. 2.0

let check_estimate msg (a : Trials.estimate) (b : Trials.estimate) =
  check (msg ^ ": successes") a.Trials.successes b.Trials.successes;
  check (msg ^ ": trials") a.Trials.trials b.Trials.trials;
  checkf 0.0 (msg ^ ": mean") a.Trials.mean b.Trials.mean;
  checkf 0.0 (msg ^ ": ci_low") a.Trials.ci_low b.Trials.ci_low;
  checkf 0.0 (msg ^ ": ci_high") a.Trials.ci_high b.Trials.ci_high

let run_at ~jobs ?target_ci () =
  let rng = Rng.create ~seed:2024 in
  let est =
    Trials.run_scratch ~jobs ?target_ci ~chunk:64 ~trials:2000 ~rng
      ~init:ignore (fun () sub -> spiky_trial sub)
  in
  (* the parent stream must also be advanced identically *)
  (est, Rng.int64 rng)

let test_trials_jobs_deterministic () =
  let e1, next1 = run_at ~jobs:1 () in
  let e4, next4 = run_at ~jobs:4 () in
  check_estimate "jobs 1 vs 4" e1 e4;
  Alcotest.(check int64) "parent stream advanced identically" next1 next4;
  let e3, next3 = run_at ~jobs:3 () in
  check_estimate "jobs 1 vs 3" e1 e3;
  Alcotest.(check int64) "parent stream (jobs 3)" next1 next3

let test_trials_adaptive_deterministic () =
  let e1, next1 = run_at ~jobs:1 ~target_ci:0.03 () in
  let e4, next4 = run_at ~jobs:4 ~target_ci:0.03 () in
  check_estimate "adaptive jobs 1 vs 4" e1 e4;
  Alcotest.(check int64) "parent stream advanced identically" next1 next4;
  checkb "adaptive stopping actually stopped early" true
    (e1.Trials.trials < 2000);
  checkb "respects min_trials floor" true (e1.Trials.trials >= 1000)

let test_estimate_event_scratch_jobs_deterministic () =
  let g = Digraph.of_edges ~n:4 [| (0, 1); (1, 2); (2, 3); (0, 3) |] in
  let run jobs =
    let rng = Rng.create ~seed:77 in
    Monte_carlo.estimate_event_scratch ~jobs ~trials:1500 ~rng ~graph:g
      ~eps_open:0.1 ~eps_close:0.1 (fun sc ->
        Fault.count (Scratch.pattern sc) Fault.Normal > 2)
  in
  check_estimate "estimate_event_scratch jobs 1 vs 4" (run 1) (run 4)

let test_search_jobs_deterministic () =
  let find jobs =
    let rng = Rng.create ~seed:9 in
    Trials.search ~jobs ~chunk:16 ~trials:400 ~rng ~init:ignore (fun () sub ->
        let v = Rng.int sub 50 in
        if v = 0 then Some v else None)
  in
  match (find 1, find 4) with
  | Some a, Some b -> check "same witness" a b
  | None, None -> ()
  | _ -> Alcotest.fail "search: jobs 1 and jobs 4 disagree on existence"

(* ---------- CRN ε-curve sweeps ---------- *)

let sweep_graph () =
  Digraph.of_edges ~n:6
    [| (0, 1); (1, 2); (2, 3); (3, 4); (4, 5); (0, 3); (1, 4); (2, 5) |]

let sweep_event sc =
  let pattern = Scratch.pattern sc in
  Fault.count pattern Fault.Normal > Array.length pattern - 3

let test_sweep_one_point_matches_scratch () =
  (* a 1-point grid must reproduce the single-ε engine bit-for-bit:
     same draws, same thresholds, same parent-stream advance *)
  let g = sweep_graph () in
  List.iter
    (fun jobs ->
      let rng_c = Rng.create ~seed:321 in
      let curve =
        Monte_carlo.estimate_curve ~jobs ~trials:800 ~rng:rng_c ~graph:g
          ~grid:[| (0.07, 0.05) |]
          sweep_event
      in
      let rng_s = Rng.create ~seed:321 in
      let single =
        Monte_carlo.estimate_event_scratch ~jobs ~trials:800 ~rng:rng_s
          ~graph:g ~eps_open:0.07 ~eps_close:0.05 sweep_event
      in
      check "one point" 1 (Array.length curve);
      check_estimate "1-point grid = estimate_event_scratch" curve.(0) single;
      Alcotest.(check int64)
        "parent stream advanced identically" (Rng.int64 rng_s)
        (Rng.int64 rng_c))
    [ 1; 3 ]

let test_curve_points_match_independent_runs () =
  (* every grid point equals an independent run at that (ε₁, ε₂): the
     coupling shares draws, never changes any single point's law *)
  let g = sweep_graph () in
  let grid = [| (0.01, 0.0); (0.05, 0.02); (0.2, 0.1) |] in
  let curve =
    let rng = Rng.create ~seed:99 in
    Monte_carlo.estimate_curve ~trials:600 ~rng ~graph:g ~grid sweep_event
  in
  Array.iteri
    (fun k (eps_open, eps_close) ->
      let rng = Rng.create ~seed:99 in
      let single =
        Monte_carlo.estimate_event_scratch ~trials:600 ~rng ~graph:g ~eps_open
          ~eps_close sweep_event
      in
      check_estimate (Printf.sprintf "grid point %d" k) curve.(k) single)
    grid

let test_sweep_jobs_trace_deterministic () =
  let g = sweep_graph () in
  let grid = [| (0.02, 0.01); (0.1, 0.05); (0.3, 0.2) |] in
  let run ~jobs ~traced =
    let rng = Rng.create ~seed:512 in
    let ests =
      if traced then begin
        let sink, _drain = Ftcsn_obs.Trace.memory () in
        let r =
          Monte_carlo.estimate_curve ~jobs ~trace:sink ~trials:700 ~rng
            ~graph:g ~grid sweep_event
        in
        Ftcsn_obs.Trace.close sink;
        r
      end
      else Monte_carlo.estimate_curve ~jobs ~trials:700 ~rng ~graph:g ~grid sweep_event
    in
    (ests, Rng.int64 rng)
  in
  let base, next0 = run ~jobs:1 ~traced:false in
  List.iter
    (fun (jobs, traced) ->
      let ests, next = run ~jobs ~traced in
      Array.iteri
        (fun k e ->
          check_estimate
            (Printf.sprintf "jobs=%d traced=%b point %d" jobs traced k)
            base.(k) e)
        ests;
      Alcotest.(check int64) "parent stream" next0 next)
    [ (1, true); (2, false); (4, true); (4, false) ]

(* the hammock's open-failure curve on the CRN engine: open failure only
   reads the nested open-edge set {u < ε}, so an ascending grid may
   short-circuit trials that already failed *)
let hammock_open_curve ~trials ~rng ~eps (h : Hammock.t) =
  Monte_carlo.estimate_curve ~monotone_event:true ~trials ~rng
    ~graph:h.Hammock.graph
    ~grid:(Array.map (fun e -> (e, e)) eps)
    (fun sc ->
      not
        (Survivor.connected_ignoring_opens_into sc (Scratch.pattern sc)
           ~a:h.Hammock.input ~b:h.Hammock.output))

let test_crn_curve_monotone_successes () =
  (* CRN couples trials across the curve, so the per-point success
     COUNTS — not just the means — are nondecreasing for a monotone
     event on an ascending grid: each trial's indicator is monotone *)
  let h = Hammock.make ~rows:4 ~width:5 in
  let eps = [| 0.01; 0.03; 0.08; 0.15; 0.3 |] in
  let rng = Rng.create ~seed:7 in
  let curve = hammock_open_curve ~trials:500 ~rng ~eps h in
  for k = 1 to Array.length curve - 1 do
    checkb
      (Printf.sprintf "successes nondecreasing at point %d" k)
      true
      (curve.(k).Trials.successes >= curve.(k - 1).Trials.successes)
  done

let test_hammock_curve_matches_independent () =
  let h = Hammock.make ~rows:3 ~width:4 in
  let eps = [| 0.02; 0.07; 0.2 |] in
  let curve =
    let rng = Rng.create ~seed:31 in
    hammock_open_curve ~trials:400 ~rng ~eps h
  in
  Array.iteri
    (fun k e ->
      let rng = Rng.create ~seed:31 in
      let single = Hammock.open_failure_prob ~trials:400 ~rng ~eps:e h in
      check_estimate (Printf.sprintf "eps %g" e) curve.(k) single)
    eps

(* ---------- persistent domain pool ---------- *)

let test_pool_spawns_counted_once () =
  let c =
    Ftcsn_obs.Metrics.counter Ftcsn_obs.Metrics.default "trials.pool.spawns"
  in
  let run () =
    let rng = Rng.create ~seed:5 in
    ignore
      (Trials.run_scratch ~jobs:3 ~chunk:32 ~trials:300 ~rng ~init:ignore
         (fun () sub -> spiky_trial sub))
  in
  run ();
  (* the pool now holds >= 2 workers: a second jobs=3 run is all reuse *)
  let before = Ftcsn_obs.Counter.get c in
  run ();
  check "warm pool spawns no new domains" before (Ftcsn_obs.Counter.get c)

(* ---------- properties ---------- *)

let prop_survivor_class_count =
  QCheck2.Test.make ~name:"contraction classes = n - rank(closed forest)"
    ~count:100
    QCheck2.Gen.(int_range 0 100000)
    (fun seed ->
      let rng = Rng.create ~seed in
      let n = 2 + Rng.int rng 12 in
      let m = Rng.int rng 20 in
      let edges = Array.init m (fun _ -> (Rng.int rng n, Rng.int rng n)) in
      let g = Digraph.of_edges ~n edges in
      let pattern = Fault.sample rng ~eps_open:0.2 ~eps_close:0.3 ~m in
      let s = Strip_ref.apply g pattern in
      (* classes computed independently via union-find over closed edges *)
      let uf = Ftcsn_util.Union_find.create n in
      Array.iteri
        (fun e st ->
          if Fault.state_equal st Fault.Closed_failure then
            Ftcsn_util.Union_find.union uf (Digraph.edge_src g e)
              (Digraph.edge_dst g e))
        pattern;
      s.Strip_ref.contracted_classes
      = snd (Strip_ref.compress_labels uf))

let prop_survivor_edges_are_normal =
  QCheck2.Test.make ~name:"surviving edges come from normal switches" ~count:100
    QCheck2.Gen.(int_range 0 100000)
    (fun seed ->
      let rng = Rng.create ~seed in
      let n = 2 + Rng.int rng 12 in
      let m = Rng.int rng 20 in
      let edges = Array.init m (fun _ -> (Rng.int rng n, Rng.int rng n)) in
      let g = Digraph.of_edges ~n edges in
      let pattern = Fault.sample rng ~eps_open:0.3 ~eps_close:0.3 ~m in
      let s = Strip_ref.apply g pattern in
      let ok = ref true in
      Array.iteri
        (fun e image ->
          if image >= 0 && not (Fault.state_equal pattern.(e) Fault.Normal) then
            ok := false)
        s.Strip_ref.edge_image;
      !ok)

let prop_sp_probs_in_range =
  QCheck2.Test.make ~name:"sp failure probabilities stay in [0,1]" ~count:100
    QCheck2.Gen.(pair (int_range 0 4) (int_range 1 20))
    (fun (k, e) ->
      let eps = float_of_int e /. 50.0 in
      let spec = Sp_network.iterate_quad k in
      let po = Sp_network.open_prob spec ~eps_open:eps ~eps_close:eps in
      let ps = Sp_network.short_prob spec ~eps_open:eps ~eps_close:eps in
      po >= 0.0 && po <= 1.0 && ps >= 0.0 && ps <= 1.0)

let prop_sample_into_matches_sample =
  QCheck2.Test.make ~name:"sample_into consumes the same stream as sample"
    ~count:200
    QCheck2.Gen.(triple (int_range 0 100000) (int_range 0 64) (int_range 0 10))
    (fun (seed, m, e) ->
      let eps_open = float_of_int e /. 25.0 in
      let eps_close = (1.0 -. eps_open) /. 3.0 in
      let a = Rng.create ~seed in
      let b = Rng.create ~seed in
      let fresh = Fault.sample a ~eps_open ~eps_close ~m in
      let buffer = Array.make m Fault.Closed_failure in
      Fault.sample_into b ~eps_open ~eps_close buffer;
      (* same pattern AND same post-state: interchangeable mid-stream *)
      Array.for_all2 Fault.state_equal fresh buffer
      && Rng.int64 a = Rng.int64 b)

let prop_workspace_survivor_matches_legacy =
  QCheck2.Test.make ~name:"workspace survivor ops match the legacy path"
    ~count:200
    QCheck2.Gen.(int_range 0 100000)
    (fun seed ->
      let rng = Rng.create ~seed in
      let n = 2 + Rng.int rng 12 in
      let m = Rng.int rng 24 in
      let edges = Array.init m (fun _ -> (Rng.int rng n, Rng.int rng n)) in
      let g = Digraph.of_edges ~n edges in
      let sc = Scratch.create g in
      let terminals =
        List.init (1 + Rng.int rng (min 4 n)) (fun _ -> Rng.int rng n)
      in
      let ok = ref true in
      (* two rounds on one workspace: reuse must behave like fresh state *)
      for _round = 0 to 1 do
        let pattern = Fault.sample rng ~eps_open:0.2 ~eps_close:0.3 ~m in
        let s = Strip_ref.apply g pattern in
        let failed =
          List.filter
            (fun e -> not (Fault.state_equal pattern.(e) Fault.Normal))
            (List.init m Fun.id)
        in
        Survivor.apply_into sc pattern ~edges:(Array.of_list failed)
          ~count:(List.length failed);
        if
          Strip_ref.merged_pairs s terminals
          <> Survivor.merged_pairs_into sc terminals
        then ok := false;
        let a = Rng.int rng n and b = Rng.int rng n in
        if
          Strip_ref.shorted_by_closure g pattern ~a ~b
          <> Survivor.shorted_by_closure_into sc pattern ~a ~b
        then ok := false;
        if
          Strip_ref.connected_ignoring_opens g pattern ~a ~b
          <> Survivor.connected_ignoring_opens_into sc pattern ~a ~b
        then ok := false
      done;
      !ok)

let prop_hammock_ws_matches_legacy =
  QCheck2.Test.make
    ~name:"hammock estimates: workspace path = legacy path, every jobs"
    ~count:10
    QCheck2.Gen.(int_range 0 1000)
    (fun seed ->
      let h = Hammock.make ~rows:3 ~width:4 in
      let trials = 400 in
      let eps = 0.08 in
      let run jobs =
        let rng = Rng.create ~seed in
        Hammock.open_failure_prob ~jobs ~trials ~rng ~eps h
      in
      (* reference: the same draws, each pattern judged by the
         rebuilding oracle's BFS *)
      let legacy =
        let rng = Rng.create ~seed in
        Monte_carlo.estimate_event_scratch ~trials ~rng ~graph:h.Hammock.graph
          ~eps_open:eps ~eps_close:eps (fun sc ->
            not
              (Strip_ref.connected_ignoring_opens h.Hammock.graph
                 (Scratch.pattern sc) ~a:h.Hammock.input ~b:h.Hammock.output))
      in
      let e1 = run 1 in
      run 2 = e1 && run 4 = e1 && legacy = e1)

(* the scratch-based collapse against the slice-by-slice rebuild: one
   [Array.sub] per gadget copy, classified on its own quotient *)
let prop_logical_pattern_matches_slices =
  QCheck2.Test.make
    ~name:"logical_pattern = per-slice oracle on random physical patterns"
    ~count:100
    QCheck2.Gen.(triple (int_range 0 100000) (int_range 1 2) (int_range 1 40))
    (fun (seed, k, pct) ->
      let g =
        Digraph.of_edges ~n:4 [| (0, 1); (1, 2); (2, 3); (0, 2); (1, 3) |]
      in
      let gadget = Sp_network.build (Sp_network.iterate_quad k) in
      let sub = Substitution.substitute g ~gadget in
      let gg = gadget.Sp_network.graph in
      let gm = Digraph.edge_count gg in
      let eps = float_of_int pct /. 100.0 in
      let rng = Rng.create ~seed in
      let pattern =
        Fault.sample rng ~eps_open:eps ~eps_close:eps
          ~m:(Digraph.edge_count sub.Substitution.graph)
      in
      let expected =
        Array.init (Digraph.edge_count g) (fun e ->
            let slice = Array.sub pattern (e * gm) gm in
            let a = gadget.Sp_network.input and b = gadget.Sp_network.output in
            if Strip_ref.shorted_by_closure gg slice ~a ~b then
              Fault.Closed_failure
            else if not (Strip_ref.connected_ignoring_opens gg slice ~a ~b)
            then Fault.Open_failure
            else Fault.Normal)
      in
      Substitution.logical_pattern sub pattern = expected)

let props =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_survivor_class_count;
      prop_survivor_edges_are_normal;
      prop_sp_probs_in_range;
      prop_sample_into_matches_sample;
      prop_workspace_survivor_matches_legacy;
      prop_hammock_ws_matches_legacy;
      prop_logical_pattern_matches_slices;
    ]

let () =
  Alcotest.run "ftcsn_reliability"
    [
      ( "fault",
        [
          Alcotest.test_case "sample frequencies" `Quick test_sample_frequencies;
          Alcotest.test_case "validation" `Quick test_sample_validation;
          Alcotest.test_case "pattern probability" `Quick test_pattern_probability;
          Alcotest.test_case "faulty vertices" `Quick test_faulty_vertices;
        ] );
      ( "survivor",
        [
          Alcotest.test_case "all normal" `Quick test_survivor_all_normal;
          Alcotest.test_case "open removes" `Quick test_survivor_open_removes;
          Alcotest.test_case "closed contracts" `Quick test_survivor_closed_contracts;
          Alcotest.test_case "loop dropped" `Quick test_survivor_contraction_makes_loop;
          Alcotest.test_case "shorted by closure" `Quick test_shorted_by_closure;
          Alcotest.test_case "connected ignoring opens" `Quick
            test_connected_ignoring_opens;
        ] );
      ( "exact-vs-mc",
        [
          Alcotest.test_case "single edge" `Quick test_exact_single_edge;
          Alcotest.test_case "series" `Quick test_exact_two_edge_series;
          Alcotest.test_case "size guard" `Quick test_exact_rejects_large;
          Alcotest.test_case "mc matches exact" `Quick test_monte_carlo_matches_exact;
          Alcotest.test_case "mc extremes" `Quick test_monte_carlo_extremes;
        ] );
      ( "sp-network",
        [
          Alcotest.test_case "size/depth" `Quick test_sp_size_depth;
          Alcotest.test_case "single switch probs" `Quick test_sp_probs_single;
          Alcotest.test_case "recurrence vs exact" `Quick test_sp_recurrence_vs_exact;
          Alcotest.test_case "amplification monotone" `Quick
            test_sp_amplification_monotone;
          Alcotest.test_case "design meets target" `Quick test_sp_design_meets_target;
          Alcotest.test_case "design validation" `Quick test_sp_design_rejects_large_eps;
          Alcotest.test_case "proposition-1 scaling" `Quick test_sp_proposition1_scaling;
          Alcotest.test_case "built structure" `Quick test_sp_build_structure;
        ] );
      ( "rectangle",
        [
          Alcotest.test_case "structure" `Quick test_rectangle_structure;
          Alcotest.test_case "closed form" `Quick test_rectangle_probs_match_closed_form;
          Alcotest.test_case "meets targets" `Quick test_design_rectangle_meets_targets;
          Alcotest.test_case "asymmetric advantage" `Quick
            test_design_rectangle_asymmetric_beats_quad;
          Alcotest.test_case "infeasible" `Quick test_design_rectangle_infeasible;
        ] );
      ( "hammock",
        [
          Alcotest.test_case "structure" `Quick test_hammock_structure;
          Alcotest.test_case "single row" `Quick test_hammock_single_row;
          Alcotest.test_case "rows reduce opens" `Quick
            test_hammock_reliability_improves_with_rows;
          Alcotest.test_case "rows increase shorts" `Quick
            test_hammock_short_grows_with_rows;
        ] );
      ( "importance",
        [
          Alcotest.test_case "single wire" `Quick test_importance_single_wire;
          Alcotest.test_case "redundant pair" `Quick test_importance_redundant_pair;
          Alcotest.test_case "short event" `Quick test_importance_short_event;
          Alcotest.test_case "rank" `Quick test_importance_rank;
        ] );
      ( "poly",
        [
          Alcotest.test_case "single switch" `Quick test_poly_single_switch;
          Alcotest.test_case "matches exact" `Quick test_poly_matches_exact;
          Alcotest.test_case "delta rescaling" `Quick test_poly_delta_rescaling;
          Alcotest.test_case "size guard" `Quick test_poly_rejects_large;
        ] );
      ( "substitution",
        [
          Alcotest.test_case "counts" `Quick test_substitution_counts;
          Alcotest.test_case "connectivity" `Quick
            test_substitution_preserves_connectivity;
          Alcotest.test_case "logical identity" `Quick test_logical_pattern_identity;
          Alcotest.test_case "logical open" `Quick test_logical_pattern_open;
          Alcotest.test_case "logical short" `Quick test_logical_pattern_short;
          Alcotest.test_case "logical rates" `Quick test_logical_pattern_rates;
        ] );
      ( "trials-engine",
        [
          Alcotest.test_case "estimates identical at every jobs" `Quick
            test_trials_jobs_deterministic;
          Alcotest.test_case "adaptive stopping identical at every jobs" `Quick
            test_trials_adaptive_deterministic;
          Alcotest.test_case "estimate_event_scratch identical at every jobs"
            `Quick test_estimate_event_scratch_jobs_deterministic;
          Alcotest.test_case "search witness identical at every jobs" `Quick
            test_search_jobs_deterministic;
        ] );
      ( "crn-sweep",
        [
          Alcotest.test_case "1-point grid = single-point engine" `Quick
            test_sweep_one_point_matches_scratch;
          Alcotest.test_case "curve points = independent runs" `Quick
            test_curve_points_match_independent_runs;
          Alcotest.test_case "identical across jobs and tracing" `Quick
            test_sweep_jobs_trace_deterministic;
          Alcotest.test_case "CRN success counts monotone" `Quick
            test_crn_curve_monotone_successes;
          Alcotest.test_case "hammock curve = independent runs" `Quick
            test_hammock_curve_matches_independent;
        ] );
      ( "domain-pool",
        [
          Alcotest.test_case "warm pool spawns nothing" `Quick
            test_pool_spawns_counted_once;
        ] );
      ("properties", props);
    ]
