(* Tests for bipartite expanders: constructions, certification, spectra. *)

module Bipartite = Ftcsn_expander.Bipartite
module Random_regular = Ftcsn_expander.Random_regular
module Gabber_galil = Ftcsn_expander.Gabber_galil
module Margulis = Ftcsn_expander.Margulis
module Check = Ftcsn_expander.Check
module Spectral = Ftcsn_expander.Spectral
module Rng = Ftcsn_prng.Rng

let check = Alcotest.(check int)
let checkb = Alcotest.(check bool)

(* ---------- oracles for the constructions ---------- *)

(* min over all C(inlets, c) sets S with |S| = c of |Γ(S)|: the exact
   value the sampled search bounds from above *)
let min_neighbourhood_exhaustive b ~c =
  let best = ref max_int in
  Ftcsn_util.Combinat.iter_subsets ~n:b.Bipartite.inlets ~k:c (fun s ->
      best := min !best (Bipartite.neighbourhood_size b s));
  !best

(* edges arriving at each outlet *)
let in_degrees b =
  let deg = Array.make b.Bipartite.outlets 0 in
  Array.iter (Array.iter (fun o -> deg.(o) <- deg.(o) + 1)) b.Bipartite.adj;
  deg

(* |e(S,T) − d·|S||T|/n| / (d·√(|S||T|)): the expander-mixing-lemma
   ratio, at most σ₂ on a genuine expander *)
let mixing_discrepancy b ~s ~t =
  let n = float_of_int b.Bipartite.inlets in
  let d = float_of_int (max 1 (Bipartite.max_degree b)) in
  let in_t = Array.make b.Bipartite.outlets false in
  Array.iter (fun o -> in_t.(o) <- true) t;
  let edges = ref 0 in
  Array.iter
    (fun i ->
      Array.iter (fun o -> if in_t.(o) then incr edges) b.Bipartite.adj.(i))
    s;
  let fs = float_of_int (Array.length s) and ft = float_of_int (Array.length t) in
  Float.abs (float_of_int !edges -. (d *. fs *. ft /. n)) /. (d *. sqrt (fs *. ft))

let test_bipartite_make_validates () =
  Alcotest.check_raises "range" (Invalid_argument "Bipartite.make: range")
    (fun () ->
      ignore (Bipartite.make ~inlets:1 ~outlets:2 ~adj:[| [| 5 |] |]))

let test_bipartite_dedup () =
  let b = Bipartite.make ~inlets:1 ~outlets:4 ~adj:[| [| 2; 2; 0; 2 |] |] in
  check "deduped degree" 2 (Bipartite.degree b 0);
  check "edges" 2 (Bipartite.edge_count b)

let test_bipartite_neighbourhood () =
  let b =
    Bipartite.make ~inlets:3 ~outlets:4
      ~adj:[| [| 0; 1 |]; [| 1; 2 |]; [| 3 |] |]
  in
  check "pair" 3 (Bipartite.neighbourhood_size b [| 0; 1 |]);
  check "all" 4 (Bipartite.neighbourhood_size b [| 0; 1; 2 |]);
  Alcotest.(check (list int)) "in degrees" [ 1; 2; 1; 1 ]
    (Array.to_list (in_degrees b))

let test_bipartite_reverse () =
  let b = Bipartite.make ~inlets:2 ~outlets:3 ~adj:[| [| 0; 2 |]; [| 2 |] |] in
  let r = Bipartite.reverse b in
  check "reversed inlets" 3 r.Bipartite.inlets;
  check "reversed edges" 3 (Bipartite.edge_count r);
  Alcotest.(check (list int)) "outlet 2 sees both" [ 0; 1 ]
    (Array.to_list r.Bipartite.adj.(2))

let test_bipartite_to_digraph () =
  let b = Bipartite.make ~inlets:2 ~outlets:2 ~adj:[| [| 0 |]; [| 0; 1 |] |] in
  let g, ins, outs = Bipartite.to_digraph b in
  check "vertices" 4 (Ftcsn_graph.Digraph.vertex_count g);
  check "edges" 3 (Ftcsn_graph.Digraph.edge_count g);
  check "in array" 2 (Array.length ins);
  check "out array" 2 (Array.length outs)

let test_random_independent_degrees () =
  let rng = Rng.create ~seed:7 in
  let b = Random_regular.independent ~rng ~inlets:20 ~outlets:30 ~degree:5 in
  for i = 0 to 19 do
    check "degree" 5 (Bipartite.degree b i)
  done

let test_random_matching_union_balance () =
  let rng = Rng.create ~seed:8 in
  let b = Random_regular.matching_union ~rng ~inlets:16 ~outlets:16 ~degree:4 in
  (* every outlet in-degree = degree when sides are equal (before dedup
     collisions, which can only reduce; with 4 rounds collisions are
     possible but in-degree stays between 1 and 4) *)
  Array.iter
    (fun d -> checkb "balanced in-degree" true (d >= 1 && d <= 4))
    (in_degrees b);
  (* dedup can only lose collided edges: between 1 and 4 per inlet *)
  let edges = Bipartite.edge_count b in
  checkb "edge total bounded" true (edges > 16 && edges <= 16 * 4)

let test_gabber_galil_structure () =
  let b = Gabber_galil.make ~m:5 in
  check "side" 25 b.Bipartite.inlets;
  check "side out" 25 b.Bipartite.outlets;
  (* degree <= 5 after dedup, >= 3 always *)
  for i = 0 to 24 do
    let d = Bipartite.degree b i in
    checkb "degree in range" true (d >= 3 && d <= 5)
  done

let test_gabber_galil_expands_small_sets () =
  let b = Gabber_galil.make ~m:4 in
  (* every 2-subset of the 16 inlets must see more than 2 outlets *)
  let m = min_neighbourhood_exhaustive b ~c:2 in
  checkb "2-sets expand" true (m > 2)

let test_margulis_structure () =
  let b = Margulis.make ~m:4 in
  check "side" 16 b.Bipartite.inlets;
  for i = 0 to 15 do
    checkb "degree" true (Bipartite.degree b i >= 4 && Bipartite.degree b i <= 8)
  done

let test_min_neighbourhood_exhaustive_exact () =
  (* engineered instance: inlets 0 and 1 share both outlets *)
  let b =
    Bipartite.make ~inlets:4 ~outlets:4
      ~adj:[| [| 0; 1 |]; [| 0; 1 |]; [| 2; 3 |]; [| 1; 2 |] |]
  in
  check "min over pairs" 2 (min_neighbourhood_exhaustive b ~c:2);
  check "min over singles" 2 (min_neighbourhood_exhaustive b ~c:1)

let test_sampled_and_greedy_bound_exhaustive () =
  let rng = Rng.create ~seed:9 in
  let b = Random_regular.independent ~rng ~inlets:14 ~outlets:14 ~degree:3 in
  let exact = min_neighbourhood_exhaustive b ~c:4 in
  let sampled = Check.min_neighbourhood_sampled b ~c:4 ~samples:500 ~rng in
  checkb "sampled >= exact" true (sampled >= exact)

let test_certify_refutes_bad_graph () =
  (* all inlets point at outlet 0: certainly not (2, 2)-expanding *)
  let b = Bipartite.make ~inlets:6 ~outlets:6 ~adj:(Array.make 6 [| 0 |]) in
  let rng = Rng.create ~seed:10 in
  check "witness" 1 (Check.min_neighbourhood_sampled b ~c:2 ~samples:1 ~rng)

let test_certify_accepts_good_graph () =
  let rng = Rng.create ~seed:11 in
  let b = Random_regular.independent ~rng ~inlets:12 ~outlets:12 ~degree:6 in
  checkb "every 3-set sees 4 outlets" true (min_neighbourhood_exhaustive b ~c:3 >= 4)

let test_spectral_ramanujan_bound () =
  Alcotest.(check (float 1e-9)) "d=2" 1.0 (Spectral.ramanujan_bound ~degree:2);
  checkb "d=10 below 1" true (Spectral.ramanujan_bound ~degree:10 < 0.7)

let test_spectral_complete_bipartite () =
  (* complete bipartite: second singular value of B is exactly 0 *)
  let n = 8 in
  let adj = Array.make n (Array.init n Fun.id) in
  let b = Bipartite.make ~inlets:n ~outlets:n ~adj in
  let s2 = Spectral.second_singular_value b in
  checkb "sigma2 ~ 0" true (s2 < 0.1)

let test_spectral_disconnected_pairs () =
  (* perfect matching: all singular values of B equal 1 -> sigma2/d = 1 *)
  let n = 8 in
  let adj = Array.init n (fun i -> [| i |]) in
  let b = Bipartite.make ~inlets:n ~outlets:n ~adj in
  let s2 = Spectral.second_singular_value b in
  checkb "sigma2 ~ 1" true (s2 > 0.8)

let test_spectral_random_expander_gap () =
  let rng = Rng.create ~seed:12 in
  let b = Random_regular.matching_union ~rng ~inlets:64 ~outlets:64 ~degree:6 in
  let s2 = Spectral.second_singular_value b in
  (* random 6-regular bipartite graphs are near-Ramanujan; allow slack *)
  checkb "spectral gap" true (s2 < 0.9);
  checkb "nontrivial" true (s2 > 0.0)

let test_mixing_discrepancy () =
  let rng = Rng.create ~seed:13 in
  let b = Random_regular.matching_union ~rng ~inlets:32 ~outlets:32 ~degree:5 in
  let s = Array.init 8 Fun.id in
  let t = Array.init 8 (fun i -> 8 + i) in
  let disc = mixing_discrepancy b ~s ~t in
  checkb "bounded" true (disc >= 0.0 && disc <= 1.5)

(* paper Lemma 4/5 flavour: the number of faulty outlets of an expander
   under the failure model is exponentially concentrated *)
let test_faulty_outlet_tail () =
  let rng = Rng.create ~seed:14 in
  let b = Random_regular.matching_union ~rng ~inlets:64 ~outlets:64 ~degree:10 in
  let g, _, outlet_ids = Bipartite.to_digraph b in
  let eps = 0.001 in
  let trials = 2000 in
  let threshold = 7 (* ~ 0.11 * 64, matching the paper's 0.07 * t shape *) in
  let exceed = ref 0 in
  for _ = 1 to trials do
    let pattern =
      Ftcsn_reliability.Fault.sample rng ~eps_open:eps ~eps_close:eps
        ~m:(Ftcsn_graph.Digraph.edge_count g)
    in
    let faulty = Ftcsn_util.Bitset.create (Ftcsn_graph.Digraph.vertex_count g) in
    Ftcsn_reliability.Fault.faulty_vertices_into g pattern faulty;
    let count =
      Array.fold_left
        (fun acc v -> if Ftcsn_util.Bitset.mem faulty v then acc + 1 else acc)
        0 outlet_ids
    in
    if count > threshold then incr exceed
  done;
  check "tail event never fires at eps=1e-3" 0 !exceed

(* ---------- LPS Ramanujan graphs ---------- *)

let test_lps_validation () =
  (* 5, 13 is valid and built by the bipartite case below *)
  List.iter
    (fun (name, p, q) ->
      Alcotest.check_raises name
        (Invalid_argument
           "Lps.make: need distinct primes p, q = 1 mod 4 with q > 2 sqrt p")
        (fun () -> ignore (Ftcsn_expander.Lps.make ~p ~q)))
    [ ("same prime", 5, 5); ("3 mod 4", 7, 13); ("q too small", 13, 5) ]

let test_lps_bipartite_case () =
  (* (5|13) = -1: full PGL2, bipartite Cayley graph *)
  let b = Ftcsn_expander.Lps.make ~p:5 ~q:13 in
  check "vertices = |PGL2(13)| = 13·12·14" 2184 b.Bipartite.inlets;
  (* exactly 6-regular on both sides *)
  Array.iteri (fun i _ -> check "out degree" 6 (Bipartite.degree b i)) b.Bipartite.adj;
  Array.iter (fun d -> check "in degree" 6 d) (in_degrees b)

let test_lps_psl_case_is_ramanujan () =
  (* (13|17) = +1: PSL2, connected non-bipartite — the double cover's
     second singular value must respect the Ramanujan bound *)
  let b = Ftcsn_expander.Lps.make ~p:13 ~q:17 in
  check "vertices = |PSL2(17)| = 17·16·18/2" 2448 b.Bipartite.inlets;
  Array.iteri (fun i _ -> check "degree" 14 (Bipartite.degree b i)) b.Bipartite.adj;
  let s2 = Spectral.second_singular_value b in
  let bound = Spectral.ramanujan_bound ~degree:14 in
  checkb
    (Printf.sprintf "sigma2 %.4f <= ramanujan %.4f (+3%% numerics)" s2 bound)
    true
    (s2 <= bound *. 1.03)

let test_lps_expansion_small_sets () =
  let rng = Rng.create ~seed:99 in
  let b = Ftcsn_expander.Lps.make ~p:5 ~q:13 in
  (* sampled 8-subsets of a Ramanujan graph expand far beyond 8 *)
  let m = Check.min_neighbourhood_sampled b ~c:8 ~samples:300 ~rng in
  checkb "8-sets expand" true (m >= 24)

let prop_random_regular_expands =
  QCheck2.Test.make ~name:"random degree-6 graphs expand 3-sets" ~count:30
    QCheck2.Gen.(int_range 0 100000)
    (fun seed ->
      let rng = Rng.create ~seed in
      let b = Random_regular.independent ~rng ~inlets:16 ~outlets:16 ~degree:6 in
      min_neighbourhood_exhaustive b ~c:3 >= 6)

let prop_neighbourhood_monotone =
  QCheck2.Test.make ~name:"|Gamma(S)| monotone in |S|" ~count:50
    QCheck2.Gen.(int_range 0 100000)
    (fun seed ->
      let rng = Rng.create ~seed in
      let b = Random_regular.independent ~rng ~inlets:12 ~outlets:12 ~degree:3 in
      let s2 = Rng.sample_without_replacement rng ~n:12 ~k:4 in
      let s1 = Array.sub s2 0 2 in
      Bipartite.neighbourhood_size b s1 <= Bipartite.neighbourhood_size b s2)

let props =
  List.map QCheck_alcotest.to_alcotest
    [ prop_random_regular_expands; prop_neighbourhood_monotone ]

let () =
  Alcotest.run "ftcsn_expander"
    [
      ( "bipartite",
        [
          Alcotest.test_case "validation" `Quick test_bipartite_make_validates;
          Alcotest.test_case "dedup" `Quick test_bipartite_dedup;
          Alcotest.test_case "neighbourhood" `Quick test_bipartite_neighbourhood;
          Alcotest.test_case "reverse" `Quick test_bipartite_reverse;
          Alcotest.test_case "to_digraph" `Quick test_bipartite_to_digraph;
        ] );
      ( "constructions",
        [
          Alcotest.test_case "independent degrees" `Quick
            test_random_independent_degrees;
          Alcotest.test_case "matching union balance" `Quick
            test_random_matching_union_balance;
          Alcotest.test_case "gabber-galil structure" `Quick
            test_gabber_galil_structure;
          Alcotest.test_case "gabber-galil expands" `Quick
            test_gabber_galil_expands_small_sets;
          Alcotest.test_case "margulis structure" `Quick test_margulis_structure;
        ] );
      ( "certification",
        [
          Alcotest.test_case "exhaustive exact" `Quick
            test_min_neighbourhood_exhaustive_exact;
          Alcotest.test_case "sampled/greedy bound" `Quick
            test_sampled_and_greedy_bound_exhaustive;
          Alcotest.test_case "refutes bad" `Quick test_certify_refutes_bad_graph;
          Alcotest.test_case "accepts good" `Quick test_certify_accepts_good_graph;
        ] );
      ( "spectral",
        [
          Alcotest.test_case "ramanujan bound" `Quick test_spectral_ramanujan_bound;
          Alcotest.test_case "complete bipartite" `Quick
            test_spectral_complete_bipartite;
          Alcotest.test_case "matching" `Quick test_spectral_disconnected_pairs;
          Alcotest.test_case "random expander gap" `Quick
            test_spectral_random_expander_gap;
          Alcotest.test_case "mixing" `Quick test_mixing_discrepancy;
        ] );
      ( "lps",
        [
          Alcotest.test_case "validation" `Quick test_lps_validation;
          Alcotest.test_case "bipartite case" `Slow test_lps_bipartite_case;
          Alcotest.test_case "psl case ramanujan" `Slow
            test_lps_psl_case_is_ramanujan;
          Alcotest.test_case "expansion" `Slow test_lps_expansion_small_sets;
        ] );
      ( "fault-tails",
        [ Alcotest.test_case "lemma-4 flavour" `Quick test_faulty_outlet_tail ] );
      ("properties", props);
    ]
