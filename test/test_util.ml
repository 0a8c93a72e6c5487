(* Unit and property tests for ftcsn_util. *)

module Vec = Ftcsn_util.Vec
module Bitset = Ftcsn_util.Bitset
module Union_find = Ftcsn_util.Union_find
module Perm = Ftcsn_util.Perm
module Combinat = Ftcsn_util.Combinat
module Prob = Ftcsn_util.Prob
module Stats = Ftcsn_util.Stats
module Table = Ftcsn_util.Table

let check = Alcotest.(check int)
let checkb = Alcotest.(check bool)
let checkf = Alcotest.(check (float 1e-9))

(* ---------- Vec ---------- *)

let test_vec_push_pop () =
  let v = Vec.create () in
  for i = 0 to 99 do
    Vec.push v i
  done;
  check "length" 100 (Vec.length v);
  check "get" 37 (Vec.get v 37);
  check "last" 99 (Vec.last v);
  check "pop" 99 (Vec.pop v);
  check "length after pop" 99 (Vec.length v)

let test_vec_bounds () =
  let v = Vec.make 3 0 in
  Alcotest.check_raises "get oob" (Invalid_argument "Vec: index out of bounds")
    (fun () -> ignore (Vec.get v 3));
  Alcotest.check_raises "pop empty" (Invalid_argument "Vec.pop: empty")
    (fun () -> ignore (Vec.pop (Vec.create ())))

let test_vec_round_trip () =
  let a = Array.init 17 (fun i -> i * i) in
  let v = Vec.of_array a in
  Alcotest.(check (array int)) "to_array" a (Vec.to_array v);
  Alcotest.(check (list int)) "to_list" (Array.to_list a) (Vec.to_list v)

let test_vec_iteration () =
  let v = Vec.of_array [| 1; 2; 3; 4 |] in
  check "fold" 10 (Vec.fold_left ( + ) 0 v);
  checkb "exists" true (Vec.exists (fun x -> x = 3) v);
  checkb "not exists" false (Vec.exists (fun x -> x = 7) v);
  let seen = ref [] in
  Vec.iteri (fun i x -> seen := (i, x) :: !seen) v;
  check "iteri count" 4 (List.length !seen)

let test_vec_clear_reuse () =
  let v = Vec.create () in
  Vec.push v 1;
  Vec.clear v;
  checkb "empty" true (Vec.is_empty v);
  Vec.push v 5;
  check "reused" 5 (Vec.get v 0)

(* ---------- Bitset ---------- *)

let test_bitset_basic () =
  let s = Bitset.create 200 in
  Bitset.add s 0;
  Bitset.add s 63;
  Bitset.add s 64;
  Bitset.add s 199;
  check "cardinal" 4 (Bitset.cardinal s);
  checkb "mem 63" true (Bitset.mem s 63);
  checkb "mem 62" false (Bitset.mem s 62);
  Bitset.remove s 63;
  checkb "removed" false (Bitset.mem s 63);
  check "cardinal after" 3 (Bitset.cardinal s)

let test_bitset_iter_order () =
  let s = Bitset.create 100 in
  List.iter (Bitset.add s) [ 40; 3; 99; 17 ];
  Alcotest.(check (list int)) "sorted" [ 3; 17; 40; 99 ] (Bitset.to_list s)

let test_bitset_set_ops () =
  let a = Bitset.create 50 and b = Bitset.create 50 in
  List.iter (Bitset.add a) [ 1; 2; 3 ];
  List.iter (Bitset.add b) [ 3; 4 ];
  check "inter" 1 (Bitset.inter_cardinal a b);
  checkb "not disjoint" false (Bitset.disjoint a b);
  Bitset.union_into a b;
  check "union card" 4 (Bitset.cardinal a);
  let c = Bitset.copy a in
  Bitset.clear a;
  check "clear" 0 (Bitset.cardinal a);
  check "copy unaffected" 4 (Bitset.cardinal c)

(* ---------- Union_find ---------- *)

let test_union_find_classes () =
  let uf = Union_find.create 10 in
  let classes () =
    List.length (List.sort_uniq compare (List.init 10 (Union_find.find uf)))
  in
  check "initial classes" 10 (classes ());
  Union_find.union uf 0 1;
  Union_find.union uf 1 2;
  Union_find.union uf 5 6;
  check "classes" 7 (classes ());
  checkb "equiv" true (Union_find.equiv uf 0 2);
  checkb "not equiv" false (Union_find.equiv uf 0 5)

let test_union_find_labels () =
  let uf = Union_find.create 6 in
  Union_find.union uf 0 5;
  Union_find.union uf 2 3;
  let label, k = Strip_ref.compress_labels uf in
  check "class count" 4 k;
  check "same label" label.(0) label.(5);
  check "same label2" label.(2) label.(3);
  Array.iter (fun l -> checkb "dense" true (l >= 0 && l < k)) label

let test_union_find_idempotent () =
  let uf = Union_find.create 4 in
  Union_find.union uf 0 1;
  Union_find.union uf 0 1;
  Union_find.union uf 1 0;
  check "classes" 3 (snd (Strip_ref.compress_labels uf))

(* ---------- Perm ---------- *)

let test_perm_compose_inverse () =
  let p = [| 2; 0; 1; 3 |] in
  checkb "valid" true (Perm.is_valid p);
  let inv = Perm.inverse p in
  let compose p q = Array.map (Perm.apply p) q in
  Alcotest.(check (array int)) "p . p^-1 = id" (Perm.identity 4) (compose p inv);
  Alcotest.(check (array int)) "p^-1 . p = id" (Perm.identity 4) (compose inv p)

let test_perm_iter_all_count () =
  let count = ref 0 in
  Perm.iter_all 5 (fun p ->
      incr count;
      if not (Perm.is_valid p) then Alcotest.fail "invalid perm from iter_all");
  check "5! permutations" 120 !count

let test_perm_iter_all_distinct () =
  let seen = Hashtbl.create 64 in
  Perm.iter_all 4 (fun p -> Hashtbl.replace seen (Array.to_list p) ());
  check "4! distinct" 24 (Hashtbl.length seen)

let test_perm_cycles () =
  let p = [| 1; 0; 2; 4; 3 |] in
  check "cycles" 3 (List.length (Perm.cycles p));
  Alcotest.(check (list (list int))) "cycle order" [ [ 0; 1 ]; [ 2 ]; [ 3; 4 ] ]
    (List.sort compare (List.map (List.sort compare) (Perm.cycles p)))

let test_perm_rotation_reversal () =
  Alcotest.(check (array int)) "rot" [| 2; 3; 0; 1 |] (Perm.rotation 4 2);
  Alcotest.(check (array int)) "rot neg" (Perm.rotation 4 3) (Perm.rotation 4 (-1));
  checkb "invalid" false (Perm.is_valid [| 0; 0; 1 |])

(* ---------- Combinat ---------- *)

let test_binomial_values () =
  checkf "C(5,2)" 10.0 (Combinat.binomial 5 2);
  checkf "C(10,0)" 1.0 (Combinat.binomial 10 0);
  checkf "C(10,10)" 1.0 (Combinat.binomial 10 10);
  checkf "C(4,7)" 0.0 (Combinat.binomial 4 7)

let test_log_binomial_consistency () =
  (* log-space formula must agree with the exact product for mid sizes *)
  let exact = Combinat.binomial 40 17 in
  let via_log = exp (Combinat.log_binomial 40 17) in
  Alcotest.(check bool) "within 1e-6 rel" true
    (Float.abs (exact -. via_log) /. exact < 1e-6)

let test_iter_subsets () =
  let count = ref 0 in
  let last = ref [||] in
  Combinat.iter_subsets ~n:6 ~k:3 (fun s ->
      incr count;
      last := Array.copy s);
  check "C(6,3)" 20 !count;
  Alcotest.(check (array int)) "lexicographic last" [| 3; 4; 5 |] !last

let test_iter_subsets_edge () =
  let count = ref 0 in
  Combinat.iter_subsets ~n:4 ~k:0 (fun _ -> incr count);
  check "k=0" 1 !count;
  Combinat.iter_subsets ~n:4 ~k:4 (fun s ->
      Alcotest.(check (array int)) "full set" [| 0; 1; 2; 3 |] (Array.copy s))

let test_choose_indices () =
  let rng = Ftcsn_prng.Rng.create ~seed:1 in
  for _ = 1 to 50 do
    let s =
      Combinat.choose_indices ~rand_int:(Ftcsn_prng.Rng.int rng) ~n:20 ~k:7
    in
    check "size" 7 (Array.length s);
    let sorted = Array.copy s in
    Array.sort compare sorted;
    Alcotest.(check (array int)) "sorted+distinct" sorted s;
    Array.iteri
      (fun i x ->
        if i > 0 && s.(i - 1) = x then Alcotest.fail "duplicate index")
      s
  done

(* ---------- Prob ---------- *)

let test_pow () =
  checkf "2^10" 1024.0 (Prob.pow 2.0 10);
  checkf "x^0" 1.0 (Prob.pow 0.3 0);
  checkf "0.5^3" 0.125 (Prob.pow 0.5 3)

(* exact binomial tails, summed in log space: the reference the
   Chernoff bound must dominate *)
let log_pmf ~n ~p ~k =
  Combinat.log_binomial n k
  +. (float_of_int k *. log p)
  +. (float_of_int (n - k) *. log (1.0 -. p))

let binomial_tail_ge ~n ~p ~k =
  if k <= 0 then 1.0
  else if k > n then 0.0
  else begin
    let acc = ref 0.0 in
    for i = k to n do
      acc := !acc +. exp (log_pmf ~n ~p ~k:i)
    done;
    Float.min 1.0 !acc
  end

let binomial_tail_le ~n ~p ~k =
  if k >= n then 1.0
  else if k < 0 then 0.0
  else begin
    let acc = ref 0.0 in
    for i = 0 to k do
      acc := !acc +. exp (log_pmf ~n ~p ~k:i)
    done;
    Float.min 1.0 !acc
  end

let test_binomial_tails_complement () =
  (* P[X >= k] + P[X <= k-1] = 1 *)
  let n = 30 and p = 0.3 in
  List.iter
    (fun k ->
      let s = binomial_tail_ge ~n ~p ~k +. binomial_tail_le ~n ~p ~k:(k - 1) in
      Alcotest.(check (float 1e-9)) "complement" 1.0 s)
    [ 1; 5; 15; 29 ]

let test_binomial_tail_known () =
  (* P[Bin(4, 1/2) >= 2] = 11/16 *)
  Alcotest.(check (float 1e-12)) "bin(4,.5)>=2" (11.0 /. 16.0)
    (binomial_tail_ge ~n:4 ~p:0.5 ~k:2)

let test_chernoff_dominates () =
  let n = 200 and p = 0.1 in
  List.iter
    (fun k ->
      let exact = binomial_tail_ge ~n ~p ~k in
      let bound = Prob.chernoff_upper ~n ~p ~k in
      checkb
        (Printf.sprintf "chernoff >= exact at k=%d" k)
        true
        (bound +. 1e-12 >= exact))
    [ 25; 40; 60; 100 ]

let test_wilson_interval () =
  let lo, hi = Prob.wilson_interval ~successes:50 ~trials:100 ~z:1.96 in
  checkb "contains phat" true (lo < 0.5 && hi > 0.5);
  checkb "in range" true (lo >= 0.0 && hi <= 1.0);
  let lo0, hi0 = Prob.wilson_interval ~successes:0 ~trials:100 ~z:1.96 in
  checkf "zero successes lo" 0.0 lo0;
  checkb "zero successes hi > 0" true (hi0 > 0.0)

(* ---------- Stats ---------- *)

let test_stats_moments () =
  let s = Stats.of_array [| 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 |] in
  checkf "mean" 5.0 (Stats.mean s);
  Alcotest.(check (float 1e-9)) "variance" (32.0 /. 7.0) (Stats.variance s);
  checkf "min" 2.0 (Stats.min_value s);
  checkf "max" 9.0 (Stats.max_value s);
  checkf "sum" 40.0 (Stats.sum s);
  check "count" 8 (Stats.count s)

let test_stats_empty_and_single () =
  let s = Stats.create () in
  checkf "empty mean" 0.0 (Stats.mean s);
  Stats.add s 3.0;
  checkf "single mean" 3.0 (Stats.mean s);
  checkf "single var" 0.0 (Stats.variance s)

(* ---------- Table ---------- *)

let contains_substring haystack needle =
  let hl = String.length haystack and nl = String.length needle in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

let test_table_render () =
  let t =
    Table.create ~title:"t" ~columns:[ ("a", Table.Left); ("bb", Table.Right) ]
  in
  Table.add_row t [ "x"; "1" ];
  Table.add_row t [ "yy"; "22" ];
  let s = Table.render t in
  checkb "has title" true (contains_substring s "== t ==");
  checkb "has header" true (contains_substring s "bb");
  checkb "has cell" true (contains_substring s "22")

let test_table_arity () =
  let t = Table.create ~title:"t" ~columns:[ ("a", Table.Left) ] in
  Alcotest.check_raises "arity" (Invalid_argument "Table.add_row: wrong arity")
    (fun () -> Table.add_row t [ "x"; "y" ])

let test_table_formats () =
  Alcotest.(check string) "fi" "42" (Table.fi 42);
  Alcotest.(check string) "ff" "3.142" (Table.ff 3.14159);
  Alcotest.(check string) "fe" "1.23e-04" (Table.fe 1.23e-4)

(* ---------- qcheck properties ---------- *)

let prop_perm_shuffle_valid =
  QCheck2.Test.make ~name:"shuffle yields valid permutations" ~count:200
    QCheck2.Gen.(pair (int_range 1 50) int)
    (fun (n, seed) ->
      let rng = Ftcsn_prng.Rng.create ~seed in
      Perm.is_valid (Perm.shuffle ~rand_int:(Ftcsn_prng.Rng.int rng) n))

let prop_perm_double_inverse =
  QCheck2.Test.make ~name:"inverse . inverse = id" ~count:200
    QCheck2.Gen.(pair (int_range 1 30) int)
    (fun (n, seed) ->
      let rng = Ftcsn_prng.Rng.create ~seed in
      let p = Perm.shuffle ~rand_int:(Ftcsn_prng.Rng.int rng) n in
      Perm.inverse (Perm.inverse p) = p)

let prop_bitset_add_remove =
  QCheck2.Test.make ~name:"bitset add/remove round-trips" ~count:200
    QCheck2.Gen.(list (int_range 0 99))
    (fun xs ->
      let s = Bitset.create 100 in
      List.iter (Bitset.add s) xs;
      let sorted = List.sort_uniq compare xs in
      Bitset.to_list s = sorted
      && Bitset.cardinal s = List.length sorted)

let prop_union_find_transitive =
  QCheck2.Test.make ~name:"union-find equivalence is transitive" ~count:100
    QCheck2.Gen.(list (pair (int_range 0 19) (int_range 0 19)))
    (fun pairs ->
      let uf = Union_find.create 20 in
      List.iter (fun (a, b) -> Union_find.union uf a b) pairs;
      let ok = ref true in
      for a = 0 to 19 do
        for b = 0 to 19 do
          for c = 0 to 19 do
            if
              Union_find.equiv uf a b && Union_find.equiv uf b c
              && not (Union_find.equiv uf a c)
            then ok := false
          done
        done
      done;
      !ok)

let prop_binomial_symmetry =
  QCheck2.Test.make ~name:"C(n,k) = C(n,n-k)" ~count:200
    QCheck2.Gen.(pair (int_range 0 50) (int_range 0 50))
    (fun (n, k) ->
      k > n || Float.abs (Combinat.binomial n k -. Combinat.binomial n (n - k)) < 1e-6)

let props =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_perm_shuffle_valid;
      prop_perm_double_inverse;
      prop_bitset_add_remove;
      prop_union_find_transitive;
      prop_binomial_symmetry;
    ]

let () =
  Alcotest.run "ftcsn_util"
    [
      ( "vec",
        [
          Alcotest.test_case "push/pop" `Quick test_vec_push_pop;
          Alcotest.test_case "bounds" `Quick test_vec_bounds;
          Alcotest.test_case "round-trip" `Quick test_vec_round_trip;
          Alcotest.test_case "iteration" `Quick test_vec_iteration;
          Alcotest.test_case "clear/reuse" `Quick test_vec_clear_reuse;
        ] );
      ( "bitset",
        [
          Alcotest.test_case "basic" `Quick test_bitset_basic;
          Alcotest.test_case "iter order" `Quick test_bitset_iter_order;
          Alcotest.test_case "set ops" `Quick test_bitset_set_ops;
        ] );
      ( "union_find",
        [
          Alcotest.test_case "classes" `Quick test_union_find_classes;
          Alcotest.test_case "labels" `Quick test_union_find_labels;
          Alcotest.test_case "idempotent" `Quick test_union_find_idempotent;
        ] );
      ( "perm",
        [
          Alcotest.test_case "compose/inverse" `Quick test_perm_compose_inverse;
          Alcotest.test_case "iter_all count" `Quick test_perm_iter_all_count;
          Alcotest.test_case "iter_all distinct" `Quick test_perm_iter_all_distinct;
          Alcotest.test_case "cycles" `Quick test_perm_cycles;
          Alcotest.test_case "rotation/reversal" `Quick test_perm_rotation_reversal;
        ] );
      ( "combinat",
        [
          Alcotest.test_case "binomial values" `Quick test_binomial_values;
          Alcotest.test_case "log consistency" `Quick test_log_binomial_consistency;
          Alcotest.test_case "iter_subsets" `Quick test_iter_subsets;
          Alcotest.test_case "iter_subsets edges" `Quick test_iter_subsets_edge;
          Alcotest.test_case "choose_indices" `Quick test_choose_indices;
        ] );
      ( "prob",
        [
          Alcotest.test_case "pow" `Quick test_pow;
          Alcotest.test_case "tail complement" `Quick test_binomial_tails_complement;
          Alcotest.test_case "tail known value" `Quick test_binomial_tail_known;
          Alcotest.test_case "chernoff dominates" `Quick test_chernoff_dominates;
          Alcotest.test_case "wilson" `Quick test_wilson_interval;
        ] );
      ( "stats",
        [
          Alcotest.test_case "moments" `Quick test_stats_moments;
          Alcotest.test_case "empty/single" `Quick test_stats_empty_and_single;
        ] );
      ( "table",
        [
          Alcotest.test_case "render" `Quick test_table_render;
          Alcotest.test_case "arity" `Quick test_table_arity;
          Alcotest.test_case "formats" `Quick test_table_formats;
        ] );
      ("properties", props);
    ]
