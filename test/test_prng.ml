(* Tests for the deterministic PRNG layer. *)

module Rng = Ftcsn_prng.Rng
module Splitmix64 = Ftcsn_prng.Splitmix64
module Perm = Ftcsn_util.Perm

let checkb = Alcotest.(check bool)
let check = Alcotest.(check int)

let test_splitmix_deterministic () =
  let g = Splitmix64.create 1234567L in
  let a = Splitmix64.next g in
  let b = Splitmix64.next g in
  checkb "distinct" true (a <> b);
  let g2 = Splitmix64.create 1234567L in
  Alcotest.(check int64) "deterministic a" a (Splitmix64.next g2);
  Alcotest.(check int64) "deterministic b" b (Splitmix64.next g2)

let test_splitmix_copy () =
  let g = Splitmix64.create 99L in
  let h = Splitmix64.copy g in
  Alcotest.(check int64) "same stream" (Splitmix64.next g) (Splitmix64.next h)

let test_split_independence () =
  let g = Rng.create ~seed:5 in
  let a = Rng.split g in
  let b = Rng.split g in
  let xs = List.init 10 (fun _ -> Rng.int64 a) in
  let ys = List.init 10 (fun _ -> Rng.int64 b) in
  checkb "substreams differ" true (xs <> ys)

(* substream i must be bit-equal to the (i+1)-th consecutive split, so the
   Trials engine can hand trial i its historical stream in O(1) *)
let test_substream_matches_split () =
  let root = Rng.create ~seed:7 in
  for i = 0 to 19 do
    let by_split =
      let g = Rng.copy root in
      let s = ref (Rng.split g) in
      for _ = 1 to i do
        s := Rng.split g
      done;
      !s
    in
    let by_index = Rng.substream root i in
    for k = 0 to 4 do
      Alcotest.(check int64)
        (Printf.sprintf "substream %d draw %d" i k)
        (Rng.int64 by_split) (Rng.int64 by_index)
    done
  done

let test_advance_matches_splits () =
  let a = Rng.create ~seed:11 in
  let b = Rng.create ~seed:11 in
  for _ = 1 to 13 do
    ignore (Rng.split a)
  done;
  Rng.advance b 13;
  Alcotest.(check int64) "same stream after advance" (Rng.int64 a) (Rng.int64 b)

(* Outputs recorded from the generator itself: the tests above compare
   two runs of one build, this one compares against a fixed past, so a
   change to how draws are computed cannot move a single bit unseen. *)
let test_reference_vector () =
  let g = Splitmix64.create 0x0123456789ABCDEFL in
  Alcotest.(check (list int64))
    "Splitmix64.next"
    [ 1547611027431991965L; -3066016094752747373L; 3427440727199435966L;
      -6713713436388857876L ]
    (List.init 4 (fun _ -> Splitmix64.next g));
  let r = Rng.create ~seed:2024 in
  (* the last bound rejects about half of all raw draws *)
  Alcotest.(check (list int))
    "Rng.int"
    [ 0; 0; 2; 5; 6; 11; 925741; 268867774354; 3114776667611587888;
      1604587247303511323 ]
    (List.map (Rng.int r)
       [ 1; 2; 3; 7; 10; 1000; 1_000_003; 1 lsl 40; max_int; (1 lsl 61) + 1 ]);
  Alcotest.(check (list string))
    "Rng.float"
    [ "0x1.b023bfb6aaff5p-1"; "0x1.52ab878fb3a75p-1"; "0x1.2a18709a4eaa8p-3";
      "0x1.60a70d7e0c146p-1" ]
    (List.init 4 (fun _ -> Printf.sprintf "%h" (Rng.float r)));
  Alcotest.(check (list bool))
    "Rng.bool"
    [ true; true; true; true; false; false; false; false ]
    (List.init 8 (fun _ -> Rng.bool r));
  let s = Rng.substream r 5 in
  Alcotest.(check (list int64))
    "Rng.substream"
    [ 4300744985164940653L; 5693603253761048825L ]
    [ Rng.int64 s; Rng.int64 s ];
  Alcotest.(check int64)
    "the parent does not advance" (-4779199592365441225L) (Rng.int64 r)

(* The state is unboxed and [Rng] takes its bits as immediate ints, so
   in this (dev-profile) build a draw allocates nothing but the box of
   the float [Rng.float] returns. *)
let test_draws_allocation_free () =
  let r = Rng.create ~seed:53 in
  let n = 1_000_000 in
  let words f =
    f ();
    let w0 = Gc.minor_words () in
    f ();
    Gc.minor_words () -. w0
  in
  Alcotest.(check (float 0.0))
    "minor words of 1M Rng.int draws" 0.0
    (words (fun () ->
         for _ = 1 to n do
           ignore (Rng.int r 1000)
         done));
  Alcotest.(check (float 0.0))
    "minor words of 1M Rng.bool draws" 0.0
    (words (fun () ->
         for _ = 1 to n do
           ignore (Rng.bool r)
         done));
  let w =
    words (fun () ->
        for _ = 1 to n do
          ignore (Rng.float r)
        done)
  in
  if w > 2.0 *. float_of_int n then
    Alcotest.failf "Rng.float: %.2f minor words per draw, want at most 2"
      (w /. float_of_int n)

let test_int_bounds () =
  let g = Rng.create ~seed:3 in
  for _ = 1 to 10_000 do
    let v = Rng.int g 7 in
    if v < 0 || v >= 7 then Alcotest.fail "out of bounds"
  done;
  Alcotest.check_raises "zero bound"
    (Invalid_argument "Rng.int: bound must be positive") (fun () ->
      ignore (Rng.int g 0))

let test_int_uniformity () =
  let g = Rng.create ~seed:17 in
  let counts = Array.make 5 0 in
  let trials = 50_000 in
  for _ = 1 to trials do
    let v = Rng.int g 5 in
    counts.(v) <- counts.(v) + 1
  done;
  let expected = float_of_int trials /. 5.0 in
  Array.iter
    (fun c ->
      let dev = Float.abs (float_of_int c -. expected) /. expected in
      if dev > 0.05 then Alcotest.failf "bucket deviation %.3f too large" dev)
    counts

let test_float_range () =
  let g = Rng.create ~seed:23 in
  for _ = 1 to 10_000 do
    let x = Rng.float g in
    if x < 0.0 || x >= 1.0 then Alcotest.fail "float out of [0,1)"
  done

let test_float_mean () =
  let g = Rng.create ~seed:29 in
  let s = ref 0.0 in
  let trials = 100_000 in
  for _ = 1 to trials do
    s := !s +. Rng.float g
  done;
  let mean = !s /. float_of_int trials in
  checkb "mean near 1/2" true (Float.abs (mean -. 0.5) < 0.01)

let test_bernoulli_extremes () =
  let g = Rng.create ~seed:31 in
  checkb "p=0" false (Rng.bernoulli g 0.0);
  checkb "p=1" true (Rng.bernoulli g 1.0);
  let hits = ref 0 in
  for _ = 1 to 20_000 do
    if Rng.bernoulli g 0.3 then incr hits
  done;
  let rate = float_of_int !hits /. 20_000.0 in
  checkb "rate near 0.3" true (Float.abs (rate -. 0.3) < 0.02)

let test_binomial_moments () =
  let g = Rng.create ~seed:37 in
  (* small-p path exercises the waiting-time sampler *)
  let s = ref 0 in
  let trials = 5000 in
  for _ = 1 to trials do
    s := !s + Rng.binomial g ~n:1000 ~p:0.01
  done;
  let mean = float_of_int !s /. float_of_int trials in
  checkb "waiting-time mean near np" true (Float.abs (mean -. 10.0) < 0.5);
  let s2 = ref 0 in
  for _ = 1 to trials do
    s2 := !s2 + Rng.binomial g ~n:20 ~p:0.5
  done;
  let mean2 = float_of_int !s2 /. float_of_int trials in
  checkb "direct mean near np" true (Float.abs (mean2 -. 10.0) < 0.3)

let test_binomial_edges () =
  let g = Rng.create ~seed:41 in
  check "p=0" 0 (Rng.binomial g ~n:50 ~p:0.0);
  check "p=1" 50 (Rng.binomial g ~n:50 ~p:1.0);
  check "n=0" 0 (Rng.binomial g ~n:0 ~p:0.5)

let test_permutation_uniform_smell () =
  let g = Rng.create ~seed:43 in
  let tbl = Hashtbl.create 6 in
  let trials = 30_000 in
  for _ = 1 to trials do
    let p = Rng.permutation g 3 in
    let key = Array.to_list p in
    Hashtbl.replace tbl key
      (1 + Option.value ~default:0 (Hashtbl.find_opt tbl key))
  done;
  check "all 6 permutations seen" 6 (Hashtbl.length tbl);
  Hashtbl.iter
    (fun _ c ->
      let rate = float_of_int c /. float_of_int trials in
      if Float.abs (rate -. (1.0 /. 6.0)) > 0.01 then
        Alcotest.failf "permutation rate %.4f skewed" rate)
    tbl

let test_sample_without_replacement () =
  let g = Rng.create ~seed:47 in
  let s = Rng.sample_without_replacement g ~n:10 ~k:10 in
  Alcotest.(check (list int)) "full sample = 0..9" (List.init 10 Fun.id)
    (Array.to_list s);
  let empty = Rng.sample_without_replacement g ~n:100 ~k:0 in
  check "empty" 0 (Array.length empty)

let test_reproducibility () =
  let run seed =
    let g = Rng.create ~seed in
    List.init 20 (fun _ -> Rng.int g 1000)
  in
  Alcotest.(check (list int)) "same seed same stream" (run 1001) (run 1001);
  checkb "different seeds differ" true (run 1001 <> run 1002)

let prop_sample_sorted_distinct =
  QCheck2.Test.make ~name:"sample_without_replacement sorted distinct"
    ~count:200
    QCheck2.Gen.(triple (int_range 1 50) (int_range 0 50) int)
    (fun (n, k, seed) ->
      let k = min k n in
      let g = Rng.create ~seed in
      let s = Rng.sample_without_replacement g ~n ~k in
      let ok = ref (Array.length s = k) in
      Array.iteri
        (fun i x ->
          if x < 0 || x >= n then ok := false;
          if i > 0 && s.(i - 1) >= x then ok := false)
        s;
      !ok)

let prop_permutation_valid =
  QCheck2.Test.make ~name:"Rng.permutation is a permutation" ~count:200
    QCheck2.Gen.(pair (int_range 1 64) int)
    (fun (n, seed) ->
      let g = Rng.create ~seed in
      Perm.is_valid (Rng.permutation g n))

let props =
  List.map QCheck_alcotest.to_alcotest
    [ prop_sample_sorted_distinct; prop_permutation_valid ]

let () =
  Alcotest.run "ftcsn_prng"
    [
      ( "splitmix",
        [
          Alcotest.test_case "deterministic" `Quick test_splitmix_deterministic;
          Alcotest.test_case "copy" `Quick test_splitmix_copy;
          Alcotest.test_case "split" `Quick test_split_independence;
          Alcotest.test_case "substream = iterated split" `Quick
            test_substream_matches_split;
          Alcotest.test_case "advance = k splits" `Quick
            test_advance_matches_splits;
          Alcotest.test_case "reference vector" `Quick test_reference_vector;
        ] );
      ( "distributions",
        [
          Alcotest.test_case "draws are allocation-free" `Quick
            test_draws_allocation_free;
          Alcotest.test_case "int bounds" `Quick test_int_bounds;
          Alcotest.test_case "int uniformity" `Quick test_int_uniformity;
          Alcotest.test_case "float range" `Quick test_float_range;
          Alcotest.test_case "float mean" `Quick test_float_mean;
          Alcotest.test_case "bernoulli" `Quick test_bernoulli_extremes;
          Alcotest.test_case "binomial moments" `Quick test_binomial_moments;
          Alcotest.test_case "binomial edges" `Quick test_binomial_edges;
          Alcotest.test_case "permutation uniform" `Quick
            test_permutation_uniform_smell;
          Alcotest.test_case "sampling" `Quick test_sample_without_replacement;
          Alcotest.test_case "reproducibility" `Quick test_reproducibility;
        ] );
      ("properties", props);
    ]
