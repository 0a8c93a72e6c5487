(* Tests for the observability layer (Ftcsn_obs): JSON printing/parsing,
   histogram bucketing invariants, atomic counters under domains, trace
   event serialization (round-trip of every event kind), sinks, the
   metrics registry — and the headline guarantee that tracing never
   perturbs Monte-Carlo results. *)

module Json = Ftcsn_obs.Json
module Clock = Ftcsn_obs.Clock
module Counter = Ftcsn_obs.Counter
module Histogram = Ftcsn_obs.Histogram
module Timer = Ftcsn_obs.Timer
module Trace = Ftcsn_obs.Trace
module Metrics = Ftcsn_obs.Metrics
module Rng = Ftcsn_prng.Rng

(* ---------- Json ---------- *)

let sample_value =
  Json.Obj
    [
      ("null", Json.Null);
      ("flag", Json.Bool true);
      ("n", Json.Int (-42));
      ("big", Json.Int max_int);
      ("x", Json.Float 0.1);
      ("pi", Json.Float (4.0 *. atan 1.0));
      ("s", Json.String "line\nfeed \"quoted\" back\\slash\ttab");
      ("utf8", Json.String "ε-δ réseau");
      ("list", Json.List [ Json.Int 1; Json.Float 2.5; Json.String "three" ]);
      ("nested", Json.Obj [ ("empty_list", Json.List []); ("empty_obj", Json.Obj []) ]);
    ]

let test_json_roundtrip () =
  let s = Json.to_string sample_value in
  match Json.parse s with
  | Error e -> Alcotest.failf "parse of printed value failed: %s\ninput: %s" e s
  | Ok v ->
      Alcotest.(check bool) "round-trip equality" true (v = sample_value)

let test_json_float_repr () =
  List.iter
    (fun f ->
      let s = Json.to_string (Json.Float f) in
      match Json.parse s with
      | Ok (Json.Float f') ->
          Alcotest.(check bool)
            (Printf.sprintf "float %h round-trips via %s" f s)
            true
            (Int64.bits_of_float f = Int64.bits_of_float f')
      | Ok (Json.Int n) ->
          Alcotest.(check (float 0.0)) "integral float" f (float_of_int n)
      | Ok _ -> Alcotest.fail "float printed as non-number"
      | Error e -> Alcotest.failf "float repr unparseable: %s" e)
    [ 0.0; 1.0; -1.5; 0.1; 1e-300; 1.7976931348623157e308; 3.0000000000000004 ];
  (* JSON cannot represent non-finite floats; we document them as null *)
  Alcotest.(check string) "nan is null" "null" (Json.to_string (Json.Float nan));
  Alcotest.(check string)
    "inf is null" "null"
    (Json.to_string (Json.Float infinity))

(* Float bytes against test/json_ref.ml's three-step printer, which
   renders %.12g, %.15g and %.17g in turn: the one-conversion printer
   must agree byte for byte, subnormals and rounding-interval edges
   included. *)
let float_bytes_agree f =
  let got = Json.to_string (Json.Float f) and want = Json_ref.float_repr f in
  got = want || QCheck2.Test.fail_reportf "%h prints %s, oracle %s" f got want

let qcheck_float_bits =
  QCheck2.Test.make ~name:"float bytes = oracle on random bit patterns"
    ~count:20_000
    QCheck2.Gen.(
      map2
        (fun bits subnormal ->
          (* every 8th draw clears the exponent: a subnormal or zero *)
          Int64.float_of_bits
            (if subnormal = 0 then Int64.logand bits 0x800F_FFFF_FFFF_FFFFL
             else bits))
        int64 (0 -- 7))
    float_bytes_agree

let qcheck_float_decimals =
  QCheck2.Test.make
    ~name:"float bytes = oracle on pred/succ of 1-17 digit decimals"
    ~count:20_000
    QCheck2.Gen.(
      (1 -- 17) >>= fun digits ->
      map2
        (fun m e -> float_of_string (Printf.sprintf "%de%d" m e))
        (0 -- (int_of_float (10. ** float_of_int digits) - 1))
        (-320 -- 308))
    (fun f ->
      float_bytes_agree f
      && float_bytes_agree (Float.pred f)
      && float_bytes_agree (Float.succ f)
      && float_bytes_agree (-.f))

let check_float_bytes want f =
  Alcotest.(check string) (Printf.sprintf "%h" f) want
    (Json.to_string (Json.Float f))

let test_json_float_bytes () =
  (* powers of two, where the rounding interval is asymmetric, and their
     neighbours, over every binary exponent *)
  for k = -1074 to 1023 do
    let p = Float.ldexp 1.0 k in
    List.iter
      (fun f ->
        check_float_bytes (Json_ref.float_repr f) f;
        check_float_bytes (Json_ref.float_repr (-.f)) (-.f))
      [ Float.pred p; p; Float.succ p ]
  done;
  List.iter
    (fun (f, want) ->
      check_float_bytes want f;
      check_float_bytes (Json_ref.float_repr f) f)
    [
      (0.0, "0");
      (-0.0, "-0");
      (5e-324, "4.94065645841e-324");
      (Float.min_float, "2.2250738585072014e-308");
      (Float.pred Float.min_float, "2.2250738585072009e-308");
      (Float.max_float, "1.7976931348623157e+308");
      (9007199254740991.0, "9007199254740991");
      (9007199254740992.0, "9007199254740992");
      (* 2^53 + 1 is not a double: the literal rounds to 2^53 *)
      (9007199254740993.0, "9007199254740992");
      (9007199254740994.0, "9007199254740994");
      (0.1 +. 0.2, "0.30000000000000004");
      (* 16 digits would parse back; the 12/15/17 rule prints 17 *)
      (0.1 +. 0.7, "0.79999999999999993");
      (0.123456789012, "0.123456789012");
      (0.123456789012345, "0.123456789012345");
      (0.1234567890123456, "0.12345678901234559");
      (0.12345678901234568, "0.12345678901234568");
    ];
  List.iter
    (fun f ->
      Alcotest.(check string) "non-finite is null" "null"
        (Json.to_string (Json.Float f)))
    [ nan; -.nan; infinity; neg_infinity ]

let test_json_parse_errors () =
  List.iter
    (fun s ->
      match Json.parse s with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "expected parse error for %S" s)
    [ ""; "{"; "[1,]"; "{\"a\":}"; "tru"; "\"unterminated"; "1 2"; "{'a':1}" ]

let test_json_accessors () =
  let v = Json.Obj [ ("a", Json.Int 3); ("b", Json.Float 3.0) ] in
  Alcotest.(check (option int)) "member a" (Some 3)
    (Option.bind (Json.member "a" v) Json.to_int);
  Alcotest.(check (option int))
    "integral float as int" (Some 3)
    (Option.bind (Json.member "b" v) Json.to_int);
  Alcotest.(check bool) "missing member" true (Json.member "c" v = None);
  Alcotest.(check (option (float 0.0))) "int as float" (Some 3.0)
    (Option.bind (Json.member "a" v) Json.to_float)

(* ---------- Histogram ---------- *)

let test_histogram_buckets () =
  let check_value v =
    let lo, hi = Histogram.bucket_bounds (Histogram.bucket_index v) in
    if not (lo <= v && v <= hi) then
      Alcotest.failf "bounds [%d, %d] do not bracket %d" lo hi v;
    (* relative bucket width is at most 1/16 of the lower bound *)
    if v >= 16 && hi - lo + 1 > max 1 (lo / 16) then
      Alcotest.failf "bucket [%d, %d] wider than lower/16" lo hi
  in
  for v = 0 to 2000 do check_value v done;
  List.iter check_value
    [ 4095; 4096; 4097; 65535; 65536; 1_000_000; 123_456_789; max_int / 2 ]

let test_histogram_stats () =
  let h = Histogram.create () in
  for v = 1 to 1000 do Histogram.record h v done;
  Alcotest.(check int) "count" 1000 (Histogram.count h);
  Alcotest.(check int) "sum" 500500 (Histogram.sum h);
  Alcotest.(check int) "min" 1 (Histogram.min_value h);
  Alcotest.(check int) "max" 1000 (Histogram.max_value h);
  Alcotest.(check (float 1e-9)) "mean" 500.5 (Histogram.mean h);
  let p50 = Histogram.quantile h 0.5 in
  Alcotest.(check bool)
    (Printf.sprintf "p50 = %d within bucket error of 500" p50)
    true
    (p50 >= 500 && p50 <= 500 + (500 / 16) + 1);
  Alcotest.(check int) "q=1 clamps to max" 1000 (Histogram.quantile h 1.0)

(* ---------- Counter / Clock / Timer ---------- *)

let test_counter_domains () =
  let c = Counter.create "test.parallel" in
  let per_domain = 10_000 in
  let workers =
    List.init 4 (fun _ ->
        Domain.spawn (fun () ->
            for _ = 1 to per_domain do Counter.incr c done))
  in
  List.iter Domain.join workers;
  Alcotest.(check int) "no lost increments" (4 * per_domain) (Counter.get c);
  Counter.add c 5;
  Alcotest.(check int) "add" ((4 * per_domain) + 5) (Counter.get c);
  Counter.reset c;
  Alcotest.(check int) "reset" 0 (Counter.get c)

let test_clock_monotone () =
  let prev = ref (Clock.now_ns ()) in
  for _ = 1 to 1000 do
    let t = Clock.now_ns () in
    if t < !prev then Alcotest.failf "clock went backwards: %d < %d" t !prev;
    prev := t
  done;
  let sw = Timer.start () in
  Alcotest.(check bool) "elapsed non-negative" true (Timer.elapsed_ns sw >= 0)

let test_timer_accumulates () =
  let t = Timer.create () in
  let v = Timer.time t (fun () -> 41 + 1) in
  Alcotest.(check int) "returns value" 42 v;
  (try Timer.time t (fun () -> failwith "boom") with Failure _ -> ());
  Alcotest.(check int) "failing section still recorded" 2 (Timer.count t);
  Alcotest.(check bool) "total >= max" true
    (Some (Timer.total_ns t)
    >= Option.bind (Json.member "max_ns" (Timer.to_json t)) Json.to_int)

(* ---------- Trace events ---------- *)

let all_event_kinds =
  [
    Trace.Span_begin { span = 1; name = "build-network" };
    Trace.Span_end { span = 1; name = "build-network"; elapsed_ns = 12345 };
    Trace.Run_begin
      {
        run = 2; label = "hammock.open_failure_prob"; cap = 60_000;
        chunk = 256; jobs = 4; target_ci = Some 0.005; min_trials = 1000;
      };
    Trace.Run_begin
      {
        run = 3; label = "trials.search"; cap = 10; chunk = 1; jobs = 1;
        target_ci = None; min_trials = 1000;
      };
    Trace.Chunk
      {
        run = 2; lo = 0; hi = 256; domain = 7; elapsed_ns = 987654;
        successes = Some 31;
      };
    Trace.Chunk
      { run = 3; lo = 256; hi = 512; domain = 0; elapsed_ns = 0; successes = None };
    Trace.Stop_check
      {
        run = 2; trials = 1024; successes = 130; half_width = 0.0123456789;
        target = 0.005; stop = false;
      };
    Trace.Stop_check
      {
        run = 2; trials = 4096; successes = 500; half_width = 0.004; target = 0.005;
        stop = true;
      };
    Trace.Run_end { run = 2; executed = 4096; successes = Some 500; elapsed_ns = 5_000_000 };
    Trace.Run_end { run = 3; executed = 10; successes = None; elapsed_ns = 42 };
  ]

let test_trace_roundtrip () =
  List.iteri
    (fun i ev ->
      let ts = 1_000_000 + i in
      let line = Trace.event_to_string ~ts_ns:ts ev in
      (* every line must itself be a complete JSON object *)
      (match Json.parse line with
      | Ok (Json.Obj _) -> ()
      | Ok _ -> Alcotest.failf "event %d: line is not an object: %s" i line
      | Error e -> Alcotest.failf "event %d: invalid JSON (%s): %s" i e line);
      match Trace_ref.event_of_string line with
      | Error e -> Alcotest.failf "event %d: decode failed (%s): %s" i e line
      | Ok (ts', ev') ->
          Alcotest.(check int) (Printf.sprintf "event %d ts" i) ts ts';
          Alcotest.(check bool)
            (Printf.sprintf "event %d round-trips: %s" i line)
            true (ev = ev'))
    all_event_kinds

let test_trace_decode_errors () =
  List.iter
    (fun s ->
      match Trace_ref.event_of_string s with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "expected decode error for %S" s)
    [
      "";
      "{}";
      "{\"ts_ns\":1}";
      "{\"ts_ns\":1,\"ev\":\"nosuch\"}";
      "{\"ts_ns\":1,\"ev\":\"chunk\",\"run\":2}";
      "[1,2,3]";
    ]

let test_memory_sink () =
  let sink, events = Trace.memory () in
  let v = Trace.span (Some sink) "outer" (fun () -> 17) in
  Alcotest.(check int) "span returns value" 17 v;
  Trace.emit sink (Trace.Run_end { run = 9; executed = 1; successes = None; elapsed_ns = 1 });
  (try
     Trace.span (Some sink) "failing" (fun () -> failwith "boom")
   with Failure _ -> ());
  Trace.close sink;
  match events () with
  | [
      (t1, Trace.Span_begin { span = s1; name = "outer" });
      (t2, Trace.Span_end { span = s2; name = "outer"; _ });
      (t3, Trace.Run_end _);
      (t4, Trace.Span_begin { name = "failing"; _ });
      (t5, Trace.Span_end { name = "failing"; _ });
    ] ->
      Alcotest.(check int) "span ids pair up" s1 s2;
      Alcotest.(check bool) "timestamps non-decreasing" true
        (t1 <= t2 && t2 <= t3 && t3 <= t4 && t4 <= t5)
  | evs -> Alcotest.failf "unexpected event stream (%d events)" (List.length evs)

let test_span_none_is_identity () =
  Alcotest.(check int) "no sink" 5 (Trace.span None "phase" (fun () -> 5))

let test_channel_sink_jsonl () =
  let path = Filename.temp_file "ftcsn_obs" ".jsonl" in
  let oc = open_out path in
  let sink = Trace.to_channel oc in
  Trace.span (Some sink) "p1" (fun () ->
      Trace.emit sink
        (Trace.Chunk
           { run = 1; lo = 0; hi = 8; domain = 0; elapsed_ns = 5; successes = Some 2 }));
  Trace.close sink;
  close_out oc;
  let ic = open_in path in
  let lines = ref [] in
  (try
     while true do lines := input_line ic :: !lines done
   with End_of_file -> ());
  close_in ic;
  Sys.remove path;
  let lines = List.rev !lines in
  Alcotest.(check int) "three lines" 3 (List.length lines);
  List.iter
    (fun line ->
      match Trace_ref.event_of_string line with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "unparseable trace line (%s): %s" e line)
    lines

(* ---------- Metrics registry ---------- *)

let test_metrics_registry () =
  let m = Metrics.create () in
  let c1 = Metrics.counter m "ops" in
  let c2 = Metrics.counter m "ops" in
  Counter.add c1 3;
  Counter.add c2 4;
  Alcotest.(check int) "find-or-create shares the cell" 7 (Counter.get c1);
  ignore (Timer.time (Metrics.timer m "phase.x") (fun () -> ()));
  Metrics.set_gauge m "estimate.mean" 0.25;
  Metrics.set_gauge m "estimate.mean" 0.5;
  let j = Metrics.to_json m in
  let get path =
    List.fold_left (fun acc k -> Option.bind acc (Json.member k)) (Some j) path
  in
  Alcotest.(check (option int)) "counter in report" (Some 7)
    (Option.bind (get [ "counters"; "ops" ]) Json.to_int);
  Alcotest.(check (option (float 0.0))) "gauge overwritten" (Some 0.5)
    (Option.bind (get [ "gauges"; "estimate.mean" ]) Json.to_float);
  Alcotest.(check bool) "timer count serialized" true
    (Option.bind (get [ "timers"; "phase.x"; "count" ]) Json.to_int = Some 1);
  match Json.parse (Json.to_string j) with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "metrics report unparseable: %s" e

(* ---------- Determinism: tracing must not perturb estimates ---------- *)

let estimate_fields (e : Ftcsn_sim.Trials.estimate) =
  ( e.Ftcsn_sim.Trials.mean, e.Ftcsn_sim.Trials.ci_low,
    e.Ftcsn_sim.Trials.ci_high, e.Ftcsn_sim.Trials.trials,
    e.Ftcsn_sim.Trials.successes )

let hammock_estimate ?target_ci ~jobs ~traced () =
  let h = Ftcsn_reliability.Hammock.make ~rows:6 ~width:6 in
  let rng = Rng.create ~seed:11 in
  if traced then begin
    let sink, events = Trace.memory () in
    let est =
      Ftcsn_reliability.Hammock.open_failure_prob ~jobs ?target_ci
        ~trace:sink ~trials:3_000 ~rng ~eps:0.08 h
    in
    Trace.close sink;
    (estimate_fields est, List.length (events ()))
  end
  else
    let est =
      Ftcsn_reliability.Hammock.open_failure_prob ~jobs ?target_ci
        ~trials:3_000 ~rng ~eps:0.08 h
    in
    (estimate_fields est, 0)

let check_identical name a b =
  let (m1, l1, h1, t1, s1) = a and (m2, l2, h2, t2, s2) = b in
  if
    Int64.bits_of_float m1 <> Int64.bits_of_float m2
    || Int64.bits_of_float l1 <> Int64.bits_of_float l2
    || Int64.bits_of_float h1 <> Int64.bits_of_float h2
    || t1 <> t2 || s1 <> s2
  then
    Alcotest.failf "%s: estimates differ: (%h,%h,%h,%d,%d) vs (%h,%h,%h,%d,%d)"
      name m1 l1 h1 t1 s1 m2 l2 h2 t2 s2

let test_trace_does_not_perturb () =
  let baseline, _ = hammock_estimate ~jobs:1 ~traced:false () in
  List.iter
    (fun jobs ->
      let plain, _ = hammock_estimate ~jobs ~traced:false () in
      let traced, n_events = hammock_estimate ~jobs ~traced:true () in
      check_identical
        (Printf.sprintf "jobs=%d traced vs plain" jobs)
        plain traced;
      check_identical (Printf.sprintf "jobs=%d vs jobs=1" jobs) baseline plain;
      Alcotest.(check bool)
        (Printf.sprintf "jobs=%d trace captured events" jobs)
        true (n_events > 0))
    [ 1; 4 ]

let test_trace_does_not_perturb_adaptive () =
  (* adaptive stopping consults the trace-visible Wilson half-width; the
     decision sequence must be identical with tracing on or off *)
  let plain, _ = hammock_estimate ~target_ci:0.02 ~jobs:4 ~traced:false () in
  let traced, _ = hammock_estimate ~target_ci:0.02 ~jobs:4 ~traced:true () in
  check_identical "adaptive traced vs plain" plain traced

let () =
  Alcotest.run "ftcsn_obs"
    [
      ( "json",
        [
          Alcotest.test_case "roundtrip" `Quick test_json_roundtrip;
          Alcotest.test_case "float repr" `Quick test_json_float_repr;
          Alcotest.test_case "float bytes" `Quick test_json_float_bytes;
          Alcotest.test_case "parse errors" `Quick test_json_parse_errors;
          Alcotest.test_case "accessors" `Quick test_json_accessors;
        ]
        @ List.map QCheck_alcotest.to_alcotest
            [ qcheck_float_bits; qcheck_float_decimals ] );
      ( "histogram",
        [
          Alcotest.test_case "bucket invariants" `Quick test_histogram_buckets;
          Alcotest.test_case "stats" `Quick test_histogram_stats;
        ] );
      ( "counters-clock-timer",
        [
          Alcotest.test_case "counter under domains" `Quick test_counter_domains;
          Alcotest.test_case "clock monotone" `Quick test_clock_monotone;
          Alcotest.test_case "timer accumulates" `Quick test_timer_accumulates;
        ] );
      ( "trace",
        [
          Alcotest.test_case "event roundtrip" `Quick test_trace_roundtrip;
          Alcotest.test_case "decode errors" `Quick test_trace_decode_errors;
          Alcotest.test_case "memory sink" `Quick test_memory_sink;
          Alcotest.test_case "span without sink" `Quick test_span_none_is_identity;
          Alcotest.test_case "channel sink JSONL" `Quick test_channel_sink_jsonl;
        ] );
      ( "metrics",
        [ Alcotest.test_case "registry" `Quick test_metrics_registry ] );
      ( "determinism",
        [
          Alcotest.test_case "trace on/off, jobs 1 and 4" `Slow
            test_trace_does_not_perturb;
          Alcotest.test_case "adaptive stopping traced" `Slow
            test_trace_does_not_perturb_adaptive;
        ] );
    ]
