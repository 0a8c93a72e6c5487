(* End-to-end tests of the ftnet CLI binary: every subcommand is invoked
   as a subprocess with fixed seeds, and its stdout is checked for the
   expected, deterministic content. *)

(* the test binary lives in _build/default/test; the CLI sits next door in
   _build/default/bin regardless of the invocation directory *)
let exe =
  Filename.concat
    (Filename.dirname Sys.executable_name)
    (Filename.concat ".." (Filename.concat "bin" "ftnet.exe"))

let run args =
  let tmp = Filename.temp_file "ftnet" ".out" in
  let cmd = Printf.sprintf "%s %s > %s 2>&1" exe args tmp in
  let code = Sys.command cmd in
  let ic = open_in tmp in
  let len = in_channel_length ic in
  let out = really_input_string ic len in
  close_in ic;
  Sys.remove tmp;
  (code, out)

(* like run, but keep stdout and stderr apart: several tests assert that
   machine-readable stdout stays clean of human chatter *)
let run_split ?stdin_file args =
  let out = Filename.temp_file "ftnet" ".out" in
  let err = Filename.temp_file "ftnet" ".err" in
  let redirect_in =
    match stdin_file with None -> "" | Some f -> Printf.sprintf " < %s" f
  in
  let cmd = Printf.sprintf "%s %s%s > %s 2> %s" exe args redirect_in out err in
  let code = Sys.command cmd in
  let slurp path =
    let ic = open_in path in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    Sys.remove path;
    s
  in
  (code, slurp out, slurp err)

let contains haystack needle =
  let hl = String.length haystack and nl = String.length needle in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

let check_contains name out needle =
  if not (contains out needle) then
    Alcotest.failf "%s: expected %S in output:\n%s" name needle out

let test_build () =
  let code, out = run "build --net benes -n 8 --seed 1" in
  Alcotest.(check int) "exit code" 0 code;
  check_contains "build" out "benes-8";
  check_contains "build" out "size=80";
  check_contains "build" out "acyclic: true";
  check_contains "build" out "degrees:"

let test_build_ft () =
  let code, out = run "build --net ft -n 8 --seed 1" in
  Alcotest.(check int) "exit code" 0 code;
  check_contains "build ft" out "n=8x8";
  check_contains "build ft" out "size=4352"

let test_faults () =
  let code, out = run "faults --net benes -n 16 --eps 0.02 --seed 3" in
  Alcotest.(check int) "exit code" 0 code;
  check_contains "faults" out "switches: 224";
  check_contains "faults" out "stripped vertices:";
  check_contains "faults" out "terminals shorted:"

let test_route () =
  let code, out = run "route --net ft -n 4 --eps 0.0 --seed 2" in
  Alcotest.(check int) "exit code" 0 code;
  check_contains "route" out "requests: 4, routed: 4, blocked: 0"

let test_route_verbose () =
  let code, out = run "route --net crossbar -n 3 --eps 0.0 -v --seed 2" in
  Alcotest.(check int) "exit code" 0 code;
  check_contains "route -v" out "0 ->"

let test_check () =
  let code, out = run "check --net benes -n 4 --seed 1" in
  Alcotest.(check int) "exit code" 0 code;
  check_contains "check" out "superconcentrator: yes (exhaustive)";
  check_contains "check" out "rearrangeable: yes (exhaustive)";
  check_contains "check" out "strictly nonblocking: NO"

let test_check_crossbar () =
  let code, out = run "check --net crossbar -n 3 --seed 1" in
  Alcotest.(check int) "exit code" 0 code;
  check_contains "check crossbar" out "strictly nonblocking: yes (exhaustive)"

(* the stress episode offers 200 calls: a crossbar never blocks a request
   between idle terminals, and at this seed every benes:8 episode does *)
let test_check_stress () =
  List.iter
    (fun (net, p) ->
      let code, out = run ("check --net " ^ net ^ " --seed 1") in
      Alcotest.(check int) "exit code" 0 code;
      check_contains ("check " ^ net) out
        ("nonblocking stress: P[0 blocked in 200-call episode] = " ^ p))
    [ ("crossbar:8", "1.0000"); ("benes:8", "0.0000") ]

let test_survive () =
  let code, out = run "survive --net butterfly -n 8 --eps 0.01 --trials 40 --seed 5" in
  Alcotest.(check int) "exit code" 0 code;
  check_contains "survive" out "P[survives eps=0.01";
  check_contains "survive" out "40 trials"

let test_degrade () =
  let code, out = run "degrade --net ft -n 8 --hazard 1e-5 --ticks 200 --seed 4" in
  Alcotest.(check int) "exit code" 0 code;
  check_contains "degrade" out "ticks=200";
  check_contains "degrade" out "placed="

let test_degrade_arrival () =
  let code, out =
    run "degrade --net ft -n 8 --hazard 1e-5 --arrival 0.3 --ticks 150 --seed 4"
  in
  Alcotest.(check int) "exit code" 0 code;
  check_contains "degrade arrival" out "ticks=150";
  check_contains "degrade arrival" out "placed="

(* full-output goldens: every count of a single run, and the estimator's
   mean at two job counts, must stay exactly as recorded *)
let check_output args expected =
  let code, out = run args in
  Alcotest.(check int) ("exit of " ^ args) 0 code;
  Alcotest.(check string) args expected out

let test_degrade_golden () =
  check_output "degrade --net cantor:8 --hazard 1e-3 --ticks 2000 --seed 1"
    "cantor-8-m3: n=8x8 size=288 depth=7\n\
     ticks=876 placed=126 blocked=409 dropped=2 rerouted=1 failures=182\n\
     catastrophe (terminals fused) at tick 876\n";
  check_output "degrade --net cantor:8 --hazard 3e-4 --ticks 2000 --seed 3"
    "cantor-8-m3: n=8x8 size=288 depth=7\n\
     ticks=2000 placed=233 blocked=937 dropped=2 rerouted=1 failures=128\n\
     no catastrophe within the horizon\n";
  List.iter
    (fun jobs ->
      check_output
        (Printf.sprintf
           "degrade --net cantor:8 --hazard 1e-3 --ticks 2000 --trials 40 \
            --jobs %d"
           jobs)
        (Printf.sprintf
           "cantor-8-m3: n=8x8 size=288 depth=7\n\
            mean time to degradation: 86 ticks (40 trials, horizon 2000, \
            jobs=%d)\n"
           jobs))
    [ 1; 2 ]

(* single-run goldens of the strip and the post-fault route: the stripped
   set and its percentage, shorted terminals, isolated inputs (all of
   benes:16's at eps 0.2) and every routed path *)
let test_faults_route_golden () =
  check_output "faults --net cantor:8 --eps 0.03 --seed 3"
    "switches: 288, open failures: 12, closed failures: 15\n\
     stripped vertices: 49 (30.63%)\n\
     terminals shorted: none\n\
     isolated inputs: 5\n";
  check_output "faults --net cantor:8 --eps 0.03 --seed 3 --radius 1"
    "switches: 288, open failures: 12, closed failures: 15\n\
     stripped vertices: 120 (75.00%)\n\
     terminals shorted: none\n\
     isolated inputs: 2, 3, 4, 5, 6, 7\n";
  check_output "faults --net benes:16 --eps 0.2 --seed 3"
    "switches: 224, open failures: 55, closed failures: 41\n\
     stripped vertices: 109 (85.16%)\n\
     terminals shorted: none\n\
     isolated inputs: 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15\n";
  check_output "route --net ft:8 --eps 0.05 -v --seed 2"
    "requests: 8, routed: 8, blocked: 0\n\
    \  0 -> 4: 0 16 32 48 424 540 665 874 1005 1115 1307 1323 12\n\
    \  1 -> 0: 1 68 85 101 427 535 745 824 931 1044 1172 1188 8\n\
    \  2 -> 7: 2 116 133 150 437 536 728 887 1036 1162 1403 1420 15\n\
    \  3 -> 1: 3 160 177 193 456 567 683 830 920 1066 1211 1227 9\n\
    \  4 -> 5: 4 210 227 243 466 594 753 848 986 1124 1332 1348 13\n\
    \  5 -> 3: 5 257 273 289 477 617 742 845 953 1098 1274 1290 11\n\
    \  6 -> 6: 6 304 321 337 523 611 703 867 1026 1143 1367 1383 14\n\
    \  7 -> 2: 7 356 373 390 500 593 718 837 958 1076 1236 1252 10\n"

let test_build_topologies_golden () =
  check_output "build --net benes:8 --seed 1"
    "benes-8: n=8x8 size=80 depth=5\n\
     family: benes\n\
     effective n: 8\n\
     acyclic: true\n\
     vertices: 48\n\
     degrees: in 0..2, out 0..2, mean 1.67\n\
     directed diameter (sampled lower bound): 5\n";
  check_output "build --net clos:8:rearr --seed 1"
    "ftnet: warning: family clos snapped n=8 to its natural grid (effective \
     n=9)\n\
     clos-m3-k3-r3: n=9x9 size=81 depth=3\n\
     family: clos\n\
     effective n: 9 (requested 8)\n\
     acyclic: true\n\
     vertices: 36\n\
     degrees: in 0..3, out 0..3, mean 2.25\n\
     directed diameter (sampled lower bound): 3\n";
  check_output "topologies"
    "registered network families (use --net FAMILY[:ARG]...):\n\
    \  banyan           SW-banyan (baseline wiring): recursive inverse \
     shuffles, unique paths\n\
    \  benes            Benes rearrangeable network (n rounded up to a power \
     of two)\n\
    \  butterfly        plain butterfly: unique paths, no fault tolerance\n\
    \  butterfly-pair   Bradley superconcentrator: a butterfly concatenated \
     with its mirror  (aliases: bradley)\n\
    \  cantor           Cantor network: log n parallel Benes copies, strictly \
     nonblocking  (params: copies=INT)\n\
    \  clos             three-stage Clos, strictly nonblocking (m = 2k-1)  \
     (params: rearr)\n\
    \  clos-rearr       three-stage Clos, rearrangeable sizing (preset for \
     clos:rearr)\n\
    \  crossbar         n x m crossbar: one switch per terminal pair  \
     (params: m=INT)\n\
    \  delta            delta network: butterfly wiring with reversed bit \
     order, unique paths\n\
    \  ft               the paper's fault-tolerant nonblocking network \
     (scaled constants)  (aliases: paper; params: gamma=INT, degree=INT, \
     grid-stages=INT)\n\
    \  multibutterfly   Leighton-Maggs multibutterfly with seeded-random \
     splitters  (params: degree=INT)\n\
    \  multistage       recursive Clos of limited depth (Pippenger-Yao \
     regime)  (params: levels=INT, k=INT)\n\
    \  omega            omega network: log n perfect-shuffle/exchange \
     stages, unique paths\n\
    \  recursive-nb     Pippenger [P82] recursive strictly-nonblocking \
     construction (scaled)  (aliases: recursive; params: levels=INT)\n\
    \  valiant-sc       linear-size superconcentrator (Valiant/Gabber-Galil \
     recursion)  (aliases: valiant; params: degree=INT, cutoff=INT)\n"

(* check's full report on four families: the exhaustive superconcentrator
   decider holding (benes:8) and failing (multibutterfly:8), a sampled
   superconcentrator witness (butterfly:16) and the exhaustive
   nonblocking game (clos:4) *)
let test_check_golden () =
  check_output "check --net benes:8 --seed 1 --jobs 1"
    "benes-8: n=8x8 size=80 depth=5\n\
     superconcentrator: yes (exhaustive)\n\
     rearrangeable: probably (20 samples)\n\
     nonblocking stress: P[0 blocked in 200-call episode] = 0.0000 [0.0000, \
     0.1611] (0/20)  (20 episodes, jobs=1)\n";
  check_output "check --net multibutterfly:8 --seed 1 --jobs 1"
    "multibutterfly-8-d2: n=8x8 size=80 depth=3\n\
     superconcentrator: NO (r=3 achieved=2)\n\
     rearrangeable: NO (sampled witness)\n\
     nonblocking stress: P[0 blocked in 200-call episode] = 0.0000 [0.0000, \
     0.1611] (0/20)  (20 episodes, jobs=1)\n";
  check_output "check --net butterfly:16 --seed 1 --jobs 1"
    "butterfly-16: n=16x16 size=128 depth=4\n\
     superconcentrator: NO (sampled r=8)\n\
     rearrangeable: NO (sampled witness)\n\
     nonblocking stress: P[0 blocked in 200-call episode] = 0.0000 [0.0000, \
     0.1611] (0/20)  (20 episodes, jobs=1)\n";
  check_output "check --net clos:4 --seed 1 --jobs 1"
    "clos-m3-k2-r2: n=4x4 size=36 depth=3\n\
     superconcentrator: yes (exhaustive)\n\
     rearrangeable: yes (exhaustive)\n\
     strictly nonblocking: yes (exhaustive)\n"

(* the paper's network, where every superconcentrator probe of check
   (the exhaustive decider) and of curve decides the verdict *)
let test_paper_net_probe_golden () =
  check_output "check --net ft -n 8 --seed 1 --jobs 1"
    "ftnet(u=3, gamma=2, beta=2, wf=4, degree=4, grid=16x3, n=8): n=8x8 \
     size=4352 depth=12\n\
     superconcentrator: yes (exhaustive)\n\
     rearrangeable: probably (20 samples)\n\
     nonblocking stress: P[0 blocked in 200-call episode] = 1.0000 [0.8389, \
     1.0000] (20/20)  (20 episodes, jobs=1)\n";
  check_output "curve --net ft:16 --trials 40 --seed 1 --jobs 1"
    "ftnet(u=4, gamma=2, beta=2, wf=4, degree=4, grid=16x4, n=16): n=16x16 \
     size=11776 depth=16\n\
     survival curve (superconcentrator probes, 40 coupled trials, jobs=1):\n\
    \  eps          mean     ci_low     ci_high    successes/trials\n\
    \  0.001        1.0000   0.9124     1.0000     40/40\n\
    \  0.0019307    1.0000   0.9124     1.0000     40/40\n\
    \  0.00372759   1.0000   0.9124     1.0000     40/40\n\
    \  0.00719686   1.0000   0.9124     1.0000     40/40\n\
    \  0.013895     1.0000   0.9124     1.0000     40/40\n\
    \  0.026827     1.0000   0.9124     1.0000     40/40\n\
    \  0.0517947    0.9500   0.8350     0.9862     38/40\n\
    \  0.1          0.0000   0.0000     0.0876     0/40\n"

(* the estimators' full reports at small sizes and --jobs 1; survive's
   throughput line is wall-clock, so it is dropped before comparing *)
let test_estimator_golden () =
  let args = "survive --net benes:8 --eps 0.01 --trials 200 --seed 3 --jobs 1" in
  let code, out = run args in
  Alcotest.(check int) ("exit of " ^ args) 0 code;
  Alcotest.(check string) args
    "benes-8: n=8x8 size=80 depth=5\n\
     P[survives eps=0.01, superconcentrator probes] = 0.260  (95% CI [0.204, \
     0.325], 200 trials)\n"
    (String.concat "\n"
       (List.filter
          (fun l -> not (contains l "throughput:"))
          (String.split_on_char '\n' out)));
  check_output "curve --net benes:8 --trials 60 --seed 4 --jobs 1"
    "benes-8: n=8x8 size=80 depth=5\n\
     survival curve (superconcentrator probes, 60 coupled trials, jobs=1):\n\
    \  eps          mean     ci_low     ci_high    successes/trials\n\
    \  0.001        0.9500   0.8630     0.9829     57/60\n\
    \  0.0019307    0.8500   0.7389     0.9190     51/60\n\
    \  0.00372759   0.7500   0.6277     0.8422     45/60\n\
    \  0.00719686   0.5667   0.4410     0.6843     34/60\n\
    \  0.013895     0.2667   0.1713     0.3901     16/60\n\
    \  0.026827     0.1000   0.0466     0.2015     6/60\n\
    \  0.0517947    0.0167   0.0029     0.0886     1/60\n\
    \  0.1          0.0000   0.0000     0.0602     0/60\n";
  check_output
    "curve --net benes:8 --trials 40 --eps-grid 0.01:0.1:3 --seed 4 --jobs 1 \
     --json"
    "{\"inputs\":8,\"outputs\":8,\"switches\":80,\"trials\":40,\"probe\":\"sc_probe_only\",\"curve\":[{\"eps\":0.01,\"mean\":0.375,\"ci_low\":0.2422277353579172,\"ci_high\":0.529678399454681,\"successes\":15,\"trials\":40},{\"eps\":0.055000000000000007,\"mean\":0,\"ci_low\":0,\"ci_high\":0.087624539250392319,\"successes\":0,\"trials\":40},{\"eps\":0.1,\"mean\":0,\"ci_low\":0,\"ci_high\":0.087624539250392319,\"successes\":0,\"trials\":40}]}\n";
  let rare =
    "rare --net benes:8 --eps 1e-3 --trials 300 --pilot-trials 200 \
     --tilt-iters 2 --seed 3 --jobs 1"
  in
  check_output rare
    "benes-8: n=8x8 size=80 depth=5\n\
     rare-event failure estimate at eps=0.001 (superconcentrator probes, \
     jobs=1):\n\
    \  method mean         rel_err   95% CI                   trials   \
     var_ratio    evals\n\
    \  tilt   1.0697e-01   0.1023    [8.553e-02, 1.284e-01]  300      \
     2.661        300\n";
  check_output (rare ^ " --json")
    "{\"inputs\":8,\"outputs\":8,\"switches\":80,\"eps\":0.001,\"method\":\"tilt\",\"tilt\":{\"mean\":0.1069692136480533,\"rel_err\":0.10226759507458655,\"ci_low\":0.085527824563513433,\"ci_high\":0.12841060273259317,\"trials\":300,\"variance_ratio\":2.6607880823285832,\"evals\":300}}\n";
  check_output
    "critical --net benes:4 --eps 0.05 --sample 6 --trials 50 --seed 2 \
     --jobs 1"
    "benes-4: n=4x4 size=24 depth=3\n\
     most critical sampled switches (Birnbaum, 50 trials):\n\
    \  switch     1 (0 -> 6): open +0.3400  close +0.3600\n\
    \  switch     6 (3 -> 5): open +0.2600  close +0.3400\n\
    \  switch    14 (7 -> 10): open +0.2800  close +0.2800\n\
    \  switch    11 (5 -> 9): open +0.2400  close +0.2400\n\
    \  switch     4 (2 -> 5): open +0.2200  close +0.2600\n\
    \  switch    17 (8 -> 13): open +0.0200  close +0.0600\n";
  check_output "check --net crossbar:3 --seed 1 --jobs 1"
    "crossbar-3x3: n=3x3 size=9 depth=1\n\
     superconcentrator: yes (exhaustive)\n\
     rearrangeable: yes (exhaustive)\n\
     strictly nonblocking: yes (exhaustive)\n"

(* traffic's JSON with failures on, and the tournament's 11 kB JSON by
   MD5 of its stdout *)
let test_traffic_tournament_golden () =
  check_output
    "traffic --net benes:8 --load 2 --mtbf 200 --mttr 1 --warmup 50 --calls \
     300 --trials 2 --seed 3 --jobs 1 --json"
    "{\"inputs\":8,\"outputs\":8,\"switches\":80,\"n_requested\":8,\"n_effective\":8,\"router\":\"bfs\",\"load\":2,\"holding\":\"exp\",\"replications\":2,\"blocking\":0.049999999999999996,\"blocking_ci_low\":0.03072674026181163,\"blocking_ci_high\":0.069273259738188361,\"batches\":20,\"measured_calls\":600,\"occupancy\":1.9192224749266198,\"carried\":1.9302277866166204,\"offered\":700,\"served\":665,\"blocked\":35,\"blocked_full\":0,\"dropped\":11,\"rerouted\":8,\"failures\":143,\"repairs\":141,\"events\":1647,\"sim_time\":350.54045578008288,\"catastrophes\":0}\n";
  let args =
    "tournament -n 4 --trials 10 --traffic-trials 1 --calls 60 --warmup 20 \
     --seed 2 --jobs 1 --json"
  in
  let code, out, err = run_split args in
  Alcotest.(check int) ("exit of " ^ args) 0 code;
  Alcotest.(check string) "tournament stderr" "" err;
  Alcotest.(check string) "tournament JSON MD5"
    "09bd9fe77a60a19eec3a017c48ef8c60"
    (Digest.to_hex (Digest.string out))

let test_traffic () =
  let code, out =
    run
      "traffic --net crossbar -n 4 --load 2 --warmup 100 --calls 500 \
       --trials 2 --seed 3"
  in
  Alcotest.(check int) "exit code" 0 code;
  check_contains "traffic" out "offered load 2 Erlang, holding exp";
  check_contains "traffic" out "blocking:";
  check_contains "traffic" out "95% CI";
  check_contains "traffic" out "occupancy (Little's L):"

let test_traffic_json () =
  let code, out =
    run
      "traffic --net benes -n 8 --load 1 --warmup 50 --calls 300 \
       --trials 2 --seed 3 --json"
  in
  Alcotest.(check int) "exit code" 0 code;
  check_contains "traffic json" out "\"blocking\":";
  check_contains "traffic json" out "\"occupancy\":";
  check_contains "traffic json" out "\"replications\":2"

let test_traffic_effective_n () =
  let code, out =
    run
      "traffic --net benes:10 --load 1 --warmup 50 --calls 200 --trials 1 \
       --seed 3"
  in
  Alcotest.(check int) "exit code" 0 code;
  (* benes rounds the requested 10 terminals up to the next power of two *)
  check_contains "traffic effective n" out "effective n: 16 (requested 10)"

let test_traffic_router_report () =
  (* the table and the JSON must both say which router engaged, and the
     fast-policy runs must agree with the default engine's blocking *)
  let code, out =
    run
      "traffic --net benes:16 --load 1 --warmup 50 --calls 200 --trials 1 \
       --seed 3"
  in
  Alcotest.(check int) "exit code" 0 code;
  check_contains "traffic default router" out "router: bfs";
  let code, out =
    run
      "traffic --net benes:16 --load 1 --warmup 50 --calls 200 --trials 1 \
       --policy loop --seed 3"
  in
  Alcotest.(check int) "exit code" 0 code;
  check_contains "traffic loop router" out "router: loop";
  let code, out =
    run
      "traffic --net benes:16 --load 1 --warmup 50 --calls 200 --trials 1 \
       --policy staged --seed 3 --json"
  in
  Alcotest.(check int) "exit code" 0 code;
  check_contains "traffic staged router json" out "\"router\":\"staged\"";
  (* --policy loop off the Benes family degrades gracefully and says so *)
  let code, out =
    run
      "traffic --net crossbar:4 --load 1 --warmup 50 --calls 200 --trials 1 \
       --policy loop --seed 3"
  in
  Alcotest.(check int) "exit code" 0 code;
  check_contains "traffic loop fallback" out "router: staged"

let test_traffic_json_effective_n () =
  let code, out =
    run
      "traffic --net benes:10 --load 1 --warmup 50 --calls 200 --trials 1 \
       --seed 3 --json"
  in
  Alcotest.(check int) "exit code" 0 code;
  check_contains "traffic json n" out "\"n_requested\":10";
  check_contains "traffic json n" out "\"n_effective\":16"

let test_traffic_pareto_rearrange () =
  let code, out =
    run
      "traffic --net benes -n 8 --load 2 --holding pareto:2.5 --policy \
       rearrange:2000 --warmup 50 --calls 300 --trials 2 --seed 5"
  in
  Alcotest.(check int) "exit code" 0 code;
  check_contains "traffic pareto" out "holding pareto:2.5";
  check_contains "traffic pareto" out "blocking:"

let test_critical () =
  let code, out =
    run "critical --net benes -n 4 --eps 0.05 --sample 6 --trials 50 --seed 2"
  in
  Alcotest.(check int) "exit code" 0 code;
  check_contains "critical" out "most critical sampled switches";
  check_contains "critical" out "open +"

let test_render_grid () =
  let code, out = run "render --kind grid -n 4" in
  Alcotest.(check int) "exit code" 0 code;
  check_contains "render grid" out "o---o"

let test_render_census () =
  let code, out = run "render --kind census --net benes -n 8" in
  Alcotest.(check int) "exit code" 0 code;
  check_contains "render census" out "stage | vertices | out-edges"

let test_render_dot () =
  let code, out = run "render --kind dot --net crossbar -n 2" in
  Alcotest.(check int) "exit code" 0 code;
  check_contains "render dot" out "digraph";
  check_contains "render dot" out "v0 -> v2"

let test_unknown_family_fails () =
  let code, out = run "build --net nosuch -n 4" in
  Alcotest.(check int) "exit code" 2 code;
  check_contains "unknown family" out "ftnet: error:";
  check_contains "unknown family" out "unknown network family \"nosuch\""

(* ---------- topology registry: --net specs, topologies, tournament ---------- *)

let test_net_spec_build () =
  let code, out = run "build --net clos:8:rearr --seed 1" in
  Alcotest.(check int) "exit code" 0 code;
  check_contains "net spec" out "family: clos";
  (* clos snaps n=8 to its r*k grid and must say so *)
  check_contains "net spec" out "effective n: 9 (requested 8)";
  check_contains "net spec" out
    "warning: family clos snapped n=8 to its natural grid"

let test_net_spec_params () =
  (* spec parameters reach the constructor on every subcommand *)
  let code, out = run "survive --net multibutterfly:8:degree=3 --trials 20 --seed 5" in
  Alcotest.(check int) "exit code" 0 code;
  check_contains "net params" out "multibutterfly-8-d3";
  let code, out = run "build --net crossbar:n=3:m=5" in
  Alcotest.(check int) "exit code" 0 code;
  check_contains "net crossbar m" out "n=3x5"

let test_net_unknown_param () =
  let code, out = run "build --net benes:wings=3 -n 4" in
  Alcotest.(check int) "exit code" 2 code;
  check_contains "unknown param" out "ftnet: error:";
  check_contains "unknown param" out "unknown parameter \"wings\" for family benes"

let test_net_pow2_refused () =
  let code, out = run "build --net omega:12" in
  Alcotest.(check int) "exit code" 2 code;
  check_contains "pow2" out "ftnet: error:";
  check_contains "pow2" out
    "family omega requires n to be a power of two >= 2 (got 12; nearest is 16)"

let test_topologies () =
  let code, out = run "topologies" in
  Alcotest.(check int) "exit code" 0 code;
  check_contains "topologies" out "registered network families";
  List.iter
    (fun f -> check_contains "topologies lists" out f)
    [ "banyan"; "benes"; "butterfly-pair"; "delta"; "ft"; "omega" ];
  check_contains "topologies aliases" out "aliases: bradley";
  check_contains "topologies params" out "degree=INT"

let test_topologies_names () =
  let code, out = run "topologies --names" in
  Alcotest.(check int) "exit code" 0 code;
  let names =
    List.filter (fun l -> String.trim l <> "") (String.split_on_char '\n' out)
  in
  Alcotest.(check bool) "at least 12 families" true (List.length names >= 12);
  (* bare canonical names only, fit for shell loops *)
  List.iter
    (fun l ->
      if String.contains l ' ' then
        Alcotest.failf "topologies --names line has spaces: %S" l)
    names;
  Alcotest.(check bool) "sorted" true (names = List.sort compare names)

let test_tournament () =
  let code, out =
    run
      "tournament -n 4 --trials 20 --traffic-trials 1 --calls 100 --warmup 20 \
       --seed 2"
  in
  Alcotest.(check int) "exit code" 0 code;
  check_contains "tournament" out
    "tournament: fault tolerance vs edges per terminal";
  check_contains "tournament" out "edges/term";
  check_contains "tournament" out "surv@0.05";
  (* every registered family shows up as a row *)
  List.iter
    (fun f -> check_contains "tournament row" out ("| " ^ f))
    [ "banyan"; "benes"; "butterfly-pair"; "cantor"; "delta"; "ft"; "omega" ];
  check_contains "tournament" out "Pareto-optimal"

let test_tournament_json () =
  let code, out =
    run
      "tournament -n 4 --trials 10 --traffic-trials 1 --calls 60 --warmup 20 \
       --seed 2 --json"
  in
  Alcotest.(check int) "exit code" 0 code;
  check_contains "tournament json" out "\"entries\":";
  check_contains "tournament json" out "\"family\":\"benes\"";
  check_contains "tournament json" out "\"edges_per_terminal\":";
  check_contains "tournament json" out "\"pareto\":";
  check_contains "tournament json" out "\"survival\":[{\"eps\":0.001,"

(* ---------- observability flags ---------- *)

let read_file path =
  let ic = open_in path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let read_lines path =
  String.split_on_char '\n' (read_file path)
  |> List.filter (fun l -> String.trim l <> "")

let with_tmp suffix f =
  let path = Filename.temp_file "ftnet_test" suffix in
  Fun.protect ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () -> f path)

let test_trace_jsonl () =
  with_tmp ".jsonl" @@ fun trace ->
  let code, _ =
    run
      (Printf.sprintf
         "faults --net benes -n 8 --trials 1500 --target-ci 0.5 --seed 3 \
          --trace %s"
         trace)
  in
  Alcotest.(check int) "exit code" 0 code;
  let lines = read_lines trace in
  Alcotest.(check bool) "trace non-empty" true (List.length lines > 0);
  let kinds = Hashtbl.create 8 in
  (* every line is a JSON object with a timestamp and an event tag;
     test_obs decodes each event kind in full *)
  List.iter
    (fun line ->
      let module Json = Ftcsn_obs.Json in
      match Json.parse line with
      | Error e -> Alcotest.failf "invalid trace line (%s): %s" e line
      | Ok j -> (
          match
            ( Option.bind (Json.member "ts_ns" j) Json.to_int,
              Option.bind (Json.member "ev" j) Json.to_str )
          with
          | Some _, Some kind -> Hashtbl.replace kinds kind ()
          | _ -> Alcotest.failf "trace line lacks ts_ns or ev: %s" line))
    lines;
  List.iter
    (fun kind ->
      if not (Hashtbl.mem kinds kind) then
        Alcotest.failf "trace is missing a %s event" kind)
    [ "span_begin"; "span_end"; "run_begin"; "chunk"; "stop_check"; "run_end" ]

let test_metrics_report () =
  with_tmp ".json" @@ fun metrics ->
  let code, _ =
    run
      (Printf.sprintf
         "survive --net benes -n 8 --trials 50 --seed 5 --metrics %s" metrics)
  in
  Alcotest.(check int) "exit code" 0 code;
  match Ftcsn_obs.Json.parse (read_file metrics) with
  | Error e -> Alcotest.failf "metrics file is not valid JSON: %s" e
  | Ok j ->
      let member path =
        List.fold_left
          (fun acc k -> Option.bind acc (Ftcsn_obs.Json.member k))
          (Some j) path
      in
      Alcotest.(check bool) "has phase.estimate timer" true
        (member [ "timers"; "phase.estimate" ] <> None);
      Alcotest.(check (option int))
        "trials counter matches the run" (Some 50)
        (Option.bind (member [ "counters"; "trials.executed" ])
           Ftcsn_obs.Json.to_int);
      Alcotest.(check bool) "survivor ops counted" true
        (match
           Option.bind (member [ "counters"; "survivor.apply" ])
             Ftcsn_obs.Json.to_int
         with
        | Some n -> n >= 50
        | None -> false)

(* estimates must be bit-identical with tracing on or off, at every job
   count; the throughput line varies run to run, so compare only the
   estimate line *)
let estimate_line args =
  let code, out = run args in
  Alcotest.(check int) ("exit of " ^ args) 0 code;
  match
    List.find_opt
      (fun l -> String.length l > 1 && l.[0] = 'P' && l.[1] = '[')
      (String.split_on_char '\n' out)
  with
  | Some l -> l
  | None -> Alcotest.failf "no estimate line in output of %s:\n%s" args out

let test_cli_determinism () =
  let base = "survive --net benes -n 8 --trials 200 --seed 7" in
  let reference = estimate_line (base ^ " --jobs 1") in
  with_tmp ".jsonl" @@ fun trace ->
  List.iter
    (fun args ->
      Alcotest.(check string) ("estimate of " ^ args) reference
        (estimate_line args))
    [
      base ^ " --jobs 1 --trace " ^ trace;
      base ^ " --jobs 4";
      base ^ " --jobs 4 --trace " ^ trace;
    ]

(* the blocking line must be bit-identical across --jobs and with tracing *)
let traffic_blocking_line args =
  let code, out = run args in
  Alcotest.(check int) ("exit of " ^ args) 0 code;
  match
    List.find_opt
      (fun l -> String.length l > 9 && String.sub l 0 9 = "blocking:")
      (String.split_on_char '\n' out)
  with
  | Some l -> l
  | None -> Alcotest.failf "no blocking line in output of %s:\n%s" args out

let test_traffic_determinism () =
  let base =
    "traffic --net crossbar -n 4 --load 2 --warmup 100 --calls 400 \
     --trials 4 --seed 7"
  in
  let reference = traffic_blocking_line (base ^ " --jobs 1") in
  with_tmp ".jsonl" @@ fun trace ->
  List.iter
    (fun args ->
      Alcotest.(check string) ("blocking of " ^ args) reference
        (traffic_blocking_line args))
    [
      base ^ " --jobs 1 --trace " ^ trace;
      base ^ " --jobs 4";
      base ^ " --jobs 4 --trace " ^ trace;
    ]

(* ---------- error normalization: message format and exit code 2 ---------- *)

let check_usage_error name args fragment =
  let code, out = run args in
  Alcotest.(check int) (name ^ " exit code") 2 code;
  check_contains name out "ftnet: error:";
  check_contains name out fragment

let test_error_trials_zero () =
  check_usage_error "trials 0" "faults --net benes -n 8 --trials 0"
    "invalid --trials value 0"

let test_error_trials_negative () =
  (* =-3 so cmdliner parses the negative number as the option's value *)
  check_usage_error "trials -3" "survive --net benes -n 8 --trials=-3"
    "invalid --trials value -3"

let test_error_jobs_zero () =
  check_usage_error "jobs 0" "survive --net benes -n 8 --jobs 0"
    "invalid --jobs value 0"

let test_error_target_ci_malformed () =
  check_usage_error "target-ci abc"
    "survive --net benes -n 8 --target-ci abc" "invalid --target-ci value"

let test_error_target_ci_range () =
  check_usage_error "target-ci 1.5"
    "survive --net benes -n 8 --target-ci 1.5" "invalid --target-ci value";
  check_usage_error "target-ci 0"
    "survive --net benes -n 8 --target-ci 0" "invalid --target-ci value"

let test_error_unwritable_metrics () =
  check_usage_error "unwritable metrics"
    "survive --net benes -n 8 --trials 10 --metrics /nonexistent/m.json"
    "cannot open --metrics"

let test_error_unwritable_trace () =
  check_usage_error "unwritable trace"
    "faults --net benes -n 8 --trace /nonexistent/t.jsonl"
    "cannot open --trace"

(* SIGINT and SIGTERM unwind through the sinks: start a survive run that
   would take days, wait for its first progress line on stderr, signal
   it, and expect the exit code, the named signal and a complete
   --metrics report *)
let interrupt_run signal =
  let metrics = Filename.temp_file "ftnet" ".metrics.json" in
  let err_r, err_w = Unix.pipe ~cloexec:true () in
  let null = Unix.openfile Filename.null [ Unix.O_WRONLY ] 0 in
  let pid =
    Unix.create_process exe
      [|
        exe; "survive"; "--trials"; "1000000000"; "--jobs"; "1"; "--metrics";
        metrics; "--progress";
      |]
      Unix.stdin null err_w
  in
  Unix.close err_w;
  Unix.close null;
  let ic = Unix.in_channel_of_descr err_r in
  let rec await_progress () =
    if not (String.starts_with ~prefix:"progress:" (input_line ic)) then
      await_progress ()
  in
  await_progress ();
  Unix.kill pid signal;
  let err = In_channel.input_all ic in
  close_in ic;
  let code =
    match Unix.waitpid [] pid with
    | _, Unix.WEXITED c -> c
    | _, (Unix.WSIGNALED _ | Unix.WSTOPPED _) -> -1
  in
  let report = read_file metrics in
  Sys.remove metrics;
  (code, err, report)

let test_interrupt_flushes_sinks () =
  let code, err, report = interrupt_run Sys.sigint in
  Alcotest.(check int) "SIGINT exit code" 130 code;
  check_contains "SIGINT stderr" err
    "ftnet: interrupted (SIGINT); sinks flushed\n";
  (match Ftcsn_obs.Json.parse (String.trim report) with
  | Ok (Ftcsn_obs.Json.Obj _) -> ()
  | _ -> Alcotest.failf "--metrics after SIGINT is not JSON:\n%s" report);
  let code, err, _ = interrupt_run Sys.sigterm in
  Alcotest.(check int) "SIGTERM exit code" 143 code;
  check_contains "SIGTERM stderr" err
    "ftnet: interrupted (SIGTERM); sinks flushed\n"

(* --progress chatter must go to stderr on every subcommand so that
   piped stdout stays machine-readable *)
let test_progress_on_stderr_stdout_clean_json () =
  let code, out, err =
    run_split
      "curve --net benes -n 8 --trials 40 --eps-grid 0.01:0.1:3 --seed 4 \
       --json --progress"
  in
  Alcotest.(check int) "exit code" 0 code;
  check_contains "progress on stderr" err "progress:";
  (match Ftcsn_obs.Json.parse (String.trim out) with
  | Ok _ -> ()
  | Error e ->
      Alcotest.failf "stdout with --progress is not clean JSON (%s):\n%s" e out);
  (* same invariant for traffic --json *)
  let code, out, err =
    run_split
      "traffic --net benes -n 8 --load 1 --warmup 50 --calls 200 --trials \
       1 --seed 3 --json --progress"
  in
  Alcotest.(check int) "exit code" 0 code;
  ignore err;
  match Ftcsn_obs.Json.parse (String.trim out) with
  | Ok _ -> ()
  | Error e ->
      Alcotest.failf "traffic --json stdout is not clean JSON (%s):\n%s" e out

(* ---------- serve: live daemon over the DES fabric ---------- *)

let write_request_file ?(metrics = false) ~calls () =
  let path = Filename.temp_file "ftnet_requests" ".jsonl" in
  let oc = open_out path in
  for i = 0 to calls - 1 do
    if i mod 6 = 5 then
      Printf.fprintf oc {|{"req":"hangup","id":"c%d"}|} (i - 2)
    else
      Printf.fprintf oc {|{"req":"call","id":"c%d","at":%d.%02d}|} i (i / 20)
        (5 * (i mod 20));
    output_char oc '\n'
  done;
  if metrics then output_string oc "{\"req\":\"metrics\"}\n";
  close_out oc;
  path

let with_request_file ?metrics ~calls f =
  let path = write_request_file ?metrics ~calls () in
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

let response_lines out =
  List.filter (fun l -> String.trim l <> "") (String.split_on_char '\n' out)

let test_serve_replay_smoke () =
  with_request_file ~metrics:true ~calls:60 @@ fun reqs ->
  let code, out, err =
    run_split
      (Printf.sprintf
         "serve --replay %s --net benes:16 --seed 3 --mtbf 5 --mttr 1" reqs)
  in
  Alcotest.(check int) "exit code" 0 code;
  check_contains "banner" err "serve: benes-16";
  check_contains "banner says replay" err "replay from";
  check_contains "summary" err "decisions";
  check_contains "accepts" out "\"resp\":\"accept\"";
  check_contains "metrics snapshot" out "\"resp\":\"metrics\"";
  check_contains "snapshot counters" out "\"offered\":";
  (* stdout is exclusively one JSON object per line *)
  List.iter
    (fun l ->
      match Ftcsn_obs.Json.parse l with
      | Ok (Ftcsn_obs.Json.Obj _) -> ()
      | _ -> Alcotest.failf "serve stdout line is not a JSON object: %S" l)
    (response_lines out)

let test_serve_replay_deterministic () =
  (* no metrics request here: the latency histogram in the snapshot is
     wall-clock-dependent; everything else must be byte-identical *)
  with_request_file ~calls:120 @@ fun reqs ->
  let go extra =
    let code, out, _ =
      run_split
        (Printf.sprintf
           "serve --replay %s --net benes:16 --policy loop --seed 5 --mtbf 3 \
            --mttr 0.5 %s"
           reqs extra)
    in
    Alcotest.(check int) ("exit with " ^ extra) 0 code;
    out
  in
  let reference = go "" in
  Alcotest.(check bool) "stream non-empty" true (String.length reference > 0);
  Alcotest.(check string) "identical across runs" reference (go "")

let test_serve_calls_bound () =
  with_request_file ~calls:60 @@ fun reqs ->
  let code, out, err =
    run_split
      (Printf.sprintf "serve --replay %s --net benes:16 --seed 3 --calls 10"
         reqs)
  in
  Alcotest.(check int) "exit code" 0 code;
  check_contains "stop reason" err "[stopped: --calls bound]";
  let decisions =
    List.length
      (List.filter
         (fun l ->
           contains l "\"resp\":\"accept\""
           || contains l "\"resp\":\"block\""
           || contains l "\"resp\":\"overload\"")
         (response_lines out))
  in
  Alcotest.(check int) "exactly --calls decisions" 10 decisions

let test_serve_stdin_live () =
  (* live mode on stdin: EOF after the scripted requests ends the run *)
  with_request_file ~metrics:true ~calls:12 @@ fun reqs ->
  let code, out, err =
    run_split ~stdin_file:reqs "serve --net benes:16 --seed 3 --speed 1e6"
  in
  Alcotest.(check int) "exit code" 0 code;
  check_contains "banner says stdin" err "live on stdin";
  check_contains "accepts" out "\"resp\":\"accept\"";
  check_contains "metrics snapshot" out "\"resp\":\"metrics\""

let test_serve_unterminated_last_line () =
  (* a request file whose last line has no newline: live mode must decide
     that line too, as --replay does *)
  let path = Filename.temp_file "ftnet_requests" ".jsonl" in
  let oc = open_out path in
  output_string oc
    "{\"req\":\"call\",\"id\":\"a\",\"hold\":5.0}\n\
     {\"req\":\"call\",\"id\":\"b\",\"hold\":5.0}";
  close_out oc;
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  (* the stderr summary line: "serve: N decisions (...)" *)
  let decisions ?stdin_file args =
    let code, _, err = run_split ?stdin_file args in
    Alcotest.(check int) ("exit code: " ^ args) 0 code;
    match
      List.find_map
        (fun line ->
          try Scanf.sscanf line "serve: %d decisions" Option.some
          with Scanf.Scan_failure _ | Failure _ | End_of_file -> None)
        (String.split_on_char '\n' err)
    with
    | Some n -> n
    | None -> Alcotest.failf "no decision count in:\n%s" err
  in
  let replayed =
    decisions (Printf.sprintf "serve --replay %s --net benes:16 --seed 1" path)
  in
  Alcotest.(check int) "replay decides both" 2 replayed;
  Alcotest.(check int) "live decides as many" replayed
    (decisions ~stdin_file:path "serve --net benes:16 --seed 1 --speed 1e6")

let test_serve_overload () =
  (* tiny --max-load plus never-expiring holds forces admission sheds *)
  let path = Filename.temp_file "ftnet_requests" ".jsonl" in
  let oc = open_out path in
  for i = 0 to 19 do
    Printf.fprintf oc
      {|{"req":"call","id":"c%d","hold":1e9,"at":%d.0}|} i i;
    output_char oc '\n'
  done;
  close_out oc;
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  let code, out, err =
    run_split
      (Printf.sprintf
         "serve --replay %s --net benes:16 --seed 3 --max-load 0.05" path)
  in
  Alcotest.(check int) "exit code" 0 code;
  check_contains "admission in banner" err "max-load<0.05";
  check_contains "overload replies" out "\"resp\":\"overload\""

let test_serve_errors () =
  check_usage_error "serve rearrange"
    "serve --net benes:16 --replay /dev/null --policy rearrange"
    "serve routes one request at a time";
  check_usage_error "serve max-load 0"
    "serve --net benes:16 --replay /dev/null --max-load 0"
    "invalid --max-load value";
  check_usage_error "serve mttr 0"
    "serve --net benes:16 --replay /dev/null --mttr 0" "invalid --mttr value";
  check_usage_error "serve replay+socket"
    "serve --net benes:16 --replay /dev/null --socket /tmp/x.sock"
    "--replay and --socket cannot both be given";
  check_usage_error "serve missing replay file"
    "serve --net benes:16 --replay /nonexistent/reqs.jsonl"
    "cannot open --replay file"

(* ---------- ε-grid curves ---------- *)

let test_curve () =
  let code, out = run "curve --net benes -n 8 --seed 4 --trials 60" in
  Alcotest.(check int) "exit code" 0 code;
  check_contains "curve" out "survival curve (superconcentrator probes";
  check_contains "curve" out "60 coupled trials";
  check_contains "curve" out "eps          mean     ci_low     ci_high";
  (* default grid is 0.001..0.1 log-spaced, 8 points *)
  check_contains "curve" out "0.001 ";
  check_contains "curve" out "0.1 ";
  check_contains "curve" out "/60"

let test_curve_json () =
  let code, out =
    run "curve --net benes -n 8 --seed 4 --trials 40 --eps-grid \
         0.01:0.1:3 --json"
  in
  Alcotest.(check int) "exit code" 0 code;
  check_contains "curve json" out "\"probe\":\"sc_probe_only\"";
  check_contains "curve json" out "\"curve\":[{\"eps\":0.01,";
  check_contains "curve json" out "\"trials\":40"

let test_curve_jobs_deterministic () =
  (* compare only the per-point estimate rows: the header names the jobs
     count and a warning may mention the core count *)
  let go jobs =
    let code, out =
      run
        (Printf.sprintf
           "curve --net benes -n 8 --seed 4 --trials 80 --jobs %d" jobs)
    in
    Alcotest.(check int) "exit code" 0 code;
    String.concat "\n"
      (List.filter (fun l -> contains l "/80") (String.split_on_char '\n' out))
  in
  let rows = go 1 in
  Alcotest.(check bool) "has estimate rows" true (String.length rows > 0);
  Alcotest.(check string) "curve identical at jobs 1 vs 4" rows (go 4)

(* ---------- rare-event estimation ---------- *)

let test_rare () =
  let code, out =
    run
      "rare --net benes -n 8 --eps 1e-5 --trials 400 --pilot-trials 200 \
       --tilt-iters 2 --seed 3 --jobs 2"
  in
  Alcotest.(check int) "exit code" 0 code;
  check_contains "rare" out "rare-event failure estimate at eps=1e-05";
  check_contains "rare" out "method";
  check_contains "rare" out "tilt";
  check_contains "rare" out "var_ratio"

let test_rare_json () =
  let code, out =
    run
      "rare --net benes -n 8 --eps 1e-5 --trials 300 --pilot-trials 200 \
       --tilt-iters 2 --seed 3 --json"
  in
  Alcotest.(check int) "exit code" 0 code;
  check_contains "rare json" out "\"method\":\"tilt\"";
  check_contains "rare json" out "\"tilt\":{\"mean\":";
  check_contains "rare json" out "\"variance_ratio\":";
  check_contains "rare json" out "\"trials\":300"

let test_rare_split () =
  let code, out =
    run
      "rare --net benes -n 8 --eps 1e-3 --method split --trials 400 \
       --particles 128 --seed 6"
  in
  Alcotest.(check int) "exit code" 0 code;
  check_contains "rare split" out "split";
  check_contains "rare split" out "level schedule";
  check_contains "rare split" out "entry rate"

(* run a command with --metrics: its stdout, and whether it built
   exactly one strip scratch *)
let one_workspace args =
  with_tmp ".json" @@ fun metrics ->
  let code, out = run (Printf.sprintf "%s --metrics %s" args metrics) in
  Alcotest.(check int) (args ^ ": exit code") 0 code;
  (match Ftcsn_obs.Json.parse (read_file metrics) with
  | Error e -> Alcotest.failf "metrics file is not valid JSON: %s" e
  | Ok j ->
      Alcotest.(check (option int))
        (args ^ ": one scratch workspace")
        (Some 1)
        (Option.bind
           (Option.bind (Ftcsn_obs.Json.member "counters" j)
              (Ftcsn_obs.Json.member "scratch.create"))
           Ftcsn_obs.Json.to_int));
  out

(* the pilot and every chunk of a splitting run take the per-domain
   survival workspace, so a one-domain run builds one strip scratch *)
let test_rare_one_workspace () =
  ignore
    (one_workspace
       "rare --net benes:8 --eps 1e-4 --method split --trials 600 \
        --particles 64 --jobs 1")

(* so do the surveys' eight 256-trial chunks, which faults shares with
   its single pattern and critical with its three evaluations a trial;
   the estimates are the ones a workspace per chunk gave *)
let test_survey_one_workspace () =
  List.iter
    (fun (args, estimate) -> check_contains args (one_workspace args) estimate)
    [
      ( "faults --net benes:16 --eps 0.01 --trials 2048 --jobs 1",
        "P[survivor clean] = 0.9497 [0.9394, 0.9584] (1945/2048)" );
      ( "route --net benes:16 --eps 0.01 --trials 2048 --jobs 1",
        "P[random permutation fully routes, eps=0.01] = 0.0015 [0.0005, \
         0.0043] (3/2048)" );
      ( "critical --net benes:16 --eps 0.01 --trials 600 --jobs 1",
        "switch   125 (30 -> 79): open +0.0917  close +0.0917" );
    ]

let test_rare_curve () =
  let code, out =
    run
      "rare --net benes -n 8 --eps-grid 1e-5:1e-3:3:log --trials 300 \
       --pilot-trials 200 --tilt-iters 2 --seed 3"
  in
  Alcotest.(check int) "exit code" 0 code;
  check_contains "rare curve" out "rare-event failure curve";
  check_contains "rare curve" out "tuned at eps=1e-05";
  check_contains "rare curve" out "0.001 "

let test_rare_jobs_deterministic () =
  (* the output names no jobs count in the estimate rows; compare the
     full table minus the header line that echoes --jobs, for the tilt,
     split and curve commands *)
  let go args jobs =
    let code, out =
      run
        (Printf.sprintf "rare --net benes -n 8 %s --seed 3 --jobs %d" args
           jobs)
    in
    Alcotest.(check int) "exit code" 0 code;
    String.concat "\n"
      (List.filter
         (fun l -> not (contains l "jobs"))
         (String.split_on_char '\n' out))
  in
  List.iter
    (fun (args, row) ->
      let one = go args 1 in
      Alcotest.(check bool) ("has rows: " ^ args) true (contains one row);
      Alcotest.(check string) ("rare identical at jobs 1 vs 4: " ^ args) one
        (go args 4))
    [
      ("--eps 1e-5 --trials 300 --pilot-trials 200 --tilt-iters 2", "tilt");
      ("--eps 1e-3 --method split --trials 200 --particles 64", "split");
      ( "--eps-grid 1e-5:1e-3:3:log --trials 300 --pilot-trials 200 \
         --tilt-iters 2",
        "0.001 " );
    ]

(* each tuning flag reaches its estimator: the report differs from the
   defaults' at the same seed *)
let test_rare_tuning_flags () =
  let out args =
    let code, out = run args in
    Alcotest.(check int) ("exit of " ^ args) 0 code;
    out
  in
  List.iter
    (fun (base, flag) ->
      if out base = out (base ^ " " ^ flag) then
        Alcotest.failf "%s leaves the output of %s unchanged" flag base)
    (let common = "rare --net benes:8 --eps 1e-3 --seed 3 --jobs 1" in
     let tilt = common ^ " --trials 300 --pilot-trials 200 --tilt-iters 2" in
     let split = common ^ " --method split --trials 200 --particles 128" in
     [
       (tilt, "--per-edge-tilt");
       (split, "--level-p0 0.4");
       (split, "--mutate 0.6");
     ])

let test_error_rare_method () =
  check_usage_error "rare bad method" "rare --net benes -n 8 --method nope"
    "invalid --method value \"nope\""

let test_error_rare_grid_with_split () =
  check_usage_error "rare grid + split"
    "rare --net benes -n 8 --eps-grid 1e-5:1e-3:3:log --method split"
    "only --method tilt supports it"

let test_error_rare_eps () =
  check_usage_error "rare eps 0" "rare --net benes -n 8 --eps 0"
    "invalid --eps value";
  check_usage_error "rare eps big" "rare --net benes -n 8 --eps 0.7"
    "invalid --eps value"

let test_error_rare_split_params () =
  check_usage_error "rare level-p0 1.5"
    "rare --net benes:8 --method split --level-p0 1.5"
    "invalid --level-p0 value 1.5";
  check_usage_error "rare mutate 0" "rare --net benes:8 --method split --mutate 0"
    "invalid --mutate value 0"

(* fewer measured calls than batch-means batches is refused before the
   survival sweep starts, as traffic refuses it *)
let test_error_tournament_calls () =
  check_usage_error "tournament calls 5"
    "tournament -n 4 --trials 5 --traffic-trials 1 --calls 5"
    "Traffic.config: need measured >= batches"

let test_error_render_n () =
  check_usage_error "render -n 0" "render --kind grid -n 0" "invalid -n value 0"

let test_error_eps_grid_degenerate () =
  (* a denormal LO with log spacing overflows the spacing arithmetic;
     must die with the normalized diagnostic, not crash mid-sweep *)
  check_usage_error "eps-grid denormal log"
    "curve --net benes -n 4 --trials 10 --eps-grid 4.9e-324:0.5:4:log"
    "degenerate spacing"

let test_faults_eps_grid () =
  let code, out =
    run "faults --net benes -n 8 --eps-grid 0.01:0.1:3 --trials 50 --seed 2"
  in
  Alcotest.(check int) "exit code" 0 code;
  check_contains "faults grid" out "P[survivor clean] curve (50 coupled trials";
  check_contains "faults grid" out "0.055 "

let test_route_eps_grid () =
  let code, out =
    run "route --net benes -n 8 --eps-grid 0.01:0.1:3 --trials 30 --seed 2"
  in
  Alcotest.(check int) "exit code" 0 code;
  check_contains "route grid" out
    "P[random permutation fully routes] curve (30 coupled trials"

(* the single-ε survey and the coupled curve are one estimator: a survey
   at ε prints the successes of the curve's point at ε, at ε = 0 too,
   where a survey trial still draws every switch before its event
   draws *)
let survey_successes out =
  (* "= MEAN [LO, HI] (S/T)  (T trials, ...)" *)
  let rec find i =
    if i + 3 > String.length out then Alcotest.failf "no survey in:\n%s" out
    else if String.sub out i 3 = "] (" then
      let j = String.index_from out (i + 3) ')' in
      String.sub out (i + 3) (j - i - 3)
    else find (i + 1)
  in
  find 0

let curve_successes out eps =
  let row =
    List.find_opt
      (fun line ->
        match String.split_on_char ' ' line |> List.filter (( <> ) "") with
        | e :: _ -> e = eps
        | [] -> false)
      (String.split_on_char '\n' out)
  in
  match row with
  | Some line -> List.hd (List.rev (String.split_on_char ' ' line))
  | None -> Alcotest.failf "no curve row for eps %s in:\n%s" eps out

let test_survey_equals_curve_point () =
  List.iter
    (fun cmd ->
      let code, curve =
        run (cmd ^ " --net benes:16 --eps-grid 0:0.002:3 --trials 2000 --seed 5")
      in
      Alcotest.(check int) "curve exit code" 0 code;
      List.iter
        (fun eps ->
          let code, survey =
            run
              (Printf.sprintf "%s --net benes:16 --eps %s --trials 2000 --seed 5"
                 cmd eps)
          in
          Alcotest.(check int) "survey exit code" 0 code;
          Alcotest.(check string)
            (Printf.sprintf "%s survey = curve point at eps %s" cmd eps)
            (curve_successes curve eps) (survey_successes survey))
        [ "0"; "0.001" ])
    [ "route"; "faults" ];
  let _, out = run "route --net benes:16 --eps 0.001 --trials 2000 --seed 5" in
  check_contains "route survey at 0.001" out "(177/2000)"

let test_error_eps_grid_malformed () =
  check_usage_error "eps-grid bad" "curve --net benes -n 8 --eps-grid bad"
    "expected LO:HI:STEPS[:log|:lin]";
  check_usage_error "eps-grid spacing"
    "curve --net benes -n 8 --eps-grid 0.01:0.1:3:cubic" "unknown spacing"

let test_error_eps_grid_range () =
  check_usage_error "eps-grid hi too large"
    "faults --net benes -n 8 --eps-grid 0.2:0.6:3" "need HI <= 0.5";
  check_usage_error "eps-grid log zero"
    "curve --net benes -n 8 --eps-grid 0:0.1:3:log" "log spacing needs LO > 0"

let test_error_eps_grid_with_target_ci () =
  check_usage_error "eps-grid + target-ci"
    "faults --net benes -n 8 --eps-grid 0.01:0.1:3 --target-ci 0.05"
    "--eps-grid cannot be combined with --target-ci"

let test_error_traffic_load () =
  check_usage_error "traffic load" "traffic --net benes -n 8 --load=-1"
    "invalid --load value"

let test_error_traffic_holding () =
  check_usage_error "traffic holding pareto:0.5"
    "traffic --net benes -n 8 --holding pareto:0.5" "invalid --holding value";
  check_usage_error "traffic holding gibberish"
    "traffic --net benes -n 8 --holding gibberish" "invalid --holding value"

let test_error_traffic_policy () =
  check_usage_error "traffic policy" "traffic --net benes -n 8 --policy bogus"
    "invalid --policy value";
  check_usage_error "traffic policy budget"
    "traffic --net benes -n 8 --policy rearrange:0" "must be an integer >= 1";
  check_usage_error "traffic policy list"
    "traffic --net benes -n 8 --policy bogus"
    "expected greedy, rearrange[:BUDGET], staged or loop"

let test_error_traffic_mtbf () =
  check_usage_error "traffic mtbf" "traffic --net benes -n 8 --mtbf 0"
    "invalid --mtbf value"

let test_error_degrade_arrival () =
  check_usage_error "degrade arrival 1.5"
    "degrade --net ft -n 8 --arrival 1.5" "invalid --arrival value";
  check_usage_error "degrade arrival negative"
    "degrade --net ft -n 8 --arrival=-0.1" "invalid --arrival value"

let test_error_degrade_hazard () =
  List.iter
    (fun args ->
      check_usage_error ("degrade " ^ args)
        ("degrade --net ft -n 8 " ^ args)
        "invalid --hazard value")
    [ "--hazard 2"; "--hazard inf"; "--hazard=-1 --trials 3"; "--hazard nan" ]

(* open = closed = EPS, so every command taking --eps refuses values
   outside [0, 0.5] *)
let test_error_eps_range () =
  List.iter
    (fun (cmd, eps) ->
      check_usage_error
        (cmd ^ " " ^ eps)
        (Printf.sprintf "%s --net benes -n 8 %s" cmd eps)
        "invalid --eps value")
    [
      ("survive", "--eps 2");
      ("critical", "--eps 2");
      ("faults", "--eps nan");
      ("route", "--eps=-0.5");
    ]

(* a negative strip radius used to run silently as radius 0 *)
let test_error_faults_radius () =
  check_usage_error "radius -1" "faults --net benes:8 --radius=-1"
    "invalid --radius value -1"

let subcommand_names =
  [
    "build"; "topologies"; "faults"; "route"; "check"; "survive"; "curve";
    "rare"; "traffic"; "serve"; "tournament"; "degrade"; "critical"; "render";
  ]

let test_help () =
  let code, out = run "--help=plain" in
  Alcotest.(check int) "exit code" 0 code;
  check_contains "help" out "ftnet";
  List.iter
    (fun sub -> check_contains "help lists subcommand" out sub)
    subcommand_names

(* cmdliner rejects an option name declared twice in one command only
   when that command runs, so every subcommand's own help must render *)
let test_subcommand_help () =
  List.iter
    (fun sub ->
      let code, out = run (sub ^ " --help=plain") in
      Alcotest.(check int) (sub ^ " --help exit code") 0 code;
      check_contains (sub ^ " --help") out ("ftnet-" ^ sub))
    subcommand_names

let () =
  (* run only when the binary exists (dune dependency guarantees it) *)
  Alcotest.run "ftnet_cli"
    [
      ( "subcommands",
        [
          Alcotest.test_case "build" `Quick test_build;
          Alcotest.test_case "build ft" `Quick test_build_ft;
          Alcotest.test_case "faults" `Quick test_faults;
          Alcotest.test_case "route" `Quick test_route;
          Alcotest.test_case "route verbose" `Quick test_route_verbose;
          Alcotest.test_case "check benes" `Slow test_check;
          Alcotest.test_case "check crossbar" `Quick test_check_crossbar;
          Alcotest.test_case "check stress" `Quick test_check_stress;
          Alcotest.test_case "survive" `Quick test_survive;
          Alcotest.test_case "curve" `Quick test_curve;
          Alcotest.test_case "curve json" `Quick test_curve_json;
          Alcotest.test_case "curve deterministic across jobs" `Quick
            test_curve_jobs_deterministic;
          Alcotest.test_case "rare" `Quick test_rare;
          Alcotest.test_case "rare json" `Quick test_rare_json;
          Alcotest.test_case "rare split" `Slow test_rare_split;
          Alcotest.test_case "rare split one workspace" `Quick
            test_rare_one_workspace;
          Alcotest.test_case "surveys one workspace" `Quick
            test_survey_one_workspace;
          Alcotest.test_case "rare curve" `Quick test_rare_curve;
          Alcotest.test_case "rare deterministic across jobs" `Quick
            test_rare_jobs_deterministic;
          Alcotest.test_case "rare tuning flags" `Quick test_rare_tuning_flags;
          Alcotest.test_case "faults eps-grid" `Quick test_faults_eps_grid;
          Alcotest.test_case "route eps-grid" `Quick test_route_eps_grid;
          Alcotest.test_case "survey = curve point" `Quick
            test_survey_equals_curve_point;
          Alcotest.test_case "degrade" `Quick test_degrade;
          Alcotest.test_case "degrade arrival" `Quick test_degrade_arrival;
          Alcotest.test_case "degrade golden" `Quick test_degrade_golden;
          Alcotest.test_case "faults/route golden" `Quick
            test_faults_route_golden;
          Alcotest.test_case "build/topologies golden" `Quick
            test_build_topologies_golden;
          Alcotest.test_case "estimator golden" `Quick test_estimator_golden;
          Alcotest.test_case "check golden" `Quick test_check_golden;
          Alcotest.test_case "paper-net probe golden" `Quick
            test_paper_net_probe_golden;
          Alcotest.test_case "traffic/tournament json golden" `Quick
            test_traffic_tournament_golden;
          Alcotest.test_case "traffic" `Quick test_traffic;
          Alcotest.test_case "traffic json" `Quick test_traffic_json;
          Alcotest.test_case "traffic effective n" `Quick
            test_traffic_effective_n;
          Alcotest.test_case "traffic router report" `Quick
            test_traffic_router_report;
          Alcotest.test_case "traffic json effective n" `Quick
            test_traffic_json_effective_n;
          Alcotest.test_case "traffic pareto + rearrange" `Quick
            test_traffic_pareto_rearrange;
          Alcotest.test_case "traffic bit-identical across trace/jobs" `Slow
            test_traffic_determinism;
          Alcotest.test_case "critical" `Quick test_critical;
          Alcotest.test_case "render grid" `Quick test_render_grid;
          Alcotest.test_case "render census" `Quick test_render_census;
          Alcotest.test_case "render dot" `Quick test_render_dot;
          Alcotest.test_case "unknown family" `Quick test_unknown_family_fails;
          Alcotest.test_case "help" `Quick test_help;
          Alcotest.test_case "help of every subcommand" `Quick
            test_subcommand_help;
        ] );
      ( "topology registry",
        [
          Alcotest.test_case "--net spec with rounding warning" `Quick
            test_net_spec_build;
          Alcotest.test_case "--net spec parameters" `Quick test_net_spec_params;
          Alcotest.test_case "unknown parameter" `Quick test_net_unknown_param;
          Alcotest.test_case "power-of-two refusal" `Quick test_net_pow2_refused;
          Alcotest.test_case "topologies" `Quick test_topologies;
          Alcotest.test_case "topologies --names" `Quick test_topologies_names;
          Alcotest.test_case "tournament" `Slow test_tournament;
          Alcotest.test_case "tournament json" `Quick test_tournament_json;
        ] );
      ( "observability",
        [
          Alcotest.test_case "trace JSONL is valid and complete" `Slow
            test_trace_jsonl;
          Alcotest.test_case "metrics report" `Quick test_metrics_report;
          Alcotest.test_case "bit-identical across trace/jobs" `Slow
            test_cli_determinism;
          Alcotest.test_case "--progress on stderr, stdout clean JSON" `Quick
            test_progress_on_stderr_stdout_clean_json;
          Alcotest.test_case "SIGINT/SIGTERM flush sinks, exit 130/143" `Quick
            test_interrupt_flushes_sinks;
        ] );
      ( "serve",
        [
          Alcotest.test_case "replay smoke" `Quick test_serve_replay_smoke;
          Alcotest.test_case "replay byte-identical across runs"
            `Quick test_serve_replay_deterministic;
          Alcotest.test_case "--calls bound" `Quick test_serve_calls_bound;
          Alcotest.test_case "live stdin until EOF" `Quick test_serve_stdin_live;
          Alcotest.test_case "live last line without newline" `Quick
            test_serve_unterminated_last_line;
          Alcotest.test_case "admission overload" `Quick test_serve_overload;
          Alcotest.test_case "usage errors" `Quick test_serve_errors;
        ] );
      ( "errors",
        [
          Alcotest.test_case "trials 0" `Quick test_error_trials_zero;
          Alcotest.test_case "trials negative" `Quick test_error_trials_negative;
          Alcotest.test_case "jobs 0" `Quick test_error_jobs_zero;
          Alcotest.test_case "target-ci malformed" `Quick
            test_error_target_ci_malformed;
          Alcotest.test_case "target-ci out of range" `Quick
            test_error_target_ci_range;
          Alcotest.test_case "unwritable metrics path" `Quick
            test_error_unwritable_metrics;
          Alcotest.test_case "unwritable trace path" `Quick
            test_error_unwritable_trace;
          Alcotest.test_case "eps-grid malformed" `Quick
            test_error_eps_grid_malformed;
          Alcotest.test_case "eps-grid out of range" `Quick
            test_error_eps_grid_range;
          Alcotest.test_case "eps-grid with target-ci" `Quick
            test_error_eps_grid_with_target_ci;
          Alcotest.test_case "traffic load" `Quick test_error_traffic_load;
          Alcotest.test_case "traffic holding" `Quick test_error_traffic_holding;
          Alcotest.test_case "traffic policy" `Quick test_error_traffic_policy;
          Alcotest.test_case "traffic mtbf" `Quick test_error_traffic_mtbf;
          Alcotest.test_case "rare method" `Quick test_error_rare_method;
          Alcotest.test_case "rare grid with split" `Quick
            test_error_rare_grid_with_split;
          Alcotest.test_case "rare eps range" `Quick test_error_rare_eps;
          Alcotest.test_case "rare split parameters" `Quick
            test_error_rare_split_params;
          Alcotest.test_case "tournament calls below batches" `Quick
            test_error_tournament_calls;
          Alcotest.test_case "render -n" `Quick test_error_render_n;
          Alcotest.test_case "eps-grid degenerate" `Quick
            test_error_eps_grid_degenerate;
          Alcotest.test_case "degrade arrival range" `Quick
            test_error_degrade_arrival;
          Alcotest.test_case "degrade hazard range" `Quick
            test_error_degrade_hazard;
          Alcotest.test_case "eps range" `Quick test_error_eps_range;
          Alcotest.test_case "faults radius" `Quick test_error_faults_radius;
        ] );
    ]
