(* Tests for the discrete-event traffic engine (lib/des): event-queue
   ordering, stochastic primitives, batch-means intervals, the fabric's
   failure clock (the law of the per-switch failure process it samples)
   and call store, and the Traffic engine itself — conservation laws,
   Little's law, determinism across the Trials fan-out, a reused
   fabric against fresh ones, and agreement with the Erlang-B formula on
   a crossbar (a true M/M/c/c loss system). *)

module Rng = Ftcsn_prng.Rng
module Heap = Ftcsn_des.Heap
module Dist = Ftcsn_des.Dist
module Batch_means = Ftcsn_des.Batch_means
module Traffic = Ftcsn_des.Traffic
module Fabric = Ftcsn_des.Fabric
module Digraph = Ftcsn_graph.Digraph
module Network = Ftcsn_networks.Network
module Crossbar = Ftcsn_networks.Crossbar
module Benes = Ftcsn_networks.Benes
module Fault = Ftcsn_reliability.Fault
module Topology = Ftcsn_networks.Topology

(* the paper's network joins the registry as family "ft" *)
let () = Ftcsn.Ft_topology.install ()

let check = Alcotest.(check int)
let checkb = Alcotest.(check bool)
let checkf msg = Alcotest.(check (float 1e-9)) msg

(* ---------- Heap ---------- *)

let test_heap_order () =
  let h = Heap.create ~dummy:(-1) () in
  checkb "starts empty" true (Heap.is_empty h);
  let rng = Rng.create ~seed:42 in
  let n = 500 in
  let entries =
    Array.init n (fun i ->
        (* coarse times force plenty of exact ties *)
        (float_of_int (Rng.int rng 20), i))
  in
  Array.iter (fun (t, i) -> Heap.push h ~time:t i) entries;
  check "size" n (Heap.size h);
  let prev_t = ref neg_infinity and prev_i = ref (-1) in
  for _ = 1 to n do
    let t = Heap.min_time h in
    let i = Heap.pop h in
    checkb "times nondecreasing" true (t >= !prev_t);
    if t = !prev_t then
      (* stability: same-time events pop in push order *)
      checkb "FIFO within a timestamp" true (i > !prev_i);
    prev_t := t;
    prev_i := i
  done;
  checkb "drained" true (Heap.is_empty h)

let test_heap_validation () =
  let h = Heap.create ~dummy:0 () in
  let raises f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail "expected Invalid_argument"
  in
  raises (fun () -> Heap.push h ~time:nan 1);
  raises (fun () -> Heap.push h ~time:infinity 1);
  raises (fun () -> Heap.pop h);
  raises (fun () -> Heap.min_time h);
  Heap.push h ~time:1.0 7;
  Heap.clear h;
  checkb "clear empties" true (Heap.is_empty h)

(* ---------- Dist ---------- *)

let sample_mean rng dist n =
  let s = ref 0.0 in
  for _ = 1 to n do
    s := !s +. Dist.holding_time rng dist
  done;
  !s /. float_of_int n

let test_dist_means () =
  let rng = Rng.create ~seed:7 in
  let m_exp = sample_mean rng Dist.Exponential 20_000 in
  checkb "exponential unit mean" true (abs_float (m_exp -. 1.0) < 0.03);
  let m_par = sample_mean rng (Dist.Pareto 2.5) 20_000 in
  checkb "pareto rescaled to unit mean" true (abs_float (m_par -. 1.0) < 0.06)

let test_dist_parse () =
  (match Dist.holding_of_string "exp" with
  | Ok Dist.Exponential -> ()
  | _ -> Alcotest.fail "exp should parse");
  (match Dist.holding_of_string "pareto:2.5" with
  | Ok (Dist.Pareto a) -> checkf "alpha" 2.5 a
  | _ -> Alcotest.fail "pareto:2.5 should parse");
  (match Dist.holding_of_string "pareto:1.0" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "alpha <= 1 has no mean; must be rejected");
  (match Dist.holding_of_string "bogus" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bogus must be rejected");
  Alcotest.(check string)
    "pp roundtrip" "pareto:2.5"
    (Format.asprintf "%a" Dist.pp_holding (Dist.Pareto 2.5))

(* ---------- Batch_means ---------- *)

let test_batch_means_basic () =
  let bm = Batch_means.create ~batches:5 ~total:100 in
  for i = 1 to 100 do
    Batch_means.add bm (float_of_int i)
  done;
  check "count" 100 (Batch_means.count bm);
  let ms = Batch_means.means bm in
  check "five batches" 5 (Array.length ms);
  checkf "first batch mean" 10.5 ms.(0);
  let s = Batch_means.summary bm in
  checkf "grand mean" 50.5 s.Batch_means.mean;
  check "summary count" 100 s.Batch_means.count;
  checkb "interval brackets the mean" true
    (s.Batch_means.ci_low < 50.5 && 50.5 < s.Batch_means.ci_high)

let test_batch_means_constant () =
  let bm = Batch_means.create ~batches:4 ~total:40 in
  for _ = 1 to 40 do
    Batch_means.add bm 3.0
  done;
  let s = Batch_means.summary bm in
  checkf "mean" 3.0 s.Batch_means.mean;
  checkf "zero-width low" 3.0 s.Batch_means.ci_low;
  checkf "zero-width high" 3.0 s.Batch_means.ci_high

let test_of_means_and_quantile () =
  let s = Batch_means.of_means ~count:400 [| 1.0; 2.0; 3.0; 4.0 |] in
  checkf "pooled mean" 2.5 s.Batch_means.mean;
  check "batches" 4 s.Batch_means.batches;
  check "count" 400 s.Batch_means.count;
  (* the half-width is t(b - 1)·√(var / b): var = 5/3 at b = 4, and
     1000 alternating 0/1 means give var = 250/999 *)
  checkb "t(3) = 3.182" true
    (abs_float (s.Batch_means.ci_high -. 2.5 -. (3.182 *. sqrt (5.0 /. 12.0)))
    < 1e-9);
  let s = Batch_means.of_means (Array.init 1000 (fun i -> float (i land 1))) in
  checkb "t(999) -> normal limit" true
    (abs_float
       (s.Batch_means.ci_high -. 0.5 -. (1.96 *. sqrt (250.0 /. 999.0 /. 1000.0)))
    < 1e-9)

(* ---------- Fabric: the failure clock ---------- *)

(* What a run of the clock alone (no calls) produced. *)
type clock_run = {
  failures : int;  (* ticks that failed a switch *)
  discards : int;  (* ticks that landed on a failed switch *)
  closed : int;
  repairs : int;
  per_switch : int array;  (* failures of each switch *)
  down_time : float;  (* integral of the failed-switch count over time *)
  until : float;  (* when the run stopped *)
  shorted_at : float option;  (* the first Lemma-7 short, if any *)
}

(* Fire the fabric's ticks and repairs in heap order up to [horizon] (or
   until the heap runs dry, or, with [stop_on_short], at the first
   short), drawing from [rng] exactly as the engines do. *)
let drive_clock ?(stop_on_short = false) ~horizon f rng =
  let m = Digraph.edge_count f.Fabric.net.Network.graph in
  let per_switch = Array.make m 0 in
  let failures = ref 0 and discards = ref 0 and closed = ref 0 in
  let repairs = ref 0 and down = ref 0.0 in
  let shorted_at = ref None in
  Fabric.start_clock f rng;
  let h = f.Fabric.heap in
  while
    (not (Heap.is_empty h))
    && Heap.min_time h <= horizon
    && not (stop_on_short && !shorted_at <> None)
  do
    let t = Heap.min_time h in
    let ev = Heap.pop h in
    down := !down +. (float_of_int f.Fabric.failed *. (t -. f.Fabric.fs.(0)));
    Fabric.advance f t;
    if ev = Fabric.ev_tick then begin
      let r = Fabric.tick f rng in
      if r = Fabric.discarded then incr discards
      else begin
        incr failures;
        per_switch.(r lsr 2) <- per_switch.(r lsr 2) + 1;
        if r land 3 <> 0 then incr closed;
        if r land 3 = Fabric.shorted && !shorted_at = None then
          shorted_at := Some t
      end
    end
    else begin
      incr repairs;
      Fabric.repair f rng (ev lsr 2)
    end
  done;
  let now = f.Fabric.fs.(0) in
  let until =
    if Heap.is_empty h || !shorted_at <> None then now else horizon
  in
  down := !down +. (float_of_int f.Fabric.failed *. (until -. now));
  {
    failures = !failures;
    discards = !discards;
    closed = !closed;
    repairs = !repairs;
    per_switch;
    down_time = !down;
    until;
    shorted_at = !shorted_at;
  }

(* The clock must sample the per-switch process exactly: each switch an
   independent two-state chain, failing at rate a = 1/mtbf and repaired
   at rate b = 1/mttr, so in steady state a switch is down a fraction
   eps = mttr/(mtbf + mttr) of the time, and every failure is closed
   with probability 1/2.  Over a horizon T the time-average of a
   switch's down indicator has variance 2 eps (1 - eps) / ((a + b) T),
   and the m switches are independent. *)
let test_clock_law () =
  let net = Benes.create 16 in
  let m = Digraph.edge_count net.Network.graph in
  check "benes:16 has 224 switches" 224 m;
  let mtbf = 10.0 and mttr = 1.0 and horizon = 20_000.0 in
  let f = Fabric.create ~mtbf ~mttr net in
  let r = drive_clock ~horizon f (Rng.create ~seed:61) in
  let eps = mttr /. (mtbf +. mttr) in
  let a = 1.0 /. mtbf and b = 1.0 /. mttr in
  let frac = r.down_time /. (horizon *. float_of_int m) in
  let se =
    sqrt
      (2.0 *. eps *. (1.0 -. eps) /. ((a +. b) *. horizon *. float_of_int m))
  in
  if Float.abs (frac -. eps) > 4.0 *. se then
    Alcotest.failf "failed fraction %.5f, want %.5f +- 4 x %.5f" frac eps se;
  checkb "ticks were discarded" true (r.discards > 0);
  let n = float_of_int r.failures in
  let half =
    Float.abs (float_of_int r.closed -. (n /. 2.0)) /. sqrt (n /. 4.0)
  in
  if half > 4.0 then
    Alcotest.failf "%d of %d failures closed (%.1f standard errors from half)"
      r.closed r.failures half;
  (* chi-square of the per-switch failure counts against uniform, m - 1
     degrees of freedom; the bound is 4 standard deviations above the
     mean (renewal counts vary a little less than multinomial ones, so
     this is conservative) *)
  let expect = n /. float_of_int m in
  let chi2 =
    Array.fold_left
      (fun acc c -> acc +. (((float_of_int c -. expect) ** 2.0) /. expect))
      0.0 r.per_switch
  in
  let df = float_of_int (m - 1) in
  if chi2 > df +. (4.0 *. sqrt (2.0 *. df)) then
    Alcotest.failf "per-switch failure counts: chi-square %.1f on %d df" chi2
      (m - 1);
  check "every repair matches a failure" r.failures
    (r.repairs + f.Fabric.failed)

(* Without repairs every switch fails exactly once; once all m are down
   the clock stops, so the heap runs dry instead of ticking forever. *)
let test_clock_stops () =
  let net = Benes.create 16 in
  let m = Digraph.edge_count net.Network.graph in
  let f = Fabric.create ~mtbf:10.0 ~mttr:infinity net in
  let r = drive_clock ~horizon:infinity f (Rng.create ~seed:67) in
  checkb "the heap ran dry" true (Heap.is_empty f.Fabric.heap);
  check "exactly m failures" m r.failures;
  checkb "each switch failed once" true (Array.for_all (( = ) 1) r.per_switch);
  check "all down" m f.Fabric.failed;
  checkb "ticks were discarded" true (r.discards > 0)

(* Traffic with no calls draws from its stream exactly as the driver
   above does, so the two see the same ticks: Traffic must count the
   failing ones and no discarded one. *)
let test_discards_are_no_events () =
  let net = Benes.create 16 in
  let mtbf = 10.0 and mttr = 1.0 and horizon = 50.0 in
  let f = Fabric.create ~mtbf ~mttr net in
  let r = drive_clock ~stop_on_short:true ~horizon f (Rng.create ~seed:71) in
  let config =
    Traffic.config ~load:0.0 ~mtbf ~mttr ~stop:(Traffic.Horizon horizon) ()
  in
  let s = Traffic.run ~rng:(Rng.create ~seed:71) ~config net in
  checkb "ticks were discarded" true (r.discards > 0);
  check "failures" r.failures s.Traffic.failures;
  check "repairs" r.repairs s.Traffic.repairs;
  check "events = failures + repairs" (r.failures + r.repairs) s.Traffic.events;
  checkb "same stop" true
    (r.shorted_at = s.Traffic.catastrophe_at && r.until = s.Traffic.sim_time)

(* ---------- Fabric: the call store ---------- *)

(* The call store must agree with itself and with the switch states: live
   paths are vertex-disjoint, run from their input to their output over
   the switches recorded for them, and cross no failed switch; the owner
   index and the router's busy set are exactly the live paths; the idle
   pools hold the terminals no live call uses; and the counters equal the
   caller's running values. *)
let call_store_ok f ~live ~peak =
  let net = f.Fabric.net in
  let g = net.Network.graph in
  let n_in = Network.n_inputs net and n_out = Network.n_outputs net in
  let holder = Array.make (Digraph.vertex_count g) (-1) in
  let in_use = Array.make n_in false and out_use = Array.make n_out false in
  let ok = ref true in
  let slots = Fabric.live_slots f in
  List.iter
    (fun sl ->
      let path = f.Fabric.c_path.(sl) and len = f.Fabric.c_plen.(sl) in
      let edges = f.Fabric.c_edges.(sl) in
      in_use.(f.Fabric.c_in.(sl)) <- true;
      out_use.(f.Fabric.c_out.(sl)) <- true;
      if
        path.(0) <> net.Network.inputs.(f.Fabric.c_in.(sl))
        || path.(len - 1) <> net.Network.outputs.(f.Fabric.c_out.(sl))
      then ok := false;
      for i = 0 to len - 1 do
        if holder.(path.(i)) >= 0 then ok := false;
        holder.(path.(i)) <- sl
      done;
      for i = 0 to len - 2 do
        let e = edges.(i) in
        if
          Digraph.edge_src g e <> path.(i)
          || Digraph.edge_dst g e <> path.(i + 1)
          || not (Fault.state_equal f.Fabric.fstate.(e) Fault.Normal)
        then ok := false
      done)
    slots;
  Array.iteri
    (fun v sl ->
      if
        f.Fabric.owner.(v) <> sl
        || Ftcsn_routing.Greedy.busy f.Fabric.router v <> (sl >= 0)
      then ok := false)
    holder;
  Array.iteri
    (fun i used -> if Fabric.is_idle f.Fabric.idle_in i = used then ok := false)
    in_use;
  Array.iteri
    (fun o used ->
      if Fabric.is_idle f.Fabric.idle_out o = used then ok := false)
    out_use;
  !ok
  && List.length slots = live
  && f.Fabric.live_count = live
  && f.Fabric.max_concurrent = peak
  && Fabric.idle f.Fabric.idle_in = n_in - live
  && Fabric.idle f.Fabric.idle_out = n_out - live

(* random connects, releases, failures (each severing the calls it hits)
   and repairs on benes:8, checking the call store after every step *)
let prop_fabric_invariants =
  QCheck2.Test.make
    ~name:"fabric invariants: disjoint fault-free paths, owners, pools"
    ~count:30
    QCheck2.Gen.(int_range 0 100000)
    (fun seed ->
      let rng = Rng.create ~seed in
      let net = Benes.create 8 in
      let m = Digraph.edge_count net.Network.graph in
      let f = Fabric.create ~mtbf:infinity ~mttr:infinity net in
      let failed = ref [] in
      let live = ref 0 and peak = ref 0 in
      let ok = ref true in
      for _ = 1 to 200 do
        let u = Rng.float rng in
        (if u < 0.45 then begin
           if Fabric.idle f.Fabric.idle_in > 0 then begin
             let i = Fabric.draw rng f.Fabric.idle_in in
             let o = Fabric.draw rng f.Fabric.idle_out in
             if Fabric.connect f i o >= 0 then begin
               incr live;
               peak := max !peak !live
             end
           end
         end
         else if u < 0.75 then begin
           match Fabric.live_slots f with
           | [] -> ()
           | slots ->
               Fabric.release f
                 (List.nth slots (Rng.int rng (List.length slots)));
               decr live
         end
         else if u < 0.9 then begin
           let e = Rng.int rng m in
           if Fault.state_equal f.Fabric.fstate.(e) Fault.Normal then begin
             ignore (Fabric.mark_failed f e ~closed:(Rng.bool rng));
             failed := e :: !failed;
             for j = 0 to Fabric.sever f e - 1 do
               if f.Fabric.severed.(j) land 1 = 0 then decr live
             done
           end
         end
         else
           match !failed with
           | [] -> ()
           | es ->
               let e = List.nth es (Rng.int rng (List.length es)) in
               Fabric.mark_repaired f e;
               failed := List.filter (( <> ) e) es);
        if not (call_store_ok f ~live:!live ~peak:!peak) then ok := false
      done;
      !ok)

(* ---------- Fabric: reset ---------- *)

(* Calls placed and some released, the clock run (ticks, repairs, closed
   failures and shorts), then a reset to the next run's rates,
   alternating finite and infinite mttr: each reset must leave exactly
   what [create] returns and allocate nothing. *)
let test_reset_alloc_free () =
  let net = Benes.create 64 in
  let g = net.Network.graph in
  let f = Fabric.create ~mtbf:20.0 ~mttr:1.0 net in
  let fresh = Fabric.create ~mtbf:20.0 ~mttr:1.0 net in
  let words = Array.make 1 0.0 in
  let closed = ref 0 and lost = ref 0 and shorted = ref 0 in
  for k = 0 to 19 do
    for i = 0 to 15 do
      let slot = Fabric.connect f i (((i * 7) + k) mod 64) in
      (* a freed slot's stamp moves on *)
      if slot >= 0 && i mod 4 = 0 then Fabric.release f slot
    done;
    let r = drive_clock ~horizon:5.0 f (Rng.create ~seed:k) in
    closed := !closed + r.closed;
    lost := !lost + Ftcsn_util.Vec.length f.Fabric.lost;
    if Fabric.terminals_shorted f then incr shorted;
    let mttr = if k mod 2 = 0 then infinity else 1.0 in
    let w0 = Gc.minor_words () in
    Fabric.reset f ~mtbf:20.0 ~mttr;
    let w1 = Gc.minor_words () in
    words.(0) <- words.(0) +. (w1 -. w0);
    checkb "no switch failed" true
      (Array.for_all (fun s -> Fault.state_equal s Fault.Normal) f.Fabric.fstate);
    checkb "no faulty degree" true (Array.for_all (( = ) 0) f.Fabric.faulty_deg);
    checkb "no vertex owned" true (Array.for_all (( = ) (-1)) f.Fabric.owner);
    checkb "no terminals shorted" false (Fabric.terminals_shorted f);
    checkb "the call store is empty" true (call_store_ok f ~live:0 ~peak:0);
    checkb "the heap is empty" true (Heap.is_empty f.Fabric.heap);
    checkb "the new rates" true (f.Fabric.mtbf = 20.0 && f.Fabric.mttr = mttr);
    checkb "fresh slots and counters" true
      (f.Fabric.c_stamp = fresh.Fabric.c_stamp
      && f.Fabric.c_next = fresh.Fabric.c_next
      && f.Fabric.c_in = fresh.Fabric.c_in
      && f.Fabric.free_head = fresh.Fabric.free_head
      && f.Fabric.failed = 0 && f.Fabric.events = 0 && f.Fabric.failures = 0
      && f.Fabric.repairs = 0 && f.Fabric.fs = fresh.Fabric.fs
      && Ftcsn_util.Vec.length f.Fabric.lost = 0);
    (* a closed-failure class left behind would still contract its ends *)
    for e = 0 to Digraph.edge_count g - 1 do
      if
        Fabric.mark_failed f e ~closed:true = Fabric.shorted
      then Alcotest.failf "switch %d alone shorts terminals after a reset" e;
      Fabric.mark_repaired f e
    done
  done;
  checkb "closed failures, permanent ones and shorts were reset" true
    (!closed > 0 && !lost > 0 && !shorted > 0);
  Alcotest.(check (float 0.0)) "minor words over 20 resets" 0.0 words.(0)

(* ---------- Traffic: conservation laws ---------- *)

(* the laws every horizon run obeys, whether it reaches the horizon or a
   closed-failure catastrophe ends it first *)
let conserved ~n ~mtbf ~horizon ~seed =
  let net = Benes.create n in
  let config =
    Traffic.config ~load:2.0 ~mtbf ~mttr:2.0 ~stop:(Traffic.Horizon horizon) ()
  in
  let s = Traffic.run ~rng:(Rng.create ~seed) ~config net in
  checkb "events happened" true (s.Traffic.events > 0);
  check "offered conserved" s.Traffic.offered
    (s.Traffic.served + s.Traffic.blocked);
  checkb "blocked_full within blocked" true
    (s.Traffic.blocked_full <= s.Traffic.blocked);
  checkb "rerouted within dropped" true
    (s.Traffic.rerouted <= s.Traffic.dropped);
  checkb "repairs within failures" true
    (s.Traffic.repairs <= s.Traffic.failures);
  checkb "failures happened" true (s.Traffic.failures > 0);
  checkb "repairs happened" true (s.Traffic.repairs > 0);
  checkb "occupancy positive" true (s.Traffic.occupancy > 0.0);
  checkb "max_concurrent sane" true
    (s.Traffic.max_concurrent >= 1 && s.Traffic.max_concurrent <= n);
  checkb "sim time reached horizon or catastrophe" true
    (s.Traffic.sim_time = horizon || s.Traffic.catastrophe_at <> None);
  s

let test_traffic_conservation () =
  (* rare failures: the run reaches its horizon *)
  let s = conserved ~n:8 ~mtbf:2000.0 ~horizon:200.0 ~seed:10 in
  checkb "traffic flowed" true (s.Traffic.served > 50);
  checkb "no catastrophe" true (s.Traffic.catastrophe_at = None);
  (* fast failures: a Lemma-7 catastrophe ends this run early *)
  let s = conserved ~n:16 ~mtbf:20.0 ~horizon:150.0 ~seed:5 in
  checkb "ended in a catastrophe" true (s.Traffic.catastrophe_at <> None)

(* Little's law: on the measured window, time-average occupancy L must
   match the carried load lambda * W-bar computed from holding times *)
let test_traffic_little () =
  let net = Crossbar.square 4 in
  let config =
    Traffic.config ~load:2.0
      ~stop:(Traffic.Calls { warmup = 500; measured = 20_000 })
      ()
  in
  let s = Traffic.run ~rng:(Rng.create ~seed:5) ~config net in
  checkb "occupancy matches carried (Little)" true
    (abs_float (s.Traffic.occupancy -. s.Traffic.carried)
    < 0.05 *. s.Traffic.carried);
  checkb "occupancy below server count" true (s.Traffic.occupancy < 4.0)

(* ---------- Traffic: Erlang-B validation ---------- *)

(* B(c, a) by the standard recurrence *)
let erlang_b ~servers ~load =
  let b = ref 1.0 in
  for k = 1 to servers do
    b := load *. !b /. (float_of_int k +. (load *. !b))
  done;
  !b

(* An n x n crossbar under Poisson arrivals to uniformly random idle
   pairs is a true M/M/c/c loss system with c = n: the simulated blocking
   must agree with the Erlang-B formula within the reported 95% CI. *)
let test_traffic_erlang_b () =
  let net = Crossbar.square 4 in
  List.iter
    (fun load ->
      let config =
        Traffic.config ~load
          ~stop:(Traffic.Calls { warmup = 500; measured = 10_000 })
          ()
      in
      let s =
        Traffic.estimate ~jobs:1 ~trials:4 ~rng:(Rng.create ~seed:10) ~config
          net
      in
      let b = erlang_b ~servers:4 ~load in
      let ci = s.Traffic.blocking in
      if not (ci.Batch_means.ci_low <= b && b <= ci.Batch_means.ci_high) then
        Alcotest.failf
          "load %g: Erlang-B %.5f outside reported CI [%.5f, %.5f] (mean %.5f)"
          load b ci.Batch_means.ci_low ci.Batch_means.ci_high
          ci.Batch_means.mean;
      (* every loss in a crossbar is a system-full loss: the network
         itself is strictly nonblocking *)
      check "no nonblocking violations" s.Traffic.t_blocked
        s.Traffic.t_blocked_full)
    [ 2.0; 0.8 ]

(* ---------- Traffic: saturation, degradation, catastrophe ---------- *)

let test_traffic_saturate_degrade () =
  (* saturated identity calls on a crossbar, aggressive permanent
     failures: the first failure either severs an unreroutable identity
     call (open) or contracts a terminal pair (closed) — the run must
     stop and say which *)
  let net = Crossbar.square 4 in
  let config =
    Traffic.config ~load:0.0 ~mtbf:1.0 ~mttr:infinity
      ~stop:(Traffic.Horizon 1000.0) ~saturate:true ~stop_on_degradation:true
      ()
  in
  let s = Traffic.run ~rng:(Rng.create ~seed:2) ~config net in
  check "saturation placed the identity calls" 4 s.Traffic.served;
  checkb "failures occurred" true (s.Traffic.failures >= 1);
  checkb "run ended in degradation or catastrophe" true
    (s.Traffic.degraded_at <> None || s.Traffic.catastrophe_at <> None);
  (match (s.Traffic.degraded_at, s.Traffic.catastrophe_at) with
  | Some t, _ | None, Some t ->
      checkb "stop time within horizon" true (t > 0.0 && t < 1000.0)
  | None, None -> ())

let test_config_validation () =
  let rejects f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail "expected Invalid_argument"
  in
  rejects (fun () -> Traffic.config ~load:(-1.0) ());
  rejects (fun () -> Traffic.config ~batches:1 ());
  rejects (fun () -> Traffic.config ~mtbf:0.0 ());
  rejects (fun () -> Traffic.config ~mttr:0.0 ());
  rejects (fun () ->
      Traffic.config ~load:0.0
        ~stop:(Traffic.Calls { warmup = 10; measured = 100 })
        ());
  rejects (fun () -> Traffic.config ~stop:(Traffic.Horizon infinity) ());
  (* shards and shard_jobs are labels that accept only 1 *)
  rejects (fun () -> Traffic.config ~shards:2 ());
  rejects (fun () -> Traffic.config ~shard_jobs:2 ())

(* ---------- Traffic: determinism across the Trials fan-out ---------- *)

(* the full summary — floats included — must be bit-identical at every
   jobs count and with tracing on or off *)
let prop_estimate_deterministic =
  QCheck2.Test.make
    ~name:"Traffic.estimate bit-identical across jobs and tracing"
    ~count:6
    QCheck2.Gen.(int_range 0 100000)
    (fun seed ->
      let net = Crossbar.square 4 in
      let config =
        Traffic.config ~load:2.0 ~mtbf:80.0 ~mttr:8.0
          ~stop:(Traffic.Calls { warmup = 50; measured = 300 })
          ~batches:5 ()
      in
      let go ~jobs ~traced =
        let run trace =
          Traffic.estimate ?trace ~jobs ~trials:3 ~rng:(Rng.create ~seed)
            ~config net
        in
        if traced then begin
          let sink, _events = Ftcsn_obs.Trace.memory () in
          let s = run (Some sink) in
          Ftcsn_obs.Trace.close sink;
          s
        end
        else run None
      in
      let reference = go ~jobs:1 ~traced:false in
      List.for_all
        (fun (jobs, traced) -> go ~jobs ~traced = reference)
        [ (1, true); (2, false); (4, false); (4, true) ])

(* ---------- Traffic: a reused fabric runs as a fresh one ---------- *)

let reuse_nets =
  lazy
    (Array.map
       (fun spec ->
         match Topology.build_string ~rng:(Rng.create ~seed:3) spec with
         | Ok b -> b.Topology.net
         | Error e -> failwith e)
       [| "benes:8"; "ft:16"; "cantor:8"; "crossbar:4" |])

type reuse = {
  net : int;  (* into [reuse_nets] *)
  other : int;  (* the network whose runs replace the domain's fabric *)
  config : Traffic.config;
  seeds : int list;
}

let print_reuse r =
  let c = r.config in
  Printf.sprintf
    "net %d, other %d, load %g, mtbf %g, mttr %g, %s, %s, saturate %b, \
     stop_on_degradation %b, seeds %s"
    r.net r.other c.Traffic.load c.mtbf c.mttr
    (match c.policy with
    | Traffic.Route_greedy -> "greedy"
    | Route_staged -> "staged"
    | Route_loop -> "loop"
    | Route_rearrange b -> Printf.sprintf "rearrange:%d" b)
    (match c.stop with
    | Traffic.Horizon h -> Printf.sprintf "horizon %g" h
    | Calls { warmup; measured } -> Printf.sprintf "calls %d+%d" warmup measured)
    c.saturate c.stop_on_degradation
    (String.concat "," (List.map string_of_int r.seeds))

(* The network-wide failure rate m/mtbf is drawn, not mtbf, so every
   family sees from a handful to a few thousand failures per run; with
   mttr = infinity or a fast rate many runs end in a Lemma-7
   catastrophe. *)
let gen_reuse =
  let open QCheck2.Gen in
  let* net = int_range 0 3 in
  let* other = int_range 1 3 in
  let* policy =
    oneof
      [
        pure Traffic.Route_greedy;
        pure Traffic.Route_staged;
        pure Traffic.Route_loop;
        map (fun b -> Traffic.Route_rearrange b) (int_range 1 200);
      ]
  in
  let* saturate = bool in
  let* stop_on_degradation = bool in
  let* rate = float_range 0.2 40.0 in
  let* mttr = oneof [ float_range 0.1 5.0; pure infinity ] in
  let* load = float_range 0.5 4.0 in
  let* stop =
    oneof
      [
        map (fun h -> Traffic.Horizon h) (float_range 2.0 40.0);
        map2
          (fun warmup measured -> Traffic.Calls { warmup; measured })
          (int_range 0 20) (int_range 10 100);
      ]
  in
  let* seeds = list_repeat 3 (int_range 0 1_000_000) in
  let m =
    Digraph.edge_count (Lazy.force reuse_nets).(net).Network.graph
  in
  pure
    {
      net;
      other = (net + other) mod 4;
      config =
        Traffic.config ~load ~mtbf:(float_of_int m /. rate) ~mttr ~stop ~policy
          ~saturate ~stop_on_degradation ();
      seeds;
    }

(* Three back-to-back runs on one network reuse the domain's fabric;
   the same three runs, each after a run on another network, start from
   a fresh one.  The whole stats records must be equal. *)
let reused_catastrophes = ref 0

let prop_reset_is_fresh =
  QCheck2.Test.make ~name:"Traffic.run on a reused fabric = on a fresh one"
    ~count:60 ~print:print_reuse gen_reuse (fun r ->
      let nets = Lazy.force reuse_nets in
      let run seed net = Traffic.run ~rng:(Rng.create ~seed) ~config:r.config net in
      let reused = List.map (fun seed -> run seed nets.(r.net)) r.seeds in
      let fresh =
        List.map
          (fun seed ->
            ignore (run seed nets.(r.other));
            run seed nets.(r.net))
          r.seeds
      in
      List.iter
        (fun s -> if s.Traffic.catastrophe_at <> None then incr reused_catastrophes)
        reused;
      reused = fresh)

(* the property, and then that the runs it drew did reuse fabrics
   after catastrophes *)
let test_reset_is_fresh =
  let name, speed, run = QCheck_alcotest.to_alcotest prop_reset_is_fresh in
  ( name,
    speed,
    fun () ->
      run ();
      checkb "some reused runs ended in a catastrophe" true
        (!reused_catastrophes > 0) )

(* 600 replications fill three 256-trial chunks, which land on domains
   whose fabrics have different histories *)
let test_estimate_reuse_jobs () =
  let net = Benes.create 8 in
  let config =
    Traffic.config ~load:2.0 ~mtbf:40.0 ~mttr:1.0
      ~stop:(Traffic.Calls { warmup = 10; measured = 100 })
      ()
  in
  let go jobs =
    Traffic.estimate ~jobs ~trials:600 ~rng:(Rng.create ~seed:7) ~config net
  in
  let reference = go 1 in
  checkb "some replications ended in a catastrophe" true
    (reference.Traffic.catastrophes > 0);
  checkb "jobs 2 = jobs 1" true (go 2 = reference);
  checkb "jobs 4 = jobs 1" true (go 4 = reference)

let props =
  List.map QCheck_alcotest.to_alcotest [ prop_estimate_deterministic ]

let () =
  Alcotest.run "ftcsn_des"
    [
      ( "heap",
        [
          Alcotest.test_case "stable (time, seq) order" `Quick test_heap_order;
          Alcotest.test_case "validation and clear" `Quick test_heap_validation;
        ] );
      ( "dist",
        [
          Alcotest.test_case "unit means" `Quick test_dist_means;
          Alcotest.test_case "CLI parsing" `Quick test_dist_parse;
        ] );
      ( "clock",
        [
          Alcotest.test_case "the per-switch failure law" `Quick test_clock_law;
          Alcotest.test_case "stops when every switch is down" `Quick
            test_clock_stops;
          Alcotest.test_case "a discarded tick is no event" `Quick
            test_discards_are_no_events;
        ] );
      ( "fabric",
        [
          QCheck_alcotest.to_alcotest prop_fabric_invariants;
          Alcotest.test_case "reset = create, allocation-free" `Quick
            test_reset_alloc_free;
        ] );
      ( "batch-means",
        [
          Alcotest.test_case "streaming batches" `Quick test_batch_means_basic;
          Alcotest.test_case "constant data" `Quick test_batch_means_constant;
          Alcotest.test_case "pooling and t-table" `Quick
            test_of_means_and_quantile;
        ] );
      ( "traffic",
        [
          Alcotest.test_case "conservation laws" `Quick
            test_traffic_conservation;
          Alcotest.test_case "Little's law" `Slow test_traffic_little;
          Alcotest.test_case "Erlang-B on a crossbar" `Slow
            test_traffic_erlang_b;
          Alcotest.test_case "saturation degradation" `Quick
            test_traffic_saturate_degrade;
          Alcotest.test_case "config validation" `Quick test_config_validation;
        ] );
      ("determinism", props);
      ( "reuse",
        [
          test_reset_is_fresh;
          Alcotest.test_case "estimate identical at jobs 1, 2, 4" `Quick
            test_estimate_reuse_jobs;
        ] );
    ]
