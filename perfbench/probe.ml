(* Layer probes: each times one layer through its public functions on a
   workload's own network, routing engine, occupancy and fault density,
   so a layer's cost can be read, and attributed, apart from the
   end-to-end run that contains it. *)

module Rng = Ftcsn_prng.Rng
module Network = Ftcsn_networks.Network
module Digraph = Ftcsn_graph.Digraph
module Greedy = Ftcsn_routing.Greedy
module Fault = Ftcsn_reliability.Fault

type greedy = {
  route_ns_p50 : float;
  route_ns_p99 : float;
  route_words : float;
  no_path_ratio : float;
}

(* Routes between random idle terminals at a steady occupancy of [live]
   calls over a mask failing each switch with probability [eps]: after
   every timed route one random live call is released (untimed), so the
   occupancy stays put.  Times up to [routes] routes, stopping early
   once [budget_s] has passed and at least 100 are in. *)
let greedy ~engine ~live ~eps ~routes ~budget_s rng (net : Network.t) =
  let g = net.Network.graph in
  let m = Digraph.edge_count g and nv = Digraph.vertex_count g in
  let failed = Array.init m (fun _ -> Rng.float rng < eps) in
  let r = Greedy.create ~edge_ok:(fun e -> not failed.(e)) ~engine net in
  let ni = Array.length net.Network.inputs in
  let no = Array.length net.Network.outputs in
  let live = min live (min ni no - 1) in
  (* idle terminal pools (swap-remove) and the live calls' paths *)
  let idle_in = Array.init ni Fun.id and nin = ref ni in
  let idle_out = Array.init no Fun.id and nout = ref no in
  let take pool n = let k = Rng.int rng !n in let x = pool.(k) in
    pool.(k) <- pool.(!n - 1); decr n; x in
  let give pool n x = pool.(!n) <- x; incr n in
  let calls = Array.make (max 1 live + 1) ([||], 0, 0, 0) and ncalls = ref 0 in
  let buf = Array.make nv 0 in
  let words = ref 0.0 in
  let attempt () =
    let i = take idle_in nin and o = take idle_out nout in
    let w0 = Gc.minor_words () in
    let t0 = Util.now_ns () in
    let len =
      Greedy.route_into r ~input:net.Network.inputs.(i)
        ~output:net.Network.outputs.(o) ~buf
    in
    let dt = Util.now_ns () - t0 in
    words := !words +. (Gc.minor_words () -. w0);
    if len >= 0 then begin
      calls.(!ncalls) <- (Array.sub buf 0 len, len, i, o);
      incr ncalls
    end
    else begin
      give idle_in nin i;
      give idle_out nout o
    end;
    (len >= 0, dt)
  in
  let release () =
    let k = Rng.int rng !ncalls in
    let p, len, i, o = calls.(k) in
    Greedy.release_buf r p ~len;
    calls.(k) <- calls.(!ncalls - 1);
    decr ncalls;
    give idle_in nin i;
    give idle_out nout o
  in
  let tries = ref 0 in
  while !ncalls < live && !tries < 20 * (live + 1) do
    incr tries;
    ignore (attempt ())
  done;
  let ns = Util.Samples.create () and blocked = ref 0 in
  words := 0.0;
  let t_start = Util.now_ns () in
  while
    Util.Samples.length ns < routes
    && (Util.Samples.length ns < 100 || Util.seconds_since t_start < budget_s)
  do
    if !ncalls > 0 && !ncalls >= live then release ();
    let ok, dt = attempt () in
    Util.Samples.add ns (float_of_int dt);
    if not ok then incr blocked
  done;
  let n = Util.Samples.length ns in
  {
    route_ns_p50 = Util.Samples.quantile ns 0.5;
    route_ns_p99 = Util.Samples.quantile ns 0.99;
    route_words = !words /. float_of_int n;
    no_path_ratio = Util.iratio !blocked n;
  }

(* One clock step of the event loop — pop the earliest clock, draw its
   next exponential delay, push it back — at a given heap size. *)
let clock_step_ns ~heap_size ~steps rng =
  let module Heap = Ftcsn_des.Heap in
  let module Dist = Ftcsn_des.Dist in
  let size = max 1 heap_size in
  let h = Heap.create ~capacity:size ~dummy:0 () in
  for i = 0 to size - 1 do
    Heap.push h ~time:(Dist.exponential rng ~rate:1.0) i
  done;
  let batch = 4096 in
  let rounds = max 1 (steps / batch) in
  let per = Array.make rounds 0.0 in
  for k = 0 to rounds - 1 do
    let t0 = Util.now_ns () in
    for _ = 1 to batch do
      let t = Heap.min_time h in
      let x = Heap.pop h in
      Heap.push h ~time:(t +. Dist.exponential rng ~rate:1.0) x
    done;
    per.(k) <- float_of_int (Util.now_ns () - t0) /. float_of_int batch
  done;
  Util.median per

type dyn = { close_ns : float; reopen_query_ns : float }

(* Close and reopen random switches in a Dyn_conn holding [closed]
   live closed failures, querying the catastrophe verdict after each
   repair (the deferred rebuild is paid there). *)
let dyn_conn ~closed ~ops rng (net : Network.t) =
  let module D = Ftcsn_reliability.Dyn_conn in
  let g = net.Network.graph in
  let m = Digraph.edge_count g in
  let d = D.create ~terminals:(Network.terminals net) g in
  let is_closed = Array.make m false in
  let placed = ref 0 and tries = ref 0 in
  while !placed < closed && !tries < 10 * (closed + 1) do
    incr tries;
    let e = Rng.int rng m in
    if not is_closed.(e) then begin
      D.close d e;
      if D.terminals_shorted d then D.reopen d e
      else begin
        is_closed.(e) <- true;
        incr placed
      end
    end
  done;
  let close_ns = Array.make ops 0.0 and reopen_ns = Array.make ops 0.0 in
  let k = ref 0 in
  while !k < ops do
    let e = Rng.int rng m in
    if not is_closed.(e) then begin
      let t0 = Util.now_ns () in
      D.close d e;
      let t1 = Util.now_ns () in
      D.reopen d e;
      ignore (D.terminals_shorted d);
      let t2 = Util.now_ns () in
      close_ns.(!k) <- float_of_int (t1 - t0);
      reopen_ns.(!k) <- float_of_int (t2 - t1);
      incr k
    end
  done;
  { close_ns = Util.median close_ns; reopen_query_ns = Util.median reopen_ns }

type survival = {
  sample_ns : float;
  strip_ns : float;
  probe_ns : float;
}

(* The Monte-Carlo stack's inner steps on one workspace: sample a fault
   pattern at ε₁ = ε₂ = [eps], strip it, and run one superconcentrator
   flow probe over half the terminals on the survivor. *)
let survival_layers ~eps ~reps ~budget_s rng (net : Network.t) =
  let module Strip = Ftcsn.Fault_strip in
  let module Flow = Ftcsn_routing.Flow_route in
  let ws = Strip.create_ws net in
  let fws = Flow.create_ws net in
  let pat = Strip.ws_pattern ws in
  let n = min (Network.n_inputs net) (Network.n_outputs net) in
  let r = max 1 (n / 2) in
  let samples = Util.Samples.create ()
  and strips = Util.Samples.create ()
  and probes = Util.Samples.create () in
  let t_start = Util.now_ns () in
  let k = ref 0 in
  while !k < reps && (!k < 1 || Util.seconds_since t_start < budget_s) do
    incr k;
    let t0 = Util.now_ns () in
    Fault.sample_into rng ~eps_open:eps ~eps_close:eps pat;
    let t1 = Util.now_ns () in
    Strip.strip_into ws pat;
    let t2 = Util.now_ns () in
    let ins = Rng.sample_without_replacement rng ~n:(Network.n_inputs net) ~k:r in
    let outs = Rng.sample_without_replacement rng ~n:(Network.n_outputs net) ~k:r in
    let t3 = Util.now_ns () in
    ignore
      (Flow.max_throughput_ws
         ~forbidden:(fun v -> not (Strip.ws_allowed ws v))
         ~edge_ok:(Strip.ws_edge_ok ws) fws ~input_indices:ins
         ~output_indices:outs);
    let t4 = Util.now_ns () in
    Util.Samples.add samples (float_of_int (t1 - t0));
    Util.Samples.add strips (float_of_int (t2 - t1));
    Util.Samples.add probes (float_of_int (t4 - t3))
  done;
  {
    sample_ns = Util.Samples.quantile samples 0.5;
    strip_ns = Util.Samples.quantile strips 0.5;
    probe_ns = Util.Samples.quantile probes 0.5;
  }
