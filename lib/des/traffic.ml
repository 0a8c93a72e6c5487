module Network = Ftcsn_networks.Network
module Greedy = Ftcsn_routing.Greedy
module Backtrack = Ftcsn_routing.Backtrack
module Rng = Ftcsn_prng.Rng
module Trials = Ftcsn_sim.Trials
module Metrics = Ftcsn_obs.Metrics
module Counter = Ftcsn_obs.Counter

type stop = Horizon of float | Calls of { warmup : int; measured : int }

type policy =
  | Route_greedy
  | Route_rearrange of int
  | Route_staged
  | Route_loop

type config = {
  load : float;
  holding : Dist.holding;
  mtbf : float;
  mttr : float;
  stop : stop;
  batches : int;
  policy : policy;
  saturate : bool;
  stop_on_degradation : bool;
}

let config ?(load = 1.0) ?(holding = Dist.Exponential) ?(mtbf = infinity)
    ?(mttr = 10.0) ?(stop = Calls { warmup = 500; measured = 5000 })
    ?(batches = 10) ?(policy = Route_greedy) ?(saturate = false)
    ?(stop_on_degradation = false) ?(shards = 1) ?(shard_jobs = 1) () =
  if not (load >= 0.0 && load < infinity) then
    invalid_arg "Traffic.config: load must be finite and >= 0";
  if not (mtbf > 0.0) then invalid_arg "Traffic.config: mtbf must be > 0";
  if not (mttr > 0.0) then invalid_arg "Traffic.config: mttr must be > 0";
  if batches < 2 then invalid_arg "Traffic.config: need batches >= 2";
  if shards <> 1 || shard_jobs <> 1 then
    invalid_arg "Traffic.config: shards and shard_jobs must be 1";
  (match holding with
  | Dist.Pareto alpha when not (alpha > 1.0) ->
      invalid_arg "Traffic.config: pareto shape must be > 1"
  | _ -> ());
  (match policy with
  | Route_rearrange budget when budget <= 0 ->
      invalid_arg "Traffic.config: rearrange budget must be > 0"
  | _ -> ());
  (match stop with
  | Horizon t ->
      if not (t > 0.0 && t < infinity) then
        invalid_arg "Traffic.config: horizon must be finite and > 0"
  | Calls { warmup; measured } ->
      if warmup < 0 then invalid_arg "Traffic.config: warmup must be >= 0";
      if measured < batches then
        invalid_arg "Traffic.config: need measured >= batches";
      if not (load > 0.0) then
        invalid_arg "Traffic.config: a Calls stop needs load > 0");
  { load; holding; mtbf; mttr; stop; batches; policy; saturate;
    stop_on_degradation }

(* which deterministic search engine the policy asks for; Greedy resolves
   fallbacks (loop off-Benes -> staged -> bfs) at create time *)
let engine_of_policy = function
  | Route_staged -> `Staged
  | Route_loop -> `Loop
  | Route_greedy | Route_rearrange _ -> `Bfs

let router_name cfg net =
  Greedy.engine_name (Greedy.create ~engine:(engine_of_policy cfg.policy) net)

type stats = {
  sim_time : float;
  events : int;
  offered : int;
  served : int;
  blocked : int;
  blocked_full : int;
  dropped : int;
  rerouted : int;
  rearranged : int;
  failures : int;
  repairs : int;
  max_concurrent : int;
  occupancy : float;
  carried : float;
  measured_offered : int;
  blocking : float;
  batch_blocking : float array;
  degraded_at : float option;
  catastrophe_at : float option;
}

type state = {
  cfg : config;
  rng : Rng.t;  (* the trial stream *)
  fab : Fabric.t;
  call_id : int array;  (* slot -> arrival order, for the re-lay order *)
  mutable next_id : int;
  (* the holding-time sum; a float array so writes do not box *)
  fs : float array;
  mutable offered : int;
  mutable served : int;
  mutable blocked : int;
  mutable blocked_full : int;
  mutable dropped : int;
  mutable rerouted : int;
  mutable rearranged : int;
  mutable window_start : float;
  mutable measuring : bool;
  mutable w_offered : int;
  mutable w_blocked : int;
  bm : Batch_means.t option;
  mutable degraded_at : float option;
  mutable catastrophe_at : float option;
  mutable stopped : bool;
}

let init ~rng ~cfg fab =
  {
    cfg;
    rng;
    fab;
    call_id = Array.make fab.Fabric.cap (-1);
    next_id = 0;
    fs = Array.make 1 0.0;
    offered = 0;
    served = 0;
    blocked = 0;
    blocked_full = 0;
    dropped = 0;
    rerouted = 0;
    rearranged = 0;
    window_start = 0.0;
    measuring = (match cfg.stop with Horizon _ -> true | Calls _ -> false);
    w_offered = 0;
    w_blocked = 0;
    bm =
      (match cfg.stop with
      | Calls { measured; _ } ->
          Some (Batch_means.create ~batches:cfg.batches ~total:measured)
      | Horizon _ -> None);
    degraded_at = None;
    catastrophe_at = None;
    stopped = false;
  }

let number st slot =
  st.call_id.(slot) <- st.next_id;
  st.next_id <- st.next_id + 1

(* a new call goes live: its id, then its holding time and hangup *)
let start_call st slot =
  number st slot;
  let h = Dist.holding_time st.rng st.cfg.holding in
  Fabric.hang_up_after st.fab slot h;
  if st.measuring then st.fs.(0) <- st.fs.(0) +. h

(* identity calls input i -> output i that never hang up — the
   saturating workload of the time-to-degradation experiments *)
let saturate st =
  let f = st.fab in
  for i = 0 to f.Fabric.cap - 1 do
    let input = f.net.Network.inputs.(i)
    and output = f.net.Network.outputs.(i) in
    match Greedy.route f.router ~input ~output with
    | Some path ->
        number st (Fabric.place_path f i i path);
        st.served <- st.served + 1
    | None -> st.blocked <- st.blocked + 1
  done

(* rearrangeable fallback: re-lay every live call plus the new request
   from scratch over the fault-masked graph; on success the whole layout
   migrates at once.  Cold path — list allocations are fine here. *)
let try_rearrange st ~budget ~i ~o =
  let f = st.fab in
  let live =
    List.sort
      (fun a b -> Int.compare st.call_id.(a) st.call_id.(b))
      (Fabric.live_slots f)
  in
  let inputs = f.net.Network.inputs and outputs = f.net.Network.outputs in
  let reqs =
    List.map (fun sl -> (inputs.(f.c_in.(sl)), outputs.(f.c_out.(sl)))) live
    @ [ (inputs.(i), outputs.(o)) ]
  in
  match
    Backtrack.route_all ~budget ~allowed:f.allowed ~edge_ok:f.edge_ok f.net
      reqs
  with
  | Backtrack.Unroutable | Backtrack.Budget_exceeded -> false
  | Backtrack.Routed paths ->
      List.iter (Fabric.unroute f) live;
      let rec go cs ps =
        match (cs, ps) with
        | [], [ p_new ] ->
            Greedy.occupy f.router p_new;
            start_call st (Fabric.place_path f i o p_new)
        | sl :: cs', p :: ps' ->
            Fabric.relay f sl p;
            go cs' ps'
        | _ -> assert false
      in
      go live paths;
      st.rearranged <- st.rearranged + 1;
      true

let handle_arrival st =
  let f = st.fab in
  st.offered <- st.offered + 1;
  (match st.cfg.stop with
  | Calls { warmup; _ } when (not st.measuring) && st.offered > warmup ->
      (* warm-up over: the measured window starts now *)
      st.measuring <- true;
      st.window_start <- f.fs.(0);
      f.fs.(1) <- 0.0
  | _ -> ());
  let blocked, full =
    if Fabric.idle f.idle_in = 0 || Fabric.idle f.idle_out = 0 then
      (true, true)
    else begin
      (* draws, in fixed order: input pick, output pick, then (on
         placement) the holding time *)
      let i = Fabric.draw st.rng f.idle_in in
      let o = Fabric.draw st.rng f.idle_out in
      let slot = Fabric.connect f i o in
      if slot >= 0 then begin
        start_call st slot;
        (false, false)
      end
      else
        match st.cfg.policy with
        (* the fast routers only change how a path is found; a request
           they block is unroutable, so the verdict is greedy's *)
        | Route_greedy | Route_staged | Route_loop -> (true, false)
        | Route_rearrange budget ->
            (not (try_rearrange st ~budget ~i ~o), false)
    end
  in
  if blocked then begin
    st.blocked <- st.blocked + 1;
    if full then st.blocked_full <- st.blocked_full + 1
  end
  else st.served <- st.served + 1;
  if st.measuring then begin
    st.w_offered <- st.w_offered + 1;
    if blocked then st.w_blocked <- st.w_blocked + 1;
    match st.bm with
    | Some bm -> Batch_means.add bm (if blocked then 1.0 else 0.0)
    | None -> ()
  end;
  if blocked && (not full) && st.cfg.stop_on_degradation then begin
    st.degraded_at <- Some f.fs.(0);
    st.stopped <- true
  end;
  (match st.cfg.stop with
  | Calls { measured; _ } when st.measuring && st.w_offered >= measured ->
      st.stopped <- true
  | _ -> ());
  if not st.stopped then
    Fabric.schedule f (Dist.exponential st.rng ~rate:st.cfg.load)
      Fabric.ev_arrival

(* every severed call counts as dropped; one that cannot be rerouted is
   a service failure *)
let tally_sever st e =
  let f = st.fab in
  for j = 0 to Fabric.sever f e - 1 do
    st.dropped <- st.dropped + 1;
    if f.severed.(j) land 1 = 1 then st.rerouted <- st.rerouted + 1
    else if st.cfg.stop_on_degradation && not st.stopped then begin
      st.degraded_at <- Some f.fs.(0);
      st.stopped <- true
    end
  done

let note_catastrophe st =
  let now = st.fab.fs.(0) in
  st.catastrophe_at <- Some now;
  if st.cfg.stop_on_degradation && st.degraded_at = None then
    st.degraded_at <- Some now;
  st.stopped <- true

let handle_failure st r =
  if r land 3 = Fabric.shorted then note_catastrophe st
  else tally_sever st (r lsr 2)

(* hangups and repairs need nothing beyond what the fabric does *)
let handlers =
  {
    Fabric.stop = (fun st -> st.stopped);
    arrival = handle_arrival;
    failure = handle_failure;
    release = (fun _ _ -> ());
    repaired = ignore;
  }

let finish st =
  let f = st.fab in
  let window = f.fs.(0) -. st.window_start in
  let occupancy = if window > 0.0 then f.fs.(1) /. window else 0.0 in
  let carried = if window > 0.0 then st.fs.(0) /. window else 0.0 in
  let blocking =
    if st.w_offered > 0 then
      float_of_int st.w_blocked /. float_of_int st.w_offered
    else 0.0
  in
  let batch_blocking =
    match st.bm with Some bm -> Batch_means.means bm | None -> [||]
  in
  let c name v = Counter.add (Metrics.counter Metrics.default name) v in
  c "traffic.runs" 1;
  c "traffic.events" f.events;
  c "traffic.offered" st.offered;
  c "traffic.served" st.served;
  c "traffic.blocked" st.blocked;
  c "traffic.blocked_full" st.blocked_full;
  c "traffic.dropped" st.dropped;
  c "traffic.rerouted" st.rerouted;
  c "traffic.failures" f.failures;
  c "traffic.repairs" f.repairs;
  if st.catastrophe_at <> None then c "traffic.catastrophes" 1;
  {
    sim_time = f.fs.(0);
    events = f.events;
    offered = st.offered;
    served = st.served;
    blocked = st.blocked;
    blocked_full = st.blocked_full;
    dropped = st.dropped;
    rerouted = st.rerouted;
    rearranged = st.rearranged;
    failures = f.failures;
    repairs = f.repairs;
    max_concurrent = f.max_concurrent;
    occupancy;
    carried;
    measured_offered = st.w_offered;
    blocking;
    batch_blocking;
    degraded_at = st.degraded_at;
    catastrophe_at = st.catastrophe_at;
  }

(* The last fabric this domain ran on, with the engine it was built for.
   A run takes it out of the slot and resets it while the network is
   physically the same and the engine matches, and puts its fabric back
   on return. *)
let fabrics = Ftcsn_util.Domain_slot.create ()

let run ~rng ~config:cfg net =
  if Network.n_inputs net = 0 || Network.n_outputs net = 0 then
    invalid_arg "Traffic.run: network has no terminals";
  let engine = engine_of_policy cfg.policy in
  let fab =
    match
      Ftcsn_util.Domain_slot.take fabrics ~fits:(fun (e, f) ->
          e = engine && f.Fabric.net == net)
    with
    | Some (_, f) ->
        Fabric.reset f ~mtbf:cfg.mtbf ~mttr:cfg.mttr;
        f
    | None -> Fabric.create ~engine ~mtbf:cfg.mtbf ~mttr:cfg.mttr net
  in
  let st = init ~rng ~cfg fab in
  (* deterministic bootstrap: saturation placements (no draws), the
     failure clock's first tick, then the first arrival *)
  if cfg.saturate then saturate st;
  let f = st.fab in
  Fabric.start_clock f st.rng;
  if cfg.load > 0.0 then
    Fabric.schedule f (Dist.exponential st.rng ~rate:cfg.load)
      Fabric.ev_arrival;
  let horizon = match cfg.stop with Horizon h -> h | Calls _ -> infinity in
  Fabric.fire f st.rng ~until:horizon handlers st;
  (* a horizon run that did not stop early spans [0, h] *)
  (match cfg.stop with
  | Horizon h when not st.stopped -> Fabric.advance f h
  | _ -> ());
  let stats = finish st in
  Ftcsn_util.Domain_slot.put fabrics (engine, fab);
  stats

type summary = {
  replications : int;
  blocking : Batch_means.summary;
  occupancy : float;
  carried : float;
  t_offered : int;
  t_served : int;
  t_blocked : int;
  t_blocked_full : int;
  t_dropped : int;
  t_rerouted : int;
  t_failures : int;
  t_repairs : int;
  t_events : int;
  t_sim_time : float;
  catastrophes : int;
}

let estimate ?jobs ?trace ?(label = "traffic.estimate") ~trials ~rng
    ~config net =
  if trials < 1 then invalid_arg "Traffic.estimate: need trials >= 1";
  let acc =
    Trials.map_reduce ?jobs ?trace ~label ~trials ~rng
      ~init:(fun () -> ())
      ~create_acc:(fun () -> ref [])
      ~trial:(fun () acc sub -> acc := run ~rng:sub ~config net :: !acc)
        (* chunks combine in index order, each list reverse-ordered, so
           prepending keeps the whole accumulator reverse-ordered *)
      ~combine:(fun global chunk -> global := !chunk @ !global)
      ()
  in
  let stats = List.rev !acc in
  let reps = List.length stats in
  let sum f = List.fold_left (fun a (s : stats) -> a + f s) 0 stats in
  let sumf f = List.fold_left (fun a (s : stats) -> a +. f s) 0.0 stats in
  let count = sum (fun s -> s.measured_offered) in
  let pooled =
    Array.of_list
      (List.concat_map (fun (s : stats) -> Array.to_list s.batch_blocking)
         stats)
  in
  let blocking =
    if Array.length pooled >= 2 then Batch_means.of_means ~count pooled
    else begin
      (* no batch records (horizon stops or truncated runs): fall back
         to replication-level blocking means *)
      let rep_means =
        Array.of_list (List.map (fun (s : stats) -> s.blocking) stats)
      in
      if Array.length rep_means >= 2 then
        Batch_means.of_means ~count rep_means
      else begin
        let mean = rep_means.(0) in
        { Batch_means.mean; ci_low = mean; ci_high = mean; batches = 1;
          count }
      end
    end
  in
  {
    replications = reps;
    blocking;
    occupancy = sumf (fun s -> s.occupancy) /. float_of_int reps;
    carried = sumf (fun s -> s.carried) /. float_of_int reps;
    t_offered = sum (fun s -> s.offered);
    t_served = sum (fun s -> s.served);
    t_blocked = sum (fun s -> s.blocked);
    t_blocked_full = sum (fun s -> s.blocked_full);
    t_dropped = sum (fun s -> s.dropped);
    t_rerouted = sum (fun s -> s.rerouted);
    t_failures = sum (fun s -> s.failures);
    t_repairs = sum (fun s -> s.repairs);
    t_events = sum (fun s -> s.events);
    t_sim_time = sumf (fun s -> s.sim_time);
    catastrophes = sum (fun s -> if s.catastrophe_at <> None then 1 else 0);
  }
