(* The PRE-SCALE-LAYER traffic engine, kept verbatim as a test oracle:
   every failure/repair event pays the full O(n + m)
   union-find rebuild for the Lemma-7 check, call records are heap
   structures (lists, hashtable), the event queue is monolithic and
   every switch carries its own exponential failure clock.  Two
   consumers depend on this copy staying byte-for-byte faithful to the
   engine it was forked from:

   - the bit-identity pin: without failures ([mtbf = infinity]) neither
     engine draws a clock, and [Traffic.estimate] must
     reproduce this engine's summaries exactly, at every [jobs];
   - the statistical-equivalence tests: with failures on, [Traffic]
     samples the same per-switch process from one thinned fabric-wide
     clock, so the runs differ draw for draw, and the tests pin that
     blocking, failure rate and time to degradation agree with this
     per-switch-clock reference.

   Do not "improve" this module; that would erase the oracle. *)

module Network = Ftcsn_networks.Network
module Digraph = Ftcsn_graph.Digraph
module Fault = Ftcsn_reliability.Fault
module Union_find = Uf_ref
module Greedy = Ftcsn_routing.Greedy
module Backtrack = Ftcsn_routing.Backtrack
module Rng = Ftcsn_prng.Rng
module Trials = Ftcsn_sim.Trials
module Metrics = Ftcsn_obs.Metrics
module Counter = Ftcsn_obs.Counter
module Heap = Ftcsn_des.Heap
module Dist = Ftcsn_des.Dist
module Batch_means = Ftcsn_des.Batch_means
module Traffic = Ftcsn_des.Traffic
open Traffic
(* [open Traffic] supplies the shared public types (config, stats,
   summary, stop, policy); the engine internals below are this module's
   own frozen copies. *)

(* idle-terminal index pool: [items] is always a permutation of [0, n)
   whose prefix [0, size) is the idle set, with [pos] the inverse map —
   O(1) remove/add and an exactly-uniform draw over the idle set *)
type pool = { items : int array; pos : int array; mutable size : int }

let pool_create n =
  { items = Array.init n Fun.id; pos = Array.init n Fun.id; size = n }

let pool_remove p x =
  let i = p.pos.(x) in
  let last = p.size - 1 in
  let y = p.items.(last) in
  p.items.(i) <- y;
  p.pos.(y) <- i;
  p.items.(last) <- x;
  p.pos.(x) <- last;
  p.size <- last

let pool_add p x =
  let i = p.pos.(x) in
  let y = p.items.(p.size) in
  p.items.(p.size) <- x;
  p.pos.(x) <- p.size;
  p.items.(i) <- y;
  p.pos.(y) <- i;
  p.size <- p.size + 1

let pool_draw rng p = p.items.(Rng.int rng p.size)

type call = {
  id : int;
  input : int;  (* input index, not vertex id *)
  output : int;
  mutable path : int list;
  mutable edges : int list;
}

type ev = Arrival | Hangup of int | Fail of int | Repair of int

type state = {
  net : Network.t;
  cfg : config;
  rng : Rng.t;
  heap : ev Heap.t;
  router : Greedy.t;
  fstate : Fault.state array;
  faulty_deg : int array;  (* failed edges incident to each vertex *)
  is_terminal : bool array;
  owner : int array;  (* vertex -> id of the call whose path holds it *)
  calls : (int, call) Hashtbl.t;
  mutable next_id : int;
  idle_in : pool;
  idle_out : pool;
  shorts : Union_find.t;
  mutable offered : int;
  mutable served : int;
  mutable blocked : int;
  mutable blocked_full : int;
  mutable dropped : int;
  mutable rerouted : int;
  mutable rearranged : int;
  mutable failures : int;
  mutable repairs : int;
  mutable events : int;
  mutable max_concurrent : int;
  mutable now : float;
  mutable area : float;  (* ∫ live-call count dt since [window_start] *)
  mutable window_start : float;
  mutable measuring : bool;
  mutable w_offered : int;
  mutable w_blocked : int;
  mutable holding_sum : float;
  bm : Batch_means.t option;
  mutable degraded_at : float option;
  mutable catastrophe_at : float option;
  mutable stopped : bool;
}

let is_normal s = Fault.state_equal s Fault.Normal

let init ~rng ~cfg net =
  let g = net.Network.graph in
  let n = Digraph.vertex_count g and m = Digraph.edge_count g in
  let is_terminal = Array.make n false in
  List.iter (fun v -> is_terminal.(v) <- true) (Network.terminals net);
  let fstate = Array.make m Fault.Normal in
  let faulty_deg = Array.make n 0 in
  (* terminals stay routable with faulty incident switches (the switches
     themselves are unusable via edge_ok); internal vertices are stripped
     once faulty, mirroring Fault_strip and Ft_session *)
  let allowed v = is_terminal.(v) || faulty_deg.(v) = 0 in
  let edge_ok e = is_normal fstate.(e) in
  {
    net;
    cfg;
    rng;
    heap = Heap.create ~dummy:Arrival ();
    router = Greedy.create ~allowed ~edge_ok net;
    fstate;
    faulty_deg;
    is_terminal;
    owner = Array.make n (-1);
    calls = Hashtbl.create 64;
    next_id = 0;
    idle_in = pool_create (Network.n_inputs net);
    idle_out = pool_create (Network.n_outputs net);
    shorts = Union_find.create n;
    offered = 0;
    served = 0;
    blocked = 0;
    blocked_full = 0;
    dropped = 0;
    rerouted = 0;
    rearranged = 0;
    failures = 0;
    repairs = 0;
    events = 0;
    max_concurrent = 0;
    now = 0.0;
    area = 0.0;
    window_start = 0.0;
    measuring = (match cfg.stop with Horizon _ -> true | Calls _ -> false);
    w_offered = 0;
    w_blocked = 0;
    holding_sum = 0.0;
    bm =
      (match cfg.stop with
      | Calls { measured; _ } ->
          Some (Batch_means.create ~batches:cfg.batches ~total:measured)
      | Horizon _ -> None);
    degraded_at = None;
    catastrophe_at = None;
    stopped = false;
  }

let advance st t =
  if t > st.now then begin
    st.area <-
      st.area +. (float_of_int (Hashtbl.length st.calls) *. (t -. st.now));
    st.now <- t
  end

let schedule st dt ev = Heap.push st.heap ~time:(st.now +. dt) ev

(* the BFS only crossed normal switches, so every hop has a normal edge;
   with parallel edges the lowest normal edge id is the switch the call
   occupies (a deterministic choice) *)
let edges_of_path st path =
  let g = st.net.Network.graph in
  let rec go u = function
    | [] -> []
    | v :: rest ->
        let e = ref (-1) in
        Digraph.iter_out g u (fun ~dst ~eid ->
            if !e < 0 && dst = v && is_normal st.fstate.(eid) then e := eid);
        if !e < 0 then invalid_arg "Traffic: path hop has no normal switch";
        !e :: go v rest
  in
  match path with [] -> [] | u :: rest -> go u rest

let note_concurrency st =
  let live = Hashtbl.length st.calls in
  if live > st.max_concurrent then st.max_concurrent <- live

(* adopt a path already marked busy in the router *)
let adopt st c path =
  c.path <- path;
  c.edges <- edges_of_path st path;
  List.iter (fun v -> st.owner.(v) <- c.id) path;
  pool_remove st.idle_in c.input;
  pool_remove st.idle_out c.output;
  Hashtbl.replace st.calls c.id c;
  note_concurrency st

let teardown st c =
  Greedy.release st.router c.path;
  List.iter (fun v -> st.owner.(v) <- -1) c.path;
  pool_add st.idle_in c.input;
  pool_add st.idle_out c.output;
  Hashtbl.remove st.calls c.id

let fresh_call st ~input ~output =
  let c = { id = st.next_id; input; output; path = []; edges = [] } in
  st.next_id <- st.next_id + 1;
  c

(* a new call goes live: draw its holding time, schedule its hangup *)
let place_new st ~i ~o path =
  let c = fresh_call st ~input:i ~output:o in
  adopt st c path;
  let h = Dist.holding_time st.rng st.cfg.holding in
  schedule st h (Hangup c.id);
  if st.measuring then st.holding_sum <- st.holding_sum +. h

(* identity calls input i -> output i that never hang up — the
   saturating workload of the time-to-degradation experiments *)
let saturate st =
  let k = min (Network.n_inputs st.net) (Network.n_outputs st.net) in
  for i = 0 to k - 1 do
    let input = st.net.Network.inputs.(i)
    and output = st.net.Network.outputs.(i) in
    match Greedy.route st.router ~input ~output with
    | Some path ->
        let c = fresh_call st ~input:i ~output:i in
        adopt st c path;
        st.served <- st.served + 1
    | None -> st.blocked <- st.blocked + 1
  done

(* rearrangeable fallback: re-lay every live call plus the new request
   from scratch over the fault-masked graph; on success the whole layout
   migrates at once *)
let try_rearrange st ~budget ~i ~o =
  let live =
    Hashtbl.fold (fun _ c acc -> c :: acc) st.calls []
    |> List.sort (fun a b -> Int.compare a.id b.id)
  in
  let inputs = st.net.Network.inputs and outputs = st.net.Network.outputs in
  let reqs =
    List.map (fun c -> (inputs.(c.input), outputs.(c.output))) live
    @ [ (inputs.(i), outputs.(o)) ]
  in
  let allowed v = st.is_terminal.(v) || st.faulty_deg.(v) = 0 in
  let edge_ok e = is_normal st.fstate.(e) in
  match Backtrack.route_all ~budget ~allowed ~edge_ok st.net reqs with
  | Backtrack.Unroutable | Backtrack.Budget_exceeded -> false
  | Backtrack.Routed paths ->
      List.iter
        (fun c ->
          Greedy.release st.router c.path;
          List.iter (fun v -> st.owner.(v) <- -1) c.path)
        live;
      let rec go cs ps =
        match (cs, ps) with
        | [], [ p_new ] ->
            Greedy.occupy st.router p_new;
            place_new st ~i ~o p_new
        | c :: cs', p :: ps' ->
            Greedy.occupy st.router p;
            c.path <- p;
            c.edges <- edges_of_path st p;
            List.iter (fun v -> st.owner.(v) <- c.id) p;
            go cs' ps'
        | _ -> assert false
      in
      go live paths;
      st.rearranged <- st.rearranged + 1;
      true

let handle_arrival st =
  st.offered <- st.offered + 1;
  (match st.cfg.stop with
  | Calls { warmup; _ } when (not st.measuring) && st.offered > warmup ->
      (* warm-up over: the measured window starts now *)
      st.measuring <- true;
      st.window_start <- st.now;
      st.area <- 0.0
  | _ -> ());
  let blocked, full =
    if st.idle_in.size = 0 || st.idle_out.size = 0 then (true, true)
    else begin
      (* draws, in fixed order: input pick, output pick, then (on
         placement) the holding time *)
      let i = pool_draw st.rng st.idle_in in
      let o = pool_draw st.rng st.idle_out in
      let input = st.net.Network.inputs.(i)
      and output = st.net.Network.outputs.(o) in
      match Greedy.route st.router ~input ~output with
      | Some path ->
          place_new st ~i ~o path;
          (false, false)
      | None -> (
          match st.cfg.policy with
          (* the fast-router policies change path choice, not the
             accept/block verdict, so the reference treats them as
             greedy (and keeps routing with its own plain BFS) *)
          | Route_greedy | Route_staged | Route_loop -> (true, false)
          | Route_rearrange budget ->
              (not (try_rearrange st ~budget ~i ~o), false))
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
    st.degraded_at <- Some st.now;
    st.stopped <- true
  end;
  (match st.cfg.stop with
  | Calls { measured; _ } when st.measuring && st.w_offered >= measured ->
      st.stopped <- true
  | _ -> ());
  if not st.stopped then
    schedule st (Dist.exponential st.rng ~rate:st.cfg.load) Arrival

let handle_hangup st id =
  match Hashtbl.find_opt st.calls id with
  | None -> ()  (* severed earlier; its hangup event is stale *)
  | Some c -> teardown st c

(* two terminals in one closed-contraction class is the Lemma 7
   catastrophe; repairs make the closed edge set non-monotone, so the
   forest is rebuilt from the currently-closed edges *)
let terminals_shorted st =
  Union_find.reset st.shorts;
  let g = st.net.Network.graph in
  Array.iteri
    (fun e s ->
      if Fault.state_equal s Fault.Closed_failure then begin
        let u, v = Digraph.edge_endpoints g e in
        Union_find.union st.shorts u v
      end)
    st.fstate;
  let seen = Hashtbl.create 16 in
  List.exists
    (fun t ->
      let c = Union_find.find st.shorts t in
      if Hashtbl.mem seen c then true
      else begin
        Hashtbl.add seen c ();
        false
      end)
    (Network.terminals st.net)

(* drop the call (if any) whose path crosses the failed switch, then
   attempt an immediate greedy reroute of the same endpoint pair *)
let sever st e ~u ~v =
  let try_drop vtx =
    let id = st.owner.(vtx) in
    if id >= 0 then
      match Hashtbl.find_opt st.calls id with
      | Some c when List.mem e c.edges ->
          st.dropped <- st.dropped + 1;
          teardown st c;
          let input = st.net.Network.inputs.(c.input)
          and output = st.net.Network.outputs.(c.output) in
          (match Greedy.route st.router ~input ~output with
          | Some path ->
              adopt st c path;
              st.rerouted <- st.rerouted + 1
          | None ->
              if st.cfg.stop_on_degradation && not st.stopped then begin
                st.degraded_at <- Some st.now;
                st.stopped <- true
              end)
      | _ -> ()
  in
  try_drop u;
  if v <> u then try_drop v

let handle_fail st e =
  st.failures <- st.failures + 1;
  (* draws, in fixed order: the open/closed coin, then the repair clock *)
  let closed = Rng.bool st.rng in
  if st.cfg.mttr < infinity then
    schedule st (Dist.exponential st.rng ~rate:(1.0 /. st.cfg.mttr)) (Repair e);
  st.fstate.(e) <-
    (if closed then Fault.Closed_failure else Fault.Open_failure);
  let u, v = Digraph.edge_endpoints st.net.Network.graph e in
  st.faulty_deg.(u) <- st.faulty_deg.(u) + 1;
  if v <> u then st.faulty_deg.(v) <- st.faulty_deg.(v) + 1;
  if closed && terminals_shorted st then begin
    st.catastrophe_at <- Some st.now;
    if st.cfg.stop_on_degradation && st.degraded_at = None then
      st.degraded_at <- Some st.now;
    st.stopped <- true
  end
  else sever st e ~u ~v

let handle_repair st e =
  st.repairs <- st.repairs + 1;
  st.fstate.(e) <- Fault.Normal;
  let u, v = Digraph.edge_endpoints st.net.Network.graph e in
  st.faulty_deg.(u) <- st.faulty_deg.(u) - 1;
  if v <> u then st.faulty_deg.(v) <- st.faulty_deg.(v) - 1;
  (* back in service with a fresh failure clock *)
  schedule st (Dist.exponential st.rng ~rate:(1.0 /. st.cfg.mtbf)) (Fail e)

let finish st =
  let window = st.now -. st.window_start in
  let occupancy = if window > 0.0 then st.area /. window else 0.0 in
  let carried = if window > 0.0 then st.holding_sum /. window else 0.0 in
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
  c "traffic.events" st.events;
  c "traffic.offered" st.offered;
  c "traffic.served" st.served;
  c "traffic.blocked" st.blocked;
  c "traffic.blocked_full" st.blocked_full;
  c "traffic.dropped" st.dropped;
  c "traffic.rerouted" st.rerouted;
  c "traffic.failures" st.failures;
  c "traffic.repairs" st.repairs;
  if st.catastrophe_at <> None then c "traffic.catastrophes" 1;
  {
    sim_time = st.now;
    events = st.events;
    offered = st.offered;
    served = st.served;
    blocked = st.blocked;
    blocked_full = st.blocked_full;
    dropped = st.dropped;
    rerouted = st.rerouted;
    rearranged = st.rearranged;
    failures = st.failures;
    repairs = st.repairs;
    max_concurrent = st.max_concurrent;
    occupancy;
    carried;
    measured_offered = st.w_offered;
    blocking;
    batch_blocking;
    degraded_at = st.degraded_at;
    catastrophe_at = st.catastrophe_at;
  }

let run ~rng ~config:cfg net =
  if Network.n_inputs net = 0 || Network.n_outputs net = 0 then
    invalid_arg "Traffic.run: network has no terminals";
  let st = init ~rng ~cfg net in
  (* deterministic bootstrap: saturation placements (no draws), one
     failure clock per switch in ascending edge order, then the first
     arrival *)
  if cfg.saturate then saturate st;
  if cfg.mtbf < infinity then begin
    let m = Digraph.edge_count net.Network.graph in
    for e = 0 to m - 1 do
      schedule st (Dist.exponential st.rng ~rate:(1.0 /. cfg.mtbf)) (Fail e)
    done
  end;
  if cfg.load > 0.0 then
    schedule st (Dist.exponential st.rng ~rate:cfg.load) Arrival;
  let horizon = match cfg.stop with Horizon h -> h | Calls _ -> infinity in
  let continue_ = ref true in
  while !continue_ do
    if st.stopped || Heap.is_empty st.heap then continue_ := false
    else begin
      let t = Heap.min_time st.heap in
      if t > horizon then begin
        advance st horizon;
        st.stopped <- true;
        continue_ := false
      end
      else begin
        let ev = Heap.pop st.heap in
        advance st t;
        st.events <- st.events + 1;
        match ev with
        | Arrival -> handle_arrival st
        | Hangup id -> handle_hangup st id
        | Fail e -> handle_fail st e
        | Repair e -> handle_repair st e
      end
    end
  done;
  (* a horizon run whose queue dried up still spans [0, h] *)
  (match cfg.stop with
  | Horizon h when (not st.stopped) && st.now < h -> advance st h
  | _ -> ());
  finish st

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
