module Network = Ftcsn_networks.Network
module Digraph = Ftcsn_graph.Digraph
module Fault = Ftcsn_reliability.Fault
module Dyn_conn = Ftcsn_reliability.Dyn_conn
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
  shards : int;
  shard_jobs : int;
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
  if shards < 1 then invalid_arg "Traffic.config: need shards >= 1";
  if shards > Shard.max_shards then
    invalid_arg "Traffic.config: at most 255 shards";
  if shard_jobs < 1 then invalid_arg "Traffic.config: need shard_jobs >= 1";
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
    stop_on_degradation; shards; shard_jobs }

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

(* Events are unboxed ints: [(arg lsl 2) lor tag].  Tag 0 = Arrival
   (arg 0), 1 = Hangup (arg = stamp * cap + slot, see the call store),
   2 = Fail e, 3 = Repair e.  Pushing an immediate int onto the heap
   allocates nothing, and the [(time, push-seq)] determinism contract
   only cares about push order, which is unchanged from the variant
   encoding this replaced. *)
let ev_arrival = 0
let ev_hangup key = (key lsl 2) lor 1
let ev_fail e = (e lsl 2) lor 2
let ev_repair e = (e lsl 2) lor 3

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

(* Structure-of-arrays call store.  At most [min n_inputs n_outputs]
   calls are ever live (each holds one input and one output), so slots
   are preallocated and recycled through an intrusive freelist; the
   live set is an intrusive doubly-linked list through [c_prev]/[c_next]
   (order is irrelevant — the only order-sensitive consumer, the
   rearrangement re-lay, sorts by call id).  Per-slot path/edge arrays
   grow once to the path length and are reused, so the steady-state
   call path — place, sever, reroute, hang up — allocates nothing.

   Hangup staleness: a pending hangup event carries [stamp * cap +
   slot].  [c_stamp] bumps only when a slot is {e permanently} freed
   (hangup or sever-without-reroute), never on a sever that reroutes
   the same call, so a rerouted call's pending hangup stays valid —
   exactly the semantics of the hashtable re-add it replaces. *)
type store = {
  cap : int;
  call_id : int array;  (* unique id (legacy next_id); -1 when free *)
  c_in : int array;  (* input index, not vertex id *)
  c_out : int array;
  c_stamp : int array;
  c_plen : int array;
  c_path : int array array;
  c_edges : int array array;
  c_prev : int array;
  c_next : int array;  (* live-list next, or freelist next when free *)
  mutable live_head : int;
  mutable live_count : int;
  mutable free_head : int;
}

let store_create cap =
  {
    cap;
    call_id = Array.make cap (-1);
    c_in = Array.make cap (-1);
    c_out = Array.make cap (-1);
    c_stamp = Array.make cap 0;
    c_plen = Array.make cap 0;
    c_path = Array.make cap [||];
    c_edges = Array.make cap [||];
    c_prev = Array.make cap (-1);
    c_next = Array.init cap (fun i -> if i + 1 < cap then i + 1 else -1);
    live_head = -1;
    live_count = 0;
    free_head = (if cap > 0 then 0 else -1);
  }

(* One event shard: a contiguous block of topological edge levels with
   its own heap, PRNG stream and scratch buffers.  During a drain the
   shard touches only its own fields, the [fstate] entries of its own
   edges, and (read-only) the frozen [owner] array; everything that
   crosses shard boundaries — faulty-degree updates, closed failures,
   severs — is buffered here and applied at window commit. *)
type shard_st = {
  sheap : int Heap.t;
  srng : Rng.t;
  mutable esc_t : float array;  (* severs to run at commit: times *)
  mutable esc_e : int array;  (* ... and failed-edge ids *)
  mutable esc_len : int;
  mutable ctl_t : float array;  (* closed failures bound for control *)
  mutable ctl_ev : int array;
  mutable ctl_len : int;
  mutable deg_v : int array;  (* (v lsl 1) lor (1 = decrement) *)
  mutable deg_len : int;
  mutable s_failures : int;
  mutable s_repairs : int;
  mutable s_events : int;
}

type state = {
  net : Network.t;
  cfg : config;
  crng : Rng.t;  (* the trial stream (shards = 1) or its control substream *)
  heap : int Heap.t;  (* control heap; the only heap when shards = 1 *)
  router : Greedy.t;
  fstate : Fault.state array;
  faulty_deg : int array;  (* failed edges incident to each vertex *)
  is_terminal : bool array;
  owner : int array;  (* vertex -> slot of the call whose path holds it *)
  calls : store;
  mutable next_id : int;
  idle_in : pool;
  idle_out : pool;
  conn : Dyn_conn.t;  (* incremental Lemma-7 catastrophe check *)
  route_buf : int array;  (* shared allocation-free routing target *)
  (* hot float scalars live in a flat float array so per-event updates
     don't box: 0 = now, 1 = area (∫ live-call count dt since
     window_start), 2 = holding_sum, 3 = current drain window end *)
  fs : float array;
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
  mutable window_start : float;
  mutable measuring : bool;
  mutable w_offered : int;
  mutable w_blocked : int;
  bm : Batch_means.t option;
  mutable degraded_at : float option;
  mutable catastrophe_at : float option;
  mutable stopped : bool;
  shs : shard_st array;  (* [||] when cfg.shards = 1 *)
  eshard : Bytes.t;  (* edge -> shard id; empty when unsharded *)
  esc_idx : int array;  (* k-way merge cursors, one per shard *)
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
  let sharded = cfg.shards > 1 in
  (* substreams are derived without advancing [rng], so the unsharded
     engine — which consumes [rng] directly — is untouched by this *)
  let crng = if sharded then Rng.substream rng 0 else rng in
  let shards =
    if not sharded then [||]
    else
      Array.init cfg.shards (fun k ->
          {
            sheap = Heap.create ~dummy:0 ();
            srng = Rng.substream rng (k + 1);
            esc_t = [||];
            esc_e = [||];
            esc_len = 0;
            ctl_t = [||];
            ctl_ev = [||];
            ctl_len = 0;
            deg_v = [||];
            deg_len = 0;
            s_failures = 0;
            s_repairs = 0;
            s_events = 0;
          })
  in
  let eshard =
    if sharded then Shard.partition net ~shards:cfg.shards else Bytes.empty
  in
  let ncalls = min (Network.n_inputs net) (Network.n_outputs net) in
  (* unsharded, the heap holds one clock per switch, one hangup per call
     slot and the next arrival: presized, it never regrows *)
  let capacity =
    if (not sharded) && cfg.mtbf < infinity then Some (m + ncalls + 1)
    else None
  in
  {
    net;
    cfg;
    crng;
    heap = Heap.create ?capacity ~dummy:0 ();
    router =
      Greedy.create ~allowed ~edge_ok ~engine:(engine_of_policy cfg.policy)
        net;
    fstate;
    faulty_deg;
    is_terminal;
    owner = Array.make n (-1);
    calls = store_create ncalls;
    next_id = 0;
    idle_in = pool_create (Network.n_inputs net);
    idle_out = pool_create (Network.n_outputs net);
    conn = Dyn_conn.create ~terminals:(Network.terminals net) g;
    route_buf = Array.make n 0;
    fs = Array.make 4 0.0;
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
    shs = shards;
    eshard;
    esc_idx = Array.make (max cfg.shards 1) 0;
  }

let advance st t =
  if t > st.fs.(0) then begin
    st.fs.(1) <-
      st.fs.(1) +. (float_of_int st.calls.live_count *. (t -. st.fs.(0)));
    st.fs.(0) <- t
  end

let schedule st dt ev = Heap.push st.heap ~time:(st.fs.(0) +. dt) ev

(* grow-once per-slot buffers: steady state reuses them *)
let slot_path st slot len =
  let p = st.calls.c_path.(slot) in
  if Array.length p >= len then p
  else begin
    let p' = Array.make (max len (2 * Array.length p)) 0 in
    st.calls.c_path.(slot) <- p';
    p'
  end

let slot_edges st slot len =
  let p = st.calls.c_edges.(slot) in
  if Array.length p >= len then p
  else begin
    let p' = Array.make (max len (2 * Array.length p)) 0 in
    st.calls.c_edges.(slot) <- p';
    p'
  end

(* the BFS only crossed normal switches, so every hop has a normal edge;
   with parallel edges the first normal edge in CSR order is the switch
   the call occupies (a deterministic choice) *)
let edges_of_slot st slot =
  let g = st.net.Network.graph in
  let plen = st.calls.c_plen.(slot) in
  let path = st.calls.c_path.(slot) in
  let edges = slot_edges st slot (max (plen - 1) 0) in
  for i = 0 to plen - 2 do
    let u = path.(i) and v = path.(i + 1) in
    let e = ref (-1) in
    Digraph.iter_out g u (fun ~dst ~eid ->
        if !e < 0 && dst = v && is_normal st.fstate.(eid) then e := eid);
    if !e < 0 then invalid_arg "Traffic: path hop has no normal switch";
    edges.(i) <- !e
  done

let note_concurrency st =
  if st.calls.live_count > st.max_concurrent then
    st.max_concurrent <- st.calls.live_count

let link_live st slot =
  let s = st.calls in
  s.c_prev.(slot) <- -1;
  s.c_next.(slot) <- s.live_head;
  if s.live_head >= 0 then s.c_prev.(s.live_head) <- slot;
  s.live_head <- slot;
  s.live_count <- s.live_count + 1

let unlink_live st slot =
  let s = st.calls in
  let p = s.c_prev.(slot) and n = s.c_next.(slot) in
  if p >= 0 then s.c_next.(p) <- n else s.live_head <- n;
  if n >= 0 then s.c_prev.(n) <- p;
  s.live_count <- s.live_count - 1

let alloc_slot st ~input ~output =
  let s = st.calls in
  let slot = s.free_head in
  (* an idle input/output pair existed, so a free slot must too *)
  s.free_head <- s.c_next.(slot);
  s.call_id.(slot) <- st.next_id;
  st.next_id <- st.next_id + 1;
  s.c_in.(slot) <- input;
  s.c_out.(slot) <- output;
  slot

(* permanent release: the stamp bump is what invalidates any pending
   hangup event for this occupancy *)
let free_slot st slot =
  let s = st.calls in
  s.c_stamp.(slot) <- s.c_stamp.(slot) + 1;
  s.call_id.(slot) <- -1;
  s.c_next.(slot) <- s.free_head;
  s.free_head <- slot

(* adopt a path already marked busy in the router, from route_buf *)
let adopt_buf st slot ~len =
  let s = st.calls in
  let p = slot_path st slot len in
  Array.blit st.route_buf 0 p 0 len;
  s.c_plen.(slot) <- len;
  edges_of_slot st slot;
  for i = 0 to len - 1 do
    st.owner.(p.(i)) <- slot
  done;
  pool_remove st.idle_in s.c_in.(slot);
  pool_remove st.idle_out s.c_out.(slot);
  link_live st slot;
  note_concurrency st

(* cold-path variant taking a list path (saturation, rearrangement) *)
let set_path_list st slot path =
  let len = List.length path in
  let p = slot_path st slot len in
  List.iteri (fun i v -> p.(i) <- v) path;
  st.calls.c_plen.(slot) <- len;
  edges_of_slot st slot

let adopt_list st slot path =
  set_path_list st slot path;
  let s = st.calls in
  let p = s.c_path.(slot) in
  for i = 0 to s.c_plen.(slot) - 1 do
    st.owner.(p.(i)) <- slot
  done;
  pool_remove st.idle_in s.c_in.(slot);
  pool_remove st.idle_out s.c_out.(slot);
  link_live st slot;
  note_concurrency st

(* take the call off the network but keep its slot (the sever path may
   immediately re-adopt it under the same id and stamp) *)
let vacate st slot =
  let s = st.calls in
  let p = s.c_path.(slot) and len = s.c_plen.(slot) in
  Greedy.release_buf st.router p ~len;
  for i = 0 to len - 1 do
    st.owner.(p.(i)) <- -1
  done;
  pool_add st.idle_in s.c_in.(slot);
  pool_add st.idle_out s.c_out.(slot);
  unlink_live st slot

(* a new call goes live: draw its holding time, schedule its hangup *)
let place_new_buf st ~i ~o ~len =
  let slot = alloc_slot st ~input:i ~output:o in
  adopt_buf st slot ~len;
  let h = Dist.holding_time st.crng st.cfg.holding in
  schedule st h (ev_hangup ((st.calls.c_stamp.(slot) * st.calls.cap) + slot));
  if st.measuring then st.fs.(2) <- st.fs.(2) +. h

let place_new_list st ~i ~o path =
  let slot = alloc_slot st ~input:i ~output:o in
  adopt_list st slot path;
  let h = Dist.holding_time st.crng st.cfg.holding in
  schedule st h (ev_hangup ((st.calls.c_stamp.(slot) * st.calls.cap) + slot));
  if st.measuring then st.fs.(2) <- st.fs.(2) +. h

(* identity calls input i -> output i that never hang up — the
   saturating workload of the time-to-degradation experiments *)
let saturate st =
  let k = min (Network.n_inputs st.net) (Network.n_outputs st.net) in
  for i = 0 to k - 1 do
    let input = st.net.Network.inputs.(i)
    and output = st.net.Network.outputs.(i) in
    match Greedy.route st.router ~input ~output with
    | Some path ->
        let slot = alloc_slot st ~input:i ~output:i in
        adopt_list st slot path;
        st.served <- st.served + 1
    | None -> st.blocked <- st.blocked + 1
  done

(* rearrangeable fallback: re-lay every live call plus the new request
   from scratch over the fault-masked graph; on success the whole layout
   migrates at once.  Cold path — list allocations are fine here. *)
let try_rearrange st ~budget ~i ~o =
  let s = st.calls in
  let live = ref [] in
  let sl = ref s.live_head in
  while !sl >= 0 do
    live := !sl :: !live;
    sl := s.c_next.(!sl)
  done;
  let live =
    List.sort (fun a b -> Int.compare s.call_id.(a) s.call_id.(b)) !live
  in
  let inputs = st.net.Network.inputs and outputs = st.net.Network.outputs in
  let reqs =
    List.map (fun sl -> (inputs.(s.c_in.(sl)), outputs.(s.c_out.(sl)))) live
    @ [ (inputs.(i), outputs.(o)) ]
  in
  let allowed v = st.is_terminal.(v) || st.faulty_deg.(v) = 0 in
  let edge_ok e = is_normal st.fstate.(e) in
  match Backtrack.route_all ~budget ~allowed ~edge_ok st.net reqs with
  | Backtrack.Unroutable | Backtrack.Budget_exceeded -> false
  | Backtrack.Routed paths ->
      List.iter
        (fun sl ->
          Greedy.release_buf st.router s.c_path.(sl) ~len:s.c_plen.(sl);
          for j = 0 to s.c_plen.(sl) - 1 do
            st.owner.(s.c_path.(sl).(j)) <- -1
          done)
        live;
      let rec go cs ps =
        match (cs, ps) with
        | [], [ p_new ] ->
            Greedy.occupy st.router p_new;
            place_new_list st ~i ~o p_new
        | sl :: cs', p :: ps' ->
            Greedy.occupy st.router p;
            set_path_list st sl p;
            List.iter (fun v -> st.owner.(v) <- sl) p;
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
      st.window_start <- st.fs.(0);
      st.fs.(1) <- 0.0
  | _ -> ());
  let blocked, full =
    if st.idle_in.size = 0 || st.idle_out.size = 0 then (true, true)
    else begin
      (* draws, in fixed order: input pick, output pick, then (on
         placement) the holding time *)
      let i = pool_draw st.crng st.idle_in in
      let o = pool_draw st.crng st.idle_out in
      let input = st.net.Network.inputs.(i)
      and output = st.net.Network.outputs.(o) in
      let len =
        Greedy.route_into st.router ~input ~output ~buf:st.route_buf
      in
      if len >= 0 then begin
        place_new_buf st ~i ~o ~len;
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
    st.degraded_at <- Some st.fs.(0);
    st.stopped <- true
  end;
  (match st.cfg.stop with
  | Calls { measured; _ } when st.measuring && st.w_offered >= measured ->
      st.stopped <- true
  | _ -> ());
  if not st.stopped then
    schedule st (Dist.exponential st.crng ~rate:st.cfg.load) ev_arrival

let handle_hangup st key =
  let slot = key mod st.calls.cap and stamp = key / st.calls.cap in
  (* stamp mismatch = the call was severed earlier and its slot
     permanently freed; this hangup event is stale *)
  if st.calls.c_stamp.(slot) = stamp then begin
    vacate st slot;
    free_slot st slot
  end

let crosses st slot e =
  let edges = st.calls.c_edges.(slot) in
  let k = st.calls.c_plen.(slot) - 1 in
  let found = ref false in
  let i = ref 0 in
  while (not !found) && !i < k do
    if edges.(!i) = e then found := true;
    incr i
  done;
  !found

(* drop the call (if any) whose path crosses the failed switch, then
   attempt an immediate greedy reroute of the same endpoint pair *)
let sever st e ~u ~v =
  let try_drop vtx =
    let slot = st.owner.(vtx) in
    if slot >= 0 && crosses st slot e then begin
      st.dropped <- st.dropped + 1;
      vacate st slot;
      let input = st.net.Network.inputs.(st.calls.c_in.(slot))
      and output = st.net.Network.outputs.(st.calls.c_out.(slot)) in
      let len =
        Greedy.route_into st.router ~input ~output ~buf:st.route_buf
      in
      if len >= 0 then begin
        (* same slot, same stamp: the pending hangup stays valid *)
        adopt_buf st slot ~len;
        st.rerouted <- st.rerouted + 1
      end
      else begin
        free_slot st slot;
        if st.cfg.stop_on_degradation && not st.stopped then begin
          st.degraded_at <- Some st.fs.(0);
          st.stopped <- true
        end
      end
    end
  in
  try_drop u;
  if v <> u then try_drop v

let note_catastrophe st =
  st.catastrophe_at <- Some st.fs.(0);
  if st.cfg.stop_on_degradation && st.degraded_at = None then
    st.degraded_at <- Some st.fs.(0);
  st.stopped <- true

(* unsharded failure/repair: the open/closed coin is drawn when the
   event fires, exactly as the engine always did *)
let handle_fail st e =
  st.failures <- st.failures + 1;
  (* draws, in fixed order: the open/closed coin, then the repair clock *)
  let closed = Rng.bool st.crng in
  if st.cfg.mttr < infinity then
    schedule st
      (Dist.exponential st.crng ~rate:(1.0 /. st.cfg.mttr))
      (ev_repair e);
  st.fstate.(e) <-
    (if closed then Fault.Closed_failure else Fault.Open_failure);
  let u, v = Digraph.edge_endpoints st.net.Network.graph e in
  st.faulty_deg.(u) <- st.faulty_deg.(u) + 1;
  if v <> u then st.faulty_deg.(v) <- st.faulty_deg.(v) + 1;
  if closed then begin
    (* two terminals in one closed-contraction class is the Lemma 7
       catastrophe; Dyn_conn maintains the verdict incrementally *)
    Dyn_conn.close st.conn e;
    if Dyn_conn.terminals_shorted st.conn then note_catastrophe st
    else sever st e ~u ~v
  end
  else sever st e ~u ~v

let handle_repair st e =
  st.repairs <- st.repairs + 1;
  if Fault.state_equal st.fstate.(e) Fault.Closed_failure then
    Dyn_conn.reopen st.conn e;
  st.fstate.(e) <- Fault.Normal;
  let u, v = Digraph.edge_endpoints st.net.Network.graph e in
  st.faulty_deg.(u) <- st.faulty_deg.(u) - 1;
  if v <> u then st.faulty_deg.(v) <- st.faulty_deg.(v) - 1;
  (* back in service with a fresh failure clock *)
  schedule st (Dist.exponential st.crng ~rate:(1.0 /. st.cfg.mtbf)) (ev_fail e)

(* sharded failure/repair: the coin is pre-drawn when the failure is
   scheduled, which routes closed failures (the only kind that touches
   global connectivity) to the control heap and leaves open failures
   shard-local *)
let handle_fail_closed st e =
  st.failures <- st.failures + 1;
  let sh = st.shs.(Shard.shard_of st.eshard e) in
  if st.cfg.mttr < infinity then
    schedule st
      (Dist.exponential sh.srng ~rate:(1.0 /. st.cfg.mttr))
      (ev_repair e);
  st.fstate.(e) <- Fault.Closed_failure;
  let u, v = Digraph.edge_endpoints st.net.Network.graph e in
  st.faulty_deg.(u) <- st.faulty_deg.(u) + 1;
  if v <> u then st.faulty_deg.(v) <- st.faulty_deg.(v) + 1;
  Dyn_conn.close st.conn e;
  if Dyn_conn.terminals_shorted st.conn then note_catastrophe st
  else sever st e ~u ~v

let handle_repair_closed st e =
  st.repairs <- st.repairs + 1;
  Dyn_conn.reopen st.conn e;
  st.fstate.(e) <- Fault.Normal;
  let u, v = Digraph.edge_endpoints st.net.Network.graph e in
  st.faulty_deg.(u) <- st.faulty_deg.(u) - 1;
  if v <> u then st.faulty_deg.(v) <- st.faulty_deg.(v) - 1;
  let sh = st.shs.(Shard.shard_of st.eshard e) in
  let dt = Dist.exponential sh.srng ~rate:(1.0 /. st.cfg.mtbf) in
  let closed = Rng.bool sh.srng in
  if closed then Heap.push st.heap ~time:(st.fs.(0) +. dt) (ev_fail e)
  else Heap.push sh.sheap ~time:(st.fs.(0) +. dt) (ev_fail e)

(* shard scratch-buffer appends, grow-once *)
let grow_f a len = Array.append a (Array.make (max 8 (Array.length a + len)) 0.0)
let grow_i a len = Array.append a (Array.make (max 8 (Array.length a + len)) 0)

let esc_push sh t e =
  if sh.esc_len = Array.length sh.esc_t then begin
    sh.esc_t <- grow_f sh.esc_t sh.esc_len;
    sh.esc_e <- grow_i sh.esc_e sh.esc_len
  end;
  sh.esc_t.(sh.esc_len) <- t;
  sh.esc_e.(sh.esc_len) <- e;
  sh.esc_len <- sh.esc_len + 1

let ctl_push sh t ev =
  if sh.ctl_len = Array.length sh.ctl_t then begin
    sh.ctl_t <- grow_f sh.ctl_t sh.ctl_len;
    sh.ctl_ev <- grow_i sh.ctl_ev sh.ctl_len
  end;
  sh.ctl_t.(sh.ctl_len) <- t;
  sh.ctl_ev.(sh.ctl_len) <- ev;
  sh.ctl_len <- sh.ctl_len + 1

let deg_push sh v ~dec =
  if sh.deg_len = Array.length sh.deg_v then
    sh.deg_v <- grow_i sh.deg_v sh.deg_len;
  sh.deg_v.(sh.deg_len) <- (v lsl 1) lor (if dec then 1 else 0);
  sh.deg_len <- sh.deg_len + 1

(* Drain shard [k] up to the window end fs.(3): process its open
   failures and repairs, keeping every cross-shard-visible effect in
   the shard's buffers.  Safe to run concurrently with the other
   shards' drains: this touches only the shard's own heap/rng/buffers,
   the fstate entries of its own edges, and reads the frozen [owner]
   array.  No global-time or statistics access. *)
let drain_shard st k =
  let sh = st.shs.(k) in
  let w = st.fs.(3) in
  let g = st.net.Network.graph in
  let continue_ = ref true in
  while !continue_ do
    if Heap.is_empty sh.sheap || Heap.min_time sh.sheap > w then
      continue_ := false
    else begin
      let t = Heap.min_time sh.sheap in
      let ev = Heap.pop sh.sheap in
      sh.s_events <- sh.s_events + 1;
      let e = ev lsr 2 in
      let u, v = Digraph.edge_endpoints g e in
      if ev land 3 = 2 then begin
        (* open failure *)
        sh.s_failures <- sh.s_failures + 1;
        if st.cfg.mttr < infinity then begin
          let dt = Dist.exponential sh.srng ~rate:(1.0 /. st.cfg.mttr) in
          Heap.push sh.sheap ~time:(t +. dt) (ev_repair e)
        end;
        st.fstate.(e) <- Fault.Open_failure;
        deg_push sh u ~dec:false;
        if v <> u then deg_push sh v ~dec:false;
        (* escalate the sever to commit time only if a live call can be
           crossing this switch.  [owner] is frozen during the window,
           and any call placed or rerouted at commit routes over the
           fully-committed fault mask — so it cannot cross this edge,
           and no sever is ever missed. *)
        if st.owner.(u) >= 0 || (v <> u && st.owner.(v) >= 0) then
          esc_push sh t e
      end
      else begin
        (* open repair *)
        sh.s_repairs <- sh.s_repairs + 1;
        st.fstate.(e) <- Fault.Normal;
        deg_push sh u ~dec:true;
        if v <> u then deg_push sh v ~dec:true;
        (* fresh failure clock: the clock draw, then the coin that
           decides whether the next failure is control-bound *)
        let dt = Dist.exponential sh.srng ~rate:(1.0 /. st.cfg.mtbf) in
        let closed = Rng.bool sh.srng in
        if closed then ctl_push sh (t +. dt) (ev_fail e)
        else Heap.push sh.sheap ~time:(t +. dt) (ev_fail e)
      end
    end
  done

(* Apply everything the drains buffered, in deterministic order:
   faulty-degree deltas and counters shard by shard, control-bound
   closed failures shard by shard (heap seq breaks same-time ties by
   shard id), then the escalated severs merged across shards by
   (time, shard). *)
let commit_window st =
  let ns = Array.length st.shs in
  for k = 0 to ns - 1 do
    let sh = st.shs.(k) in
    for j = 0 to sh.deg_len - 1 do
      let enc = sh.deg_v.(j) in
      let v = enc lsr 1 in
      st.faulty_deg.(v) <-
        (st.faulty_deg.(v) + if enc land 1 = 1 then -1 else 1)
    done;
    sh.deg_len <- 0;
    st.failures <- st.failures + sh.s_failures;
    sh.s_failures <- 0;
    st.repairs <- st.repairs + sh.s_repairs;
    sh.s_repairs <- 0;
    st.events <- st.events + sh.s_events;
    sh.s_events <- 0;
    for j = 0 to sh.ctl_len - 1 do
      Heap.push st.heap ~time:sh.ctl_t.(j) sh.ctl_ev.(j)
    done;
    sh.ctl_len <- 0
  done;
  let idx = st.esc_idx in
  Array.fill idx 0 ns 0;
  let remaining = ref 0 in
  Array.iter (fun sh -> remaining := !remaining + sh.esc_len) st.shs;
  while !remaining > 0 && not st.stopped do
    let best = ref (-1) and bt = ref infinity in
    for k = 0 to ns - 1 do
      let sh = st.shs.(k) in
      if idx.(k) < sh.esc_len && sh.esc_t.(idx.(k)) < !bt then begin
        best := k;
        bt := sh.esc_t.(idx.(k))
      end
    done;
    let sh = st.shs.(!best) in
    let e = sh.esc_e.(idx.(!best)) in
    idx.(!best) <- idx.(!best) + 1;
    decr remaining;
    advance st !bt;
    let u, v = Digraph.edge_endpoints st.net.Network.graph e in
    sever st e ~u ~v
  done;
  Array.iter (fun sh -> sh.esc_len <- 0) st.shs

let dispatch_mono st ev =
  match ev land 3 with
  | 0 -> handle_arrival st
  | 1 -> handle_hangup st (ev lsr 2)
  | 2 -> handle_fail st (ev lsr 2)
  | _ -> handle_repair st (ev lsr 2)

let dispatch_sharded st ev =
  match ev land 3 with
  | 0 -> handle_arrival st
  | 1 -> handle_hangup st (ev lsr 2)
  | 2 -> handle_fail_closed st (ev lsr 2)
  | _ -> handle_repair_closed st (ev lsr 2)

let run_mono st horizon =
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
        dispatch_mono st ev
      end
    end
  done

(* Conservative time-window synchronizer: the safe horizon for a drain
   is the next control event (arrivals, hangups and closed failures all
   live on the control heap, and they are the only events that mutate
   call state), capped by the stop horizon.  Each iteration drains all
   shards up to that window, commits, then executes exactly one control
   event. *)
let run_sharded st horizon =
  let ns = Array.length st.shs in
  let tasks = Array.init ns (fun k () -> drain_shard st k) in
  let jobs = st.cfg.shard_jobs in
  let continue_ = ref true in
  while !continue_ do
    if st.stopped then continue_ := false
    else begin
      let wc =
        if Heap.is_empty st.heap then infinity else Heap.min_time st.heap
      in
      let w = min wc horizon in
      if w = infinity then
        (* no control events and no horizon: the remaining shard-local
           open-failure churn cannot affect any statistic *)
        continue_ := false
      else begin
        st.fs.(3) <- w;
        Trials.parallel_tasks ~jobs tasks;
        commit_window st;
        if not st.stopped then begin
          (* a drain may have delivered a closed failure below [w] *)
          let wc' =
            if Heap.is_empty st.heap then infinity else Heap.min_time st.heap
          in
          if wc' > horizon then begin
            advance st horizon;
            st.stopped <- true;
            continue_ := false
          end
          else begin
            let ev = Heap.pop st.heap in
            advance st wc';
            st.events <- st.events + 1;
            dispatch_sharded st ev
          end
        end
      end
    end
  done

let finish st =
  let window = st.fs.(0) -. st.window_start in
  let occupancy = if window > 0.0 then st.fs.(1) /. window else 0.0 in
  let carried = if window > 0.0 then st.fs.(2) /. window else 0.0 in
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
    sim_time = st.fs.(0);
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
    if cfg.shards = 1 then
      for e = 0 to m - 1 do
        schedule st
          (Dist.exponential st.crng ~rate:(1.0 /. cfg.mtbf))
          (ev_fail e)
      done
    else
      for e = 0 to m - 1 do
        let sh = st.shs.(Shard.shard_of st.eshard e) in
        let dt = Dist.exponential sh.srng ~rate:(1.0 /. cfg.mtbf) in
        let closed = Rng.bool sh.srng in
        if closed then Heap.push st.heap ~time:dt (ev_fail e)
        else Heap.push sh.sheap ~time:dt (ev_fail e)
      done
  end;
  if cfg.load > 0.0 then
    schedule st (Dist.exponential st.crng ~rate:cfg.load) ev_arrival;
  let horizon = match cfg.stop with Horizon h -> h | Calls _ -> infinity in
  if cfg.shards = 1 then run_mono st horizon else run_sharded st horizon;
  (* a horizon run whose queue dried up still spans [0, h] *)
  (match cfg.stop with
  | Horizon h when (not st.stopped) && st.fs.(0) < h -> advance st h
  | _ -> ());
  finish st

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
