module Network = Ftcsn_networks.Network
module Digraph = Ftcsn_graph.Digraph
module Fault = Ftcsn_reliability.Fault
module Dyn_conn = Ftcsn_reliability.Dyn_conn
module Greedy = Ftcsn_routing.Greedy
module Rng = Ftcsn_prng.Rng
module Heap = Ftcsn_des.Heap
module Dist = Ftcsn_des.Dist
module Shard = Ftcsn_des.Shard
module Json = Ftcsn_obs.Json
module Trace = Ftcsn_obs.Trace
module Histogram = Ftcsn_obs.Histogram
module Clock = Ftcsn_obs.Clock

(* Event encoding, heap layout and the call bookkeeping below mirror
   Ftcsn_des.Traffic (see DESIGN.md §9): unboxed int events, an
   idle-terminal index pool, and a structure-of-arrays call store whose
   slots carry grow-once path buffers.  The differences are the arrival
   source (external requests instead of a Poisson clock), string call
   ids (the wire protocol's names), and per-switch clock substreams
   (the shards-invariance argument in the .mli). *)

let ev_hangup key = (key lsl 2) lor 1
let ev_fail e = (e lsl 2) lor 2
let ev_repair e = (e lsl 2) lor 3

type pool = { items : int array; pos : int array; mutable size : int }

let pool_create n =
  { items = Array.init n Fun.id; pos = Array.init n Fun.id; size = n }

let pool_idle p x = p.pos.(x) < p.size

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

type store = {
  cap : int;
  c_name : string array;  (* wire call id; "" when free *)
  c_in : int array;
  c_out : int array;
  c_stamp : int array;  (* bumps on permanent free: hangup-key staleness *)
  c_plen : int array;
  c_path : int array array;
  c_edges : int array array;
  c_prev : int array;
  c_next : int array;
  mutable live_head : int;
  mutable live_count : int;
  mutable free_head : int;
}

let store_create cap =
  {
    cap;
    c_name = Array.make cap "";
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

type t = {
  net : Network.t;
  emit : Proto.response -> unit;
  trace : Trace.sink option;
  holding : Dist.holding;
  mtbf : float;
  mttr : float;
  shards : int;
  crng : Rng.t;  (* control stream: endpoint picks, holding draws *)
  erng : Rng.t array;  (* per-switch clock streams, one per edge *)
  ctl : int Heap.t;  (* hangups *)
  fheaps : int Heap.t array;  (* failure/repair clocks, one per shard *)
  eshard : Bytes.t;  (* edge -> shard id; empty when shards = 1 *)
  router : Greedy.t;
  fstate : Fault.state array;
  faulty_deg : int array;
  is_terminal : bool array;
  owner : int array;  (* vertex -> slot of the call holding it *)
  calls : store;
  tbl : (string, int) Hashtbl.t;  (* live call id -> slot *)
  idle_in : pool;
  idle_out : pool;
  conn : Dyn_conn.t;
  route_buf : int array;
  latency : Histogram.t;  (* per-decision wall nanoseconds *)
  (* hot float scalars, unboxed: 0 = now, 1 = area (∫ live dt) *)
  fs : float array;
  mutable offered : int;
  mutable accepted : int;
  mutable blocked : int;
  mutable blocked_full : int;
  mutable overload : int;
  mutable rerouted : int;
  mutable dropped : int;
  mutable released : int;
  mutable failures : int;
  mutable repairs : int;
  mutable events : int;
  mutable catastrophes : int;
  mutable cat_live : bool;  (* terminals currently fused *)
  mutable max_concurrent : int;
}

let is_normal s = Fault.state_equal s Fault.Normal

let create ?(engine = `Bfs) ?(holding = Dist.Exponential) ?(mtbf = infinity)
    ?(mttr = 10.0) ?(shards = 1) ?trace ~emit ~rng net =
  if not (mtbf > 0.0) then invalid_arg "Engine.create: mtbf must be > 0";
  if not (mttr > 0.0) then invalid_arg "Engine.create: mttr must be > 0";
  if shards < 1 then invalid_arg "Engine.create: need shards >= 1";
  if shards > Shard.max_shards then
    invalid_arg "Engine.create: at most 255 shards";
  if shards > Shard.regions net then
    invalid_arg
      (Printf.sprintf "Engine.create: %d shards > %d shardable regions"
         shards (Shard.regions net));
  let g = net.Network.graph in
  let n = Digraph.vertex_count g and m = Digraph.edge_count g in
  let is_terminal = Array.make n false in
  List.iter (fun v -> is_terminal.(v) <- true) (Network.terminals net);
  let fstate = Array.make m Fault.Normal in
  let faulty_deg = Array.make n 0 in
  let allowed v = is_terminal.(v) || faulty_deg.(v) = 0 in
  let edge_ok e = is_normal fstate.(e) in
  let erng = Array.init m (fun e -> Rng.substream rng (1 + e)) in
  let eshard =
    if shards > 1 then Shard.partition net ~shards else Bytes.empty
  in
  (* each failure heap is presized to the switch clocks it will hold *)
  let clocks = Array.make shards 0 in
  if mtbf < infinity then
    for e = 0 to m - 1 do
      let k = if shards = 1 then 0 else Shard.shard_of eshard e in
      clocks.(k) <- clocks.(k) + 1
    done;
  let fheaps =
    Array.map (fun c -> Heap.create ~capacity:c ~dummy:0 ()) clocks
  in
  let st =
    {
      net;
      emit;
      trace;
      holding;
      mtbf;
      mttr;
      shards;
      crng = Rng.substream rng 0;
      erng;
      ctl = Heap.create ~dummy:0 ();
      fheaps;
      eshard;
      router = Greedy.create ~allowed ~edge_ok ~engine net;
      fstate;
      faulty_deg;
      is_terminal;
      owner = Array.make n (-1);
      calls =
        store_create (min (Network.n_inputs net) (Network.n_outputs net));
      tbl = Hashtbl.create 1024;
      idle_in = pool_create (Network.n_inputs net);
      idle_out = pool_create (Network.n_outputs net);
      conn = Dyn_conn.create ~terminals:(Network.terminals net) g;
      route_buf = Array.make n 0;
      latency = Histogram.create ();
      fs = Array.make 2 0.0;
      offered = 0;
      accepted = 0;
      blocked = 0;
      blocked_full = 0;
      overload = 0;
      rerouted = 0;
      dropped = 0;
      released = 0;
      failures = 0;
      repairs = 0;
      events = 0;
      catastrophes = 0;
      cat_live = false;
      max_concurrent = 0;
    }
  in
  (* every switch gets its first failure clock up front, from its own
     substream — the whole fault schedule is fixed at creation *)
  if mtbf < infinity then
    for e = 0 to m - 1 do
      let h =
        if shards = 1 then fheaps.(0) else fheaps.(Shard.shard_of eshard e)
      in
      Heap.push h
        ~time:(Dist.exponential erng.(e) ~rate:(1.0 /. mtbf))
        (ev_fail e)
    done;
  st

let now st = st.fs.(0)
let live_calls st = st.calls.live_count
let occupancy st = float_of_int st.calls.live_count /. float_of_int st.calls.cap
let decisions st = st.offered
let engine_label st = Greedy.engine_name st.router

let heap_of st e =
  if st.shards = 1 then st.fheaps.(0)
  else st.fheaps.(Shard.shard_of st.eshard e)

let move_time st t =
  if t > st.fs.(0) then begin
    st.fs.(1) <-
      st.fs.(1) +. (float_of_int st.calls.live_count *. (t -. st.fs.(0)));
    st.fs.(0) <- t
  end

(* ---- call store plumbing (mirrors Traffic) ---- *)

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

let alloc_slot st ~name ~input ~output =
  let s = st.calls in
  let slot = s.free_head in
  s.free_head <- s.c_next.(slot);
  s.c_name.(slot) <- name;
  s.c_in.(slot) <- input;
  s.c_out.(slot) <- output;
  slot

let free_slot st slot =
  let s = st.calls in
  s.c_stamp.(slot) <- s.c_stamp.(slot) + 1;
  Hashtbl.remove st.tbl s.c_name.(slot);
  s.c_name.(slot) <- "";
  s.c_next.(slot) <- s.free_head;
  s.free_head <- slot

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

(* first normal parallel edge in CSR order: the deterministic choice of
   which switch a hop occupies (same rule as Traffic) *)
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
    if !e < 0 then invalid_arg "Engine: path hop has no normal switch";
    edges.(i) <- !e
  done

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

(* ---- DES events ---- *)

let handle_hangup st key =
  let slot = key mod st.calls.cap and stamp = key / st.calls.cap in
  (* stamp mismatch: the call was dropped earlier, the event is stale *)
  if st.calls.c_stamp.(slot) = stamp then begin
    st.released <- st.released + 1;
    st.emit
      (Proto.Released { id = st.calls.c_name.(slot); t = st.fs.(0) });
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
   attempt an immediate reroute of the same endpoint pair; the client
   hears about either outcome *)
let sever st e ~u ~v =
  let try_drop vtx =
    let slot = st.owner.(vtx) in
    if slot >= 0 && crosses st slot e then begin
      vacate st slot;
      let input = st.net.Network.inputs.(st.calls.c_in.(slot))
      and output = st.net.Network.outputs.(st.calls.c_out.(slot)) in
      let len =
        Greedy.route_into st.router ~input ~output ~buf:st.route_buf
      in
      if len >= 0 then begin
        (* same slot, same stamp: the pending hangup stays valid *)
        adopt_buf st slot ~len;
        st.rerouted <- st.rerouted + 1;
        st.emit
          (Proto.Rerouted
             {
               id = st.calls.c_name.(slot);
               t = st.fs.(0);
               path_len = len - 1;
             })
      end
      else begin
        st.dropped <- st.dropped + 1;
        st.emit
          (Proto.Dropped { id = st.calls.c_name.(slot); t = st.fs.(0) });
        free_slot st slot
      end
    end
  in
  try_drop u;
  if v <> u then try_drop v

let handle_fail st e =
  st.failures <- st.failures + 1;
  (* all clock draws for switch e come from its own substream, in fixed
     order: open/closed coin, repair delay, (on repair) next failure *)
  let r = st.erng.(e) in
  let closed = Rng.bool r in
  if st.mttr < infinity then
    Heap.push (heap_of st e)
      ~time:(st.fs.(0) +. Dist.exponential r ~rate:(1.0 /. st.mttr))
      (ev_repair e);
  st.fstate.(e) <-
    (if closed then Fault.Closed_failure else Fault.Open_failure);
  let u, v = Digraph.edge_endpoints st.net.Network.graph e in
  st.faulty_deg.(u) <- st.faulty_deg.(u) + 1;
  if v <> u then st.faulty_deg.(v) <- st.faulty_deg.(v) + 1;
  if closed then begin
    Dyn_conn.close st.conn e;
    if (not st.cat_live) && Dyn_conn.terminals_shorted st.conn then begin
      (* Lemma-7 catastrophe: report it, keep serving — repairs can
         clear it, and the client deserves the signal either way *)
      st.cat_live <- true;
      st.catastrophes <- st.catastrophes + 1;
      st.emit (Proto.Catastrophe { t = st.fs.(0) })
    end
  end;
  sever st e ~u ~v

let handle_repair st e =
  st.repairs <- st.repairs + 1;
  if Fault.state_equal st.fstate.(e) Fault.Closed_failure then begin
    Dyn_conn.reopen st.conn e;
    if st.cat_live && not (Dyn_conn.terminals_shorted st.conn) then
      st.cat_live <- false
  end;
  st.fstate.(e) <- Fault.Normal;
  let u, v = Digraph.edge_endpoints st.net.Network.graph e in
  st.faulty_deg.(u) <- st.faulty_deg.(u) - 1;
  if v <> u then st.faulty_deg.(v) <- st.faulty_deg.(v) - 1;
  (* back in service with a fresh failure clock from its own stream *)
  Heap.push (heap_of st e)
    ~time:(st.fs.(0) +. Dist.exponential st.erng.(e) ~rate:(1.0 /. st.mtbf))
    (ev_fail e)

let dispatch st ev =
  st.events <- st.events + 1;
  match ev land 3 with
  | 1 -> handle_hangup st (ev lsr 2)
  | 2 -> handle_fail st (ev lsr 2)
  | _ -> handle_repair st (ev lsr 2)

let next_event_time st =
  let best = ref infinity in
  if not (Heap.is_empty st.ctl) then best := Heap.min_time st.ctl;
  Array.iter
    (fun h ->
      if (not (Heap.is_empty h)) && Heap.min_time h < !best then
        best := Heap.min_time h)
    st.fheaps;
  !best

(* fire every event due by [target], ascending time, control heap first
   on (measure-zero) ties then ascending shard — the fixed order the
   .mli's shards-invariance argument leans on *)
let rec fire st target =
  let best_t = ref infinity and best = ref (-1) in
  if not (Heap.is_empty st.ctl) then begin
    best_t := Heap.min_time st.ctl;
    best := 0
  end;
  Array.iteri
    (fun k h ->
      if (not (Heap.is_empty h)) && Heap.min_time h < !best_t then begin
        best_t := Heap.min_time h;
        best := k + 1
      end)
    st.fheaps;
  if !best >= 0 && !best_t <= target then begin
    let h = if !best = 0 then st.ctl else st.fheaps.(!best - 1) in
    let ev = Heap.pop h in
    move_time st !best_t;
    dispatch st ev;
    fire st target
  end

let advance st target =
  if target > st.fs.(0) then begin
    fire st target;
    move_time st target
  end

let advance_opt st = function Some at -> advance st at | None -> ()

(* ---- requests ---- *)

let out_of_range bound = function
  | Some i -> i < 0 || i >= bound
  | None -> false

let decide_call st ~id ~src ~dst ~hold =
  if out_of_range (Network.n_inputs st.net) src then
    st.emit
      (Proto.Error { id = Some id; message = "input index out of range" })
  else if out_of_range (Network.n_outputs st.net) dst then
    st.emit
      (Proto.Error { id = Some id; message = "output index out of range" })
  else begin
  st.offered <- st.offered + 1;
  let t = st.fs.(0) in
  let block reason full =
    st.blocked <- st.blocked + 1;
    if full then st.blocked_full <- st.blocked_full + 1;
    st.emit (Proto.Block { id; t; reason })
  in
  let resolve pool = function
    (* draws in fixed order: input pick then output pick, only when the
       request leaves the endpoint to the controller *)
    | Some i -> if pool_idle pool i then `Idle i else `Busy
    | None -> if pool.size = 0 then `Busy else `Idle (pool_draw st.crng pool)
  in
  match resolve st.idle_in src with
  | `Busy -> block Proto.Full true
  | `Idle i -> (
      match resolve st.idle_out dst with
      | `Busy -> block Proto.Full true
      | `Idle o ->
          let input = st.net.Network.inputs.(i)
          and output = st.net.Network.outputs.(o) in
          let len =
            Greedy.route_into st.router ~input ~output ~buf:st.route_buf
          in
          if len < 0 then block Proto.No_path false
          else begin
            let slot = alloc_slot st ~name:id ~input:i ~output:o in
            adopt_buf st slot ~len;
            Hashtbl.replace st.tbl id slot;
            let h =
              match hold with
              | Some h -> h
              | None -> Dist.holding_time st.crng st.holding
            in
            Heap.push st.ctl ~time:(t +. h)
              (ev_hangup ((st.calls.c_stamp.(slot) * st.calls.cap) + slot));
            st.accepted <- st.accepted + 1;
            st.emit (Proto.Accept { id; t; path_len = len - 1 })
          end)
  end

let metrics_json ?(queue_depth = 0) st =
  let t = st.fs.(0) in
  Json.Obj
    [
      ("engine", Json.String (engine_label st));
      ("now", Json.Float t);
      ("live", Json.Int st.calls.live_count);
      ("capacity", Json.Int st.calls.cap);
      ("occupancy", Json.Float (occupancy st));
      ( "carried_avg",
        Json.Float (if t > 0.0 then st.fs.(1) /. t else 0.0) );
      ("max_concurrent", Json.Int st.max_concurrent);
      ("offered", Json.Int st.offered);
      ("accepted", Json.Int st.accepted);
      ("blocked", Json.Int st.blocked);
      ("blocked_full", Json.Int st.blocked_full);
      ("overload", Json.Int st.overload);
      ("rerouted", Json.Int st.rerouted);
      ("dropped", Json.Int st.dropped);
      ("released", Json.Int st.released);
      ("failures", Json.Int st.failures);
      ("repairs", Json.Int st.repairs);
      ("catastrophes", Json.Int st.catastrophes);
      ("events", Json.Int st.events);
      ("queue_depth", Json.Int queue_depth);
      ("decision_latency_ns", Histogram.to_json st.latency);
    ]

let handle st req =
  match req with
  | Proto.Metrics { at } ->
      advance_opt st at;
      st.emit (Proto.Snapshot { t = st.fs.(0); data = metrics_json st })
  | Proto.Hangup { id; at } -> (
      advance_opt st at;
      match Hashtbl.find_opt st.tbl id with
      | None ->
          st.emit (Proto.Error { id = Some id; message = "unknown call id" })
      | Some slot ->
          st.released <- st.released + 1;
          st.emit (Proto.Released { id; t = st.fs.(0) });
          vacate st slot;
          (* the stamp bump in free_slot invalidates the pending
             auto-hangup, if the call had one *)
          free_slot st slot)
  | Proto.Call { id; src; dst; hold; at } ->
      advance_opt st at;
      if Hashtbl.mem st.tbl id then
        st.emit
          (Proto.Error { id = Some id; message = "duplicate live call id" })
      else begin
        let t0 = Clock.now_ns () in
        Trace.span st.trace "serve.decide" (fun () ->
            decide_call st ~id ~src ~dst ~hold);
        Histogram.record st.latency (max 1 (Clock.elapsed_ns ~since:t0))
      end

let shed st ~id =
  st.offered <- st.offered + 1;
  st.overload <- st.overload + 1;
  st.emit (Proto.Overload { id; t = st.fs.(0) })

let summary st =
  Printf.sprintf
    "serve: %d decisions (%d accept, %d block, %d overload), %d rerouted, \
     %d dropped, %d released, %d failures, %d repairs, %d catastrophes, \
     sim-time %.6g, engine %s"
    st.offered st.accepted st.blocked st.overload st.rerouted st.dropped
    st.released st.failures st.repairs st.catastrophes st.fs.(0)
    (engine_label st)
