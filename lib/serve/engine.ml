module Network = Ftcsn_networks.Network
module Greedy = Ftcsn_routing.Greedy
module Rng = Ftcsn_prng.Rng
module Heap = Ftcsn_des.Heap
module Dist = Ftcsn_des.Dist
module Fabric = Ftcsn_des.Fabric
module Json = Ftcsn_obs.Json
module Trace = Ftcsn_obs.Trace
module Histogram = Ftcsn_obs.Histogram
module Clock = Ftcsn_obs.Clock

(* The switches, calls, the failure clock and the one event heap live in
   Ftcsn_des.Fabric, the same core Traffic drives.  What this engine
   adds: external requests instead of a Poisson clock, wire call names,
   the fault substream, replies and counters. *)

type t = {
  fab : Fabric.t;
  emit : Proto.response -> unit;
  trace : Trace.sink option;
  holding : Dist.holding;
  crng : Rng.t;  (* request stream: endpoint picks, holding draws *)
  frng : Rng.t;  (* fault stream: every draw of the failure clock *)
  name : string array;  (* slot -> wire call id; "" when free *)
  tbl : (string, int) Hashtbl.t;  (* live call id -> slot *)
  latency : Histogram.t;  (* per-decision wall nanoseconds *)
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
}

let create ?(engine = `Bfs) ?(holding = Dist.Exponential) ?(mtbf = infinity)
    ?(mttr = 10.0) ?trace ~emit ~rng net =
  if not (mtbf > 0.0) then invalid_arg "Engine.create: mtbf must be > 0";
  if not (mttr > 0.0) then invalid_arg "Engine.create: mttr must be > 0";
  let fab = Fabric.create ~engine ~mtbf ~mttr net in
  (* the failure clock draws only from its own substream, so no request
     decision can move a failure *)
  let frng = Rng.substream rng 1 in
  Fabric.start_clock fab frng;
  {
    fab;
    emit;
    trace;
    holding;
    crng = Rng.substream rng 0;
    frng;
    name = Array.make fab.Fabric.cap "";
    tbl = Hashtbl.create 1024;
    latency = Histogram.create ();
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
  }

let now st = st.fab.fs.(0)
let occupancy st = float_of_int st.fab.live_count /. float_of_int st.fab.cap
let decisions st = st.offered
let engine_label st = Greedy.engine_name st.fab.router

(* a freed slot's call name leaves the live table *)
let forget st slot =
  Hashtbl.remove st.tbl st.name.(slot);
  st.name.(slot) <- ""

let note_release st slot =
  st.released <- st.released + 1;
  st.emit (Proto.Released { id = st.name.(slot); t = st.fab.fs.(0) });
  forget st slot

(* ---- DES events ---- *)

(* the client hears about every call the failure severed *)
let report_sever st e =
  let f = st.fab in
  for j = 0 to Fabric.sever f e - 1 do
    let slot = f.severed.(j) lsr 1 in
    let id = st.name.(slot) and t = f.fs.(0) in
    if f.severed.(j) land 1 = 1 then begin
      st.rerouted <- st.rerouted + 1;
      st.emit (Proto.Rerouted { id; t; path_len = f.c_plen.(slot) - 1 })
    end
    else begin
      st.dropped <- st.dropped + 1;
      st.emit (Proto.Dropped { id; t });
      forget st slot
    end
  done

(* a discarded tick is no event *)
let handle_tick st =
  let r = Fabric.tick st.fab st.frng in
  if r <> Fabric.discarded then begin
    st.events <- st.events + 1;
    st.failures <- st.failures + 1;
    if r land 3 = Fabric.shorted && not st.cat_live then begin
      (* Lemma-7 catastrophe: report it, keep serving — repairs can
         clear it, and the client deserves the signal either way *)
      st.cat_live <- true;
      st.catastrophes <- st.catastrophes + 1;
      st.emit (Proto.Catastrophe { t = st.fab.fs.(0) })
    end;
    report_sever st (r lsr 2)
  end

let handle_repair st e =
  st.repairs <- st.repairs + 1;
  Fabric.repair st.fab st.frng e;
  if st.cat_live && not (Fabric.terminals_shorted st.fab) then
    st.cat_live <- false

(* serve schedules no arrivals, so tag 0 is only the tick *)
let dispatch st ev =
  if ev = Fabric.ev_tick then handle_tick st
  else begin
    st.events <- st.events + 1;
    if ev land 3 = 1 then begin
      let slot = Fabric.hangup st.fab (ev lsr 2) in
      if slot >= 0 then note_release st slot
    end
    else handle_repair st (ev lsr 2)
  end

let next_event_time st =
  let h = st.fab.heap in
  if Heap.is_empty h then infinity else Heap.min_time h

(* fire every event due by [target] in the heap's (time, seq) order *)
let rec fire st target =
  let h = st.fab.heap in
  if (not (Heap.is_empty h)) && Heap.min_time h <= target then begin
    let t = Heap.min_time h in
    let ev = Heap.pop h in
    Fabric.advance st.fab t;
    dispatch st ev;
    fire st target
  end

let advance st target =
  if target > st.fab.fs.(0) then begin
    fire st target;
    Fabric.advance st.fab target
  end

let advance_opt st = function Some at -> advance st at | None -> ()

(* ---- requests ---- *)

let out_of_range bound = function
  | Some i -> i < 0 || i >= bound
  | None -> false

let decide_call st ~id ~src ~dst ~hold =
  let f = st.fab in
  if out_of_range (Network.n_inputs f.net) src then
    st.emit
      (Proto.Error { id = Some id; message = "input index out of range" })
  else if out_of_range (Network.n_outputs f.net) dst then
    st.emit
      (Proto.Error { id = Some id; message = "output index out of range" })
  else begin
  st.offered <- st.offered + 1;
  let t = f.fs.(0) in
  let block reason full =
    st.blocked <- st.blocked + 1;
    if full then st.blocked_full <- st.blocked_full + 1;
    st.emit (Proto.Block { id; t; reason })
  in
  let resolve pool = function
    (* draws in fixed order: input pick then output pick, only when the
       request leaves the endpoint to the controller *)
    | Some i -> if Fabric.is_idle pool i then `Idle i else `Busy
    | None ->
        if Fabric.idle pool = 0 then `Busy else `Idle (Fabric.draw st.crng pool)
  in
  match resolve f.idle_in src with
  | `Busy -> block Proto.Full true
  | `Idle i -> (
      match resolve f.idle_out dst with
      | `Busy -> block Proto.Full true
      | `Idle o ->
          let slot = Fabric.connect f i o in
          if slot < 0 then block Proto.No_path false
          else begin
            st.name.(slot) <- id;
            Hashtbl.replace st.tbl id slot;
            let h =
              match hold with
              | Some h -> h
              | None -> Dist.holding_time st.crng st.holding
            in
            Fabric.hang_up_after f slot h;
            st.accepted <- st.accepted + 1;
            st.emit (Proto.Accept { id; t; path_len = f.c_plen.(slot) - 1 })
          end)
  end

let metrics_json ?(queue_depth = 0) st =
  let f = st.fab in
  let t = f.fs.(0) in
  Json.Obj
    [
      ("engine", Json.String (engine_label st));
      ("now", Json.Float t);
      ("live", Json.Int f.live_count);
      ("capacity", Json.Int f.cap);
      ("occupancy", Json.Float (occupancy st));
      ( "carried_avg",
        Json.Float (if t > 0.0 then f.fs.(1) /. t else 0.0) );
      ("max_concurrent", Json.Int f.max_concurrent);
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
      st.emit (Proto.Snapshot { t = st.fab.fs.(0); data = metrics_json st })
  | Proto.Hangup { id; at } -> (
      advance_opt st at;
      match Hashtbl.find_opt st.tbl id with
      | None ->
          st.emit (Proto.Error { id = Some id; message = "unknown call id" })
      | Some slot ->
          (* freeing the slot makes its pending auto-hangup stale *)
          Fabric.release st.fab slot;
          note_release st slot)
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
  st.emit (Proto.Overload { id; t = st.fab.fs.(0) })

let summary st =
  Printf.sprintf
    "serve: %d decisions (%d accept, %d block, %d overload), %d rerouted, \
     %d dropped, %d released, %d failures, %d repairs, %d catastrophes, \
     sim-time %.6g, engine %s"
    st.offered st.accepted st.blocked st.overload st.rerouted st.dropped
    st.released st.failures st.repairs st.catastrophes st.fab.fs.(0)
    (engine_label st)
