(** The switch-and-call state of a circuit-switching network under
    faults: the one state machine both {!Traffic} (Poisson arrivals,
    batch-means statistics) and [Ftcsn_serve.Engine] (external requests,
    protocol replies) drive.

    A fabric owns the idle-terminal pools, a structure-of-arrays call
    store, the vertex owner index, per-switch fault state with faulty
    degrees and {!Ftcsn_reliability.Dyn_conn}, the fault-masked
    {!Ftcsn_routing.Greedy} router with its route buffer, the
    [∫ live·dt] accumulator, the failure clock, and the [(time, seq)]
    event {!Heap} with its int event encoding.  Arrival processes,
    statistics and replies stay in the engines.

    The call path — {!connect}, {!sever} with its reroute, {!release},
    {!hangup} — allocates nothing once each slot's grow-once path
    buffers have reached the longest path it has carried.

    {2 The failure clock}

    Every switch fails independently at rate [1/mtbf].  Rather than one
    exponential clock per switch, the fabric runs one clock for the
    whole network: m independent clocks of rate [1/mtbf] add up to one
    Poisson stream of rate [m/mtbf] whose events land on a uniformly
    chosen switch.  Each event of that stream is a {e tick}
    ({!ev_tick}).  A tick that lands on a normal switch fails it; a tick
    that lands on a switch that has already failed is {e discarded}.
    Discarding (thinning) leaves each normal switch failing at exactly
    rate [1/mtbf], so this samples the per-switch process itself, not an
    approximation of it, while the heap holds one tick instead of m
    clocks.  A discarded tick changes nothing, and the engines count it
    as no event.

    When every switch has failed nothing can fail, so the clock stops:
    the tick is not re-armed, and the next {!repair} re-arms it (by
    memorylessness this too is exact).  With [mttr = infinity] the heap
    therefore runs dry after the m-th failure.

    {2 Draw order}

    The fabric never owns a PRNG: {!start_clock}, {!tick} and {!repair}
    draw from the stream the caller passes ([Traffic]'s trial stream,
    [Serve]'s fault substream), in a fixed order.  {!start_clock} draws
    the first tick's delay.  Each {!tick} draws
    + the switch pick;
    + only if that switch is normal, the open/closed coin and then the
      repair delay (when [mttr] is finite);
    + the next tick's delay (unless the clock stops).

    A {!repair} draws only when it restarts a stopped clock: the next
    tick's delay.

    {2 Two meanings of "dropped"}

    [Traffic]'s [dropped] counts every severed call, rerouted or not;
    [Serve]'s counts only the severed calls that could not be rerouted.
    Both read the same {!sever} outcomes; the difference is existing
    output and is kept. *)

type pool
(** An idle-terminal index pool: O(1) claim and return, and an exactly
    uniform draw over the idle set. *)

val idle : pool -> int
(** How many terminals are idle. *)

val draw : Ftcsn_prng.Rng.t -> pool -> int
(** One uniform idle index (one draw).  Requires [idle pool > 0]. *)

val is_idle : pool -> int -> bool

type t = private {
  net : Ftcsn_networks.Network.t;
  mtbf : float;  (** per-switch mean time between failures *)
  mttr : float;  (** per-switch mean time to repair *)
  heap : int Heap.t;  (** the event queue; see the [ev_*] encoding *)
  router : Ftcsn_routing.Greedy.t;
  route_buf : int array;
  fstate : Ftcsn_reliability.Fault.state array;  (** per switch (edge) *)
  faulty_deg : int array;  (** failed switches incident to each vertex *)
  allowed : int -> bool;
      (** the router's vertex mask: terminals, and internal vertices with
          no failed incident switch *)
  edge_ok : int -> bool;  (** the router's switch mask: normal switches *)
  conn : Ftcsn_reliability.Dyn_conn.t;
  owner : int array;  (** vertex -> slot of the call holding it, or -1 *)
  idle_in : pool;
  idle_out : pool;
  cap : int;  (** call slots: [min n_inputs n_outputs] *)
  c_in : int array;  (** slot -> input index (not vertex id) *)
  c_out : int array;  (** slot -> output index *)
  c_stamp : int array;  (** bumps each time the slot is freed *)
  c_plen : int array;  (** path length in vertices *)
  c_path : int array array;  (** path vertices, [c_plen] of them *)
  c_edges : int array array;  (** the switch of each hop, [c_plen - 1] *)
  c_prev : int array;
  c_next : int array;  (** live-list links; [c_next] doubles as the freelist *)
  mutable live_head : int;
  mutable live_count : int;
  mutable free_head : int;
  mutable max_concurrent : int;
  mutable failed : int;
      (** switches the failure clock has failed and {!repair} has not
          yet repaired *)
  severed : int array;  (** the last {!sever}'s outcomes *)
  fs : float array;  (** [fs.(0)] = now, [fs.(1)] = [∫ live·dt] since reset *)
}
(** Fields are exposed read-only so the engines' hot loops index the
    arrays directly.  Engines write only [fs.(1)], to restart the
    integral. *)

val create :
  ?engine:Ftcsn_routing.Greedy.engine ->
  mtbf:float ->
  mttr:float ->
  Ftcsn_networks.Network.t ->
  t
(** An idle, fault-free fabric at time 0 with an empty heap sized for
    one hangup per call slot, the next arrival and the tick; it grows by
    doubling. *)

(** {2 Events}

    Heap payloads are unboxed ints [(arg lsl 2) lor tag].  Tag 0 holds
    the two argument-free events, {!ev_arrival} and {!ev_tick}; tag 1
    is a hangup keyed by slot and stamp ({!hang_up_after}), and tag 3 a
    repair of the switch in [arg] ({!repair}). *)

val ev_arrival : int

val ev_tick : int
(** The failure clock's tick. *)

val advance : t -> float -> unit
(** Move [now] forward to [t] (never back), integrating [live·dt]. *)

val schedule : t -> float -> int -> unit
(** [schedule f dt ev] pushes [ev] at [now + dt]. *)

(** {2 Calls} *)

val connect : t -> int -> int -> int
(** [connect f i o] routes idle input index [i] to idle output index
    [o] and places the call: its slot, or [-1] when blocked. *)

val place_path : t -> int -> int -> int list -> int
(** As {!connect}, on a path the router already holds busy; cold path. *)

val release : t -> int -> unit
(** Take the call in a slot off the fabric and free the slot for good,
    which makes its pending hangup stale. *)

val hang_up_after : t -> int -> float -> unit
(** Schedule the call's hangup event, keyed by slot and stamp. *)

val hangup : t -> int -> int
(** Fire a hangup event's key: the released slot, or [-1] when the key
    is stale (the call was already released or dropped). *)

val live_slots : t -> int list

val unroute : t -> int -> unit
(** Release a live call's path in the router and the owner index only
    (a rearrangement re-lays every call before any goes live again). *)

val relay : t -> int -> int list -> unit
(** Put a live call on a new path and mark it busy in the router. *)

(** {2 Faults} *)

val shorted : int
(** The outcome codes of {!tick} and {!mark_failed} are 0 for an open
    failure, 1 for a closed one, and [shorted] for a closed one that put
    two terminals in one contraction class (the Lemma 7 catastrophe). *)

val mark_failed : t -> int -> closed:bool -> int
(** The state update of a switch failure, with no draw: fault state,
    faulty degrees, and for a closed failure {!Ftcsn_reliability.Dyn_conn}.
    Returns the outcome code.  Does not sever. *)

val mark_repaired : t -> int -> unit
(** The state update of a repair, with no draw. *)

val start_clock : t -> Ftcsn_prng.Rng.t -> unit
(** Schedule the failure clock's first tick (one draw), when [mtbf] is
    finite and the network has a switch; otherwise do nothing. *)

val discarded : int
(** [-1], what {!tick} returns for a discarded tick. *)

val tick : t -> Ftcsn_prng.Rng.t -> int
(** Fire a tick: pick a switch [e] uniformly.  If [e] is normal, draw the
    open/closed coin, schedule its repair (when [mttr] is finite) and
    {!mark_failed} it; then re-arm the clock unless every switch is down.
    Returns {!discarded} when [e] had already failed, else
    [(e lsl 2) lor outcome]; the caller decides whether to {!sever}. *)

val repair : t -> Ftcsn_prng.Rng.t -> int -> unit
(** {!mark_repaired} a switch a {!tick} failed, re-arming the clock if it
    had stopped. *)

val terminals_shorted : t -> bool

val sever : t -> int -> int
(** [sever f e] takes off the calls (at most one per endpoint of [e])
    whose path crosses the failed switch [e] and reroutes each over its
    own endpoint pair.  Returns how many it severed, [k]; for [j < k],
    [severed.(j)] is [(slot lsl 1) lor 1] if the call was rerouted in
    place (same slot, same stamp, so its hangup stays valid) and
    [slot lsl 1] if it was dropped and its slot freed. *)
