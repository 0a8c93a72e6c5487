(** The live switch controller: the DES traffic engine turned
    inside-out.

    Where [Ftcsn_des.Traffic] generates its own Poisson arrivals and
    reports a batch summary, this engine takes each arrival from the
    outside as a {!Proto.request} and answers through an [emit]
    callback, while switch failures and repairs keep firing in virtual
    time between requests.  Both engines drive the same
    {!Ftcsn_des.Fabric}: idle-terminal pools, the structure-of-arrays
    call store with stamp-keyed hangup invalidation, [Greedy.route_into]
    over fault masks, incremental Lemma-7 catastrophe detection, the
    fabric-wide failure clock ({!Ftcsn_des.Fabric.tick}), and one
    [(time, seq)] event heap holding hangups, repairs and the clock's
    tick alike, fired by {!Ftcsn_des.Fabric.fire}.  Advancing to a
    request's time fires every event due by then; this engine's
    handlers only report what a failure severed, a catastrophe, a
    released call and a cleared catastrophe, and its [failures],
    [repairs] and [events] metrics are the fabric's counters.  A
    decision allocates only its protocol strings: steady-state
    allocation per decision is flat over a 10^8-call soak.

    {2 Determinism}

    The response stream is a pure function of (network, seed, options,
    request stream).  Endpoint picks and holding-time draws for
    requests come from the request substream ([Rng.substream rng 0]) in
    request order.  The failure clock draws everything it draws (each
    tick's delay, switch pick, open/closed coin and repair time, in the
    order {!Ftcsn_des.Fabric} documents) from one fault substream
    ([Rng.substream rng 1]), and which switch a tick fails depends only
    on earlier failures and repairs, so the fault schedule is
    independent of request decisions: whether a call is accepted,
    blocked or shed never moves a failure.  A tick that lands on a
    failed switch is discarded and does not count in the [events]
    metric. *)

type t

val create :
  ?engine:Ftcsn_routing.Greedy.engine ->
  ?holding:Ftcsn_des.Dist.holding ->
  ?mtbf:float ->
  ?mttr:float ->
  ?trace:Ftcsn_obs.Trace.sink ->
  emit:(Proto.response -> unit) ->
  rng:Ftcsn_prng.Rng.t ->
  Ftcsn_networks.Network.t ->
  t
(** A controller at virtual time 0 with an idle fabric.  [mtbf] is the
    per-switch mean time between failures ([infinity], the default,
    disables the fault process); [mttr] the mean repair time.  [trace]
    emits one JSONL span per call decision.  [emit] receives every
    response, including asynchronous ones (reroutes, drops, releases)
    produced while virtual time advances.
    @raise Invalid_argument on non-positive [mtbf]/[mttr]. *)

val handle : t -> Proto.request -> unit
(** Advance virtual time to the request's [at] (never backwards), fire
    everything due, then decide and answer via [emit].  Call requests
    get exactly one of [accept]/[block]; unknown hangup ids and
    duplicate live call ids get [error] replies. *)

val shed : t -> id:string -> unit
(** Record an admission rejection and emit the [overload] reply — the
    reactor calls this instead of {!handle} when the policy says
    [Admission.Shed], so the conservation law
    [offered = accepted + blocked + overload] is kept in one place. *)

val advance : t -> float -> unit
(** Advance virtual time (monotone; earlier targets are no-ops), firing
    due failure/repair/hangup events — the wall-clock tick of the
    reactor between requests. *)

val next_event_time : t -> float
(** Virtual time of the next pending DES event, or [infinity] — the
    reactor's poll timeout. *)

val now : t -> float

val occupancy : t -> float
(** Live calls over call capacity, in [0, 1] — the admission signal. *)

val decisions : t -> int
(** Call requests decided so far (accepted + blocked + shed). *)

val metrics_json : ?queue_depth:int -> t -> Ftcsn_obs.Json.t
(** Snapshot of the live counters: offered/accepted/blocked/overload
    (conserving), reroutes, drops, releases, failure-process counts,
    instantaneous and time-averaged carried load, and the per-decision
    latency histogram (nanoseconds, with quantiles). *)

val summary : t -> string
(** One human-readable line for stderr at shutdown. *)

val engine_label : t -> string
(** The routing engine that actually engaged (["bfs"|"staged"|"loop"]). *)
