(** Admission control for the live daemon: decide, before any routing
    work, whether a call request is even allowed to contend for the
    fabric.

    A policy is a pure predicate over the two load signals the reactor
    can read cheaply at arrival time — fabric occupancy (live calls over
    call capacity, in [0, 1]) and the depth of the pending-request
    queue.  Shedding answers the client with an explicit [overload]
    reply instead of buffering unboundedly; this is the backpressure
    story of [ftnet serve].  New policies are values, not variants, so
    they slot in without touching the engine. *)

type verdict = Admit | Shed

type t

val name : t -> string
(** Human-readable policy description, e.g. ["max-load<0.9+queue<1024"]. *)

val decide : t -> occupancy:float -> queue_depth:int -> verdict

val max_load : float -> t
(** [max_load l] sheds when occupancy has reached [l].  Requires
    [0 < l]; [l >= 1] never sheds (a full fabric already blocks at the
    routing layer).
    @raise Invalid_argument on a non-positive or non-finite bound. *)

val queue_limit : int -> t
(** [queue_limit k] sheds when [k] requests are already pending.
    @raise Invalid_argument if [k < 1]. *)

val combine : t list -> t
(** Shed if any component sheds; [combine []] admits everything. *)
