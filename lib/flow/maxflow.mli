(** Dinic's maximum-flow algorithm on integer capacities.

    The workhorse behind every Menger certificate in this repository:
    superconcentrator checks, majority-access counting, and batch routing
    all reduce to unit-capacity flows, for which Dinic runs in
    O(E sqrt(V)). *)

type t

val create : n:int -> t
(** Flow network on vertices [0, n). *)

val vertex_count : t -> int

val add_edge : t -> src:int -> dst:int -> cap:int -> int
(** Add a directed capacitated arc; returns an arc handle usable with
    {!flow_on}.  The reverse residual arc is managed internally. *)

val set_cap : t -> int -> int -> unit
(** [set_cap t a cap] resets the forward capacity of arc handle [a] to
    [cap] and zeroes its residual twin — the arena-reuse hook: reset every
    arc of a prebuilt network, then run {!max_flow} again. *)

val max_flow : t -> source:int -> sink:int -> int
(** Value of a maximum [source]→[sink] flow.  Capacities are consumed; to
    reuse the instance, restore every arc with {!set_cap} first. *)

val flow_on : t -> int -> int
(** Flow routed on the given arc handle (after {!max_flow}). *)
