(** A named registry of counters, phase timers and gauges, serializable
    to one JSON report.

    This is the backing store of [ftnet]'s [--metrics FILE] flag: the
    CLI registers per-phase {!Timer}s and summary gauges here, library
    code increments {!Counter}s (e.g. the survivor-graph operation
    counters in the reliability layer), and the whole registry is
    dumped as a single JSON object at exit.

    Lookups are find-or-create by name under a registry mutex, so any
    domain may ask for a counter at any time; the returned counters
    are atomic.  Timers and their histograms must still be owned by
    one domain at a time (see {!Timer}).

    The {!default} registry is process-wide: library instrumentation
    that has no registry in scope (and must not change public
    signatures just to thread one) accumulates there. *)

type t

val create : unit -> t
(** A fresh, empty registry. *)

val default : t
(** The process-wide registry.  Counters here persist for the process
    lifetime; report readers should treat them as cumulative. *)

val counter : t -> string -> Counter.t
(** Find or create the counter of that name. *)

val timer : t -> string -> Timer.t
(** Find or create the phase timer of that name. *)

val set_gauge : t -> string -> float -> unit
(** Set (or overwrite) a named point-in-time value — e.g. the final
    estimate mean of a run. *)

val to_json : t -> Json.t
(** An object [{"counters": {...}, "timers": {...}, "gauges": {...}}]
    with names sorted, so reports are stable under registration
    order. *)
