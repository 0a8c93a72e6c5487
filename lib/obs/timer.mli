(** Stopwatches and accumulating phase timers.

    Two layers:

    - a {!stopwatch} is just a captured {!Clock} reading — start one,
      ask for the elapsed nanoseconds;
    - a {!t} accumulates many timed sections of the same phase
      ("build-network", "estimate", …) into a log-scaled
      {!Histogram}, giving count, total, mean, max and quantiles for
      the phase.

    An accumulator inherits {!Histogram}'s threading discipline: it
    must be owned by one domain at a time.  Stopwatches are immutable
    captures and safe anywhere. *)

type stopwatch

val start : unit -> stopwatch
(** Capture the current {!Clock} reading. *)

val elapsed_ns : stopwatch -> int
(** Nanoseconds since [start]; non-negative. *)

type t
(** An accumulator of timed sections. *)

val create : unit -> t

val time : t -> (unit -> 'a) -> 'a
(** Run the thunk and record its wall-clock duration — also on
    exceptional exit, so a failing phase still shows up in the
    report. *)

val count : t -> int
(** Number of recorded sections. *)

val total_ns : t -> int
(** Summed duration of all recorded sections. *)

val histogram : t -> Histogram.t
(** The underlying histogram (shared, not a copy). *)

val to_json : t -> Json.t
(** Summary object: [count], [total_ns], [mean_ns], [max_ns],
    [p50_ns], [p99_ns]. *)
