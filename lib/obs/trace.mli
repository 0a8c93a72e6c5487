(** Structured JSONL tracing for Monte-Carlo runs.

    A trace is a stream of timestamped events, one compact JSON object
    per line, written while a simulation runs: span begin/end markers
    around coarse phases, one {!constructor-Chunk} event per consumed
    work unit of the trial engine (carrying the worker domain id, the
    chunk's wall-clock cost and its RNG substream range), every
    adaptive-stopping decision with its Wilson half-width, and run
    begin/end markers tying them together.

    {2 Determinism}

    Tracing is strictly {e observational}: no event ever touches a
    PRNG stream, and the trial engine emits events only on the
    scheduling domain, at chunk granularity, after a chunk's results
    are already fixed.  Estimates are therefore bit-identical with
    tracing enabled or disabled, at every job count — a property
    pinned by the test suite.

    {2 Concurrency}

    A {!sink} is mutex-guarded, so spans may be emitted from any
    domain; events are written whole-line-at-a-time, so a JSONL
    consumer never sees a torn line.  Timestamps come from the
    monotonized {!Clock}, so within one sink they are non-decreasing
    in emission order. *)

type event =
  | Span_begin of { span : int; name : string }
      (** A named phase opened; [span] pairs it with its [Span_end]. *)
  | Span_end of { span : int; name : string; elapsed_ns : int }
  | Run_begin of {
      run : int;  (** fresh id pairing all events of one engine run *)
      label : string;  (** workload name, e.g. ["pipeline.survival"] *)
      cap : int;  (** trial cap for the run *)
      chunk : int;  (** trials per work unit *)
      jobs : int;  (** worker domains *)
      target_ci : float option;  (** adaptive-stopping half-width target *)
      min_trials : int;  (** floor before stopping is considered *)
    }
  | Chunk of {
      run : int;
      lo : int;
      hi : int;
          (** the chunk covered trials — equivalently RNG substream
              ids — [lo] inclusive to [hi] exclusive *)
      domain : int;  (** integer id of the executing domain *)
      elapsed_ns : int;  (** wall-clock cost of executing the chunk *)
      successes : int option;
          (** Bernoulli successes in the chunk; [None] for map-reduce
              and search workloads *)
    }
  | Stop_check of {
      run : int;
      trials : int;  (** trials consumed when the check ran *)
      successes : int;
      half_width : float;  (** Wilson 95% half-width at that point *)
      target : float;
      stop : bool;  (** whether the run stopped here *)
    }
  | Run_end of {
      run : int;
      executed : int;  (** trials actually consumed *)
      successes : int option;
      elapsed_ns : int;
    }

(** {2 Serialization} *)

val event_to_string : ts_ns:int -> event -> string
(** One JSONL line, without the trailing newline: a JSON object with a
    [ts_ns] field plus an [ev] tag ([span_begin], [span_end],
    [run_begin], [chunk], [stop_check], [run_end]) and the event's own
    fields ([null] for an absent option); float fields round-trip
    exactly through {!Json.parse}. *)

(** {2 Sinks} *)

type sink

val to_channel : out_channel -> sink
(** Events are rendered to JSONL lines on the channel.  {!close}
    flushes but does not close the channel (the opener owns it). *)

val memory : unit -> sink * (unit -> (int * event) list)
(** An in-process sink plus a getter returning everything emitted so
    far, in emission order — used by the bench harness and tests. *)

val emit : sink -> event -> unit
(** Timestamp the event with {!Clock.now_ns} and record it. *)

val fresh_id : sink -> int
(** A sink-unique positive id for spans and runs (atomic). *)

val close : sink -> unit
(** Flush buffered output.  Emitting after [close] is permitted. *)

(** {2 Convenience} *)

val span : sink option -> string -> (unit -> 'a) -> 'a
(** [span sink name f] wraps [f] in [Span_begin]/[Span_end] events
    (emitting the end marker also on exceptional exit); with [None]
    it is exactly [f ()], so call sites need no case split on whether
    tracing is active. *)
