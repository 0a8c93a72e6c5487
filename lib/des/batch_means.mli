(** Steady-state interval estimation by the method of batch means.

    A DES run produces one long {e correlated} sequence of observations
    (consecutive calls share the network state), so the i.i.d. Wilson
    interval of {!Ftcsn_sim.Trials} does not apply.  The standard remedy
    (Law & Kelton): discard a warm-up prefix, split the remaining
    observations into [b] equal batches, and treat the batch means as
    approximately independent normal samples — a Student-t interval over
    them is then asymptotically valid despite the in-batch correlation.

    The accumulator is streaming and allocation-free after creation, so
    it can sit inside the engine's per-call hot path. *)

type t

val create : batches:int -> total:int -> t
(** Accumulator for [total] observations split into [batches] equal
    batches (the remainder, [total mod batches], spills into the last).
    Requires [batches >= 2] and [total >= batches]. *)

val add : t -> float -> unit
(** Append one observation (e.g. a 0/1 blocking indicator).
    Observations beyond [total] extend the last batch. *)

val count : t -> int
(** Observations seen so far. *)

val means : t -> float array
(** Means of the batches completed so far (a fresh array). *)

type summary = {
  mean : float;  (** grand mean of the batch means *)
  ci_low : float;  (** Student-t 95% interval, lower end *)
  ci_high : float;
  batches : int;  (** batch means the interval is built on *)
  count : int;  (** observations behind those batches *)
}

val summary : t -> summary
(** Interval over the completed batches.
    @raise Invalid_argument with fewer than two completed batches. *)

val of_means : ?count:int -> float array -> summary
(** Student-t 95% interval treating each array element as one batch mean —
    the pooling hook for multi-replication estimates (each replication
    contributes its batch means to one pooled sample).  [count] reports
    the underlying observation count in the summary (defaults to the
    array length).  @raise Invalid_argument on fewer than two values. *)

val pp : Format.formatter -> summary -> unit
(** Render as ["mean [lo, hi] (b batches / n obs)"]. *)
