(** The event queue of the discrete-event engine: a binary min-heap of
    timestamped payloads with {e stable} ordering.

    Entries are ordered by [(time, seq)] where [seq] is the push serial
    number, so two events scheduled for the same instant pop in the order
    they were scheduled.  This tie-break is the determinism contract of
    the whole DES subsystem: event execution order — and therefore every
    PRNG draw made while handling events — is a pure function of the
    schedule, never of heap internals or float coincidences. *)

type 'a t

val create : ?capacity:int -> dummy:'a -> unit -> 'a t
(** Empty queue.  [dummy] is a throwaway payload used to fill unused
    slots (the heap stores payloads in a flat array); it is never
    returned by {!pop}. *)

val size : 'a t -> int

val is_empty : 'a t -> bool

val push : 'a t -> time:float -> 'a -> unit
(** Schedule a payload.  [time] must be finite;
    @raise Invalid_argument otherwise. *)

val min_time : 'a t -> float
(** Timestamp of the next event to pop.
    @raise Invalid_argument when empty. *)

val pop : 'a t -> 'a
(** Remove and return the payload with the smallest [(time, seq)] key.
    Read {!min_time} first if the timestamp is needed.
    @raise Invalid_argument when empty. *)

val nth : 'a t -> int -> 'a
(** [nth h i], for [0 <= i < size h]: the [i]-th pending payload in the
    heap's storage order, which is not pop order — for a walk over every
    pending event that pops none. *)

val clear : 'a t -> unit
(** Forget all pending events (the seq counter keeps advancing, so
    ordering stays stable across reuse). *)
