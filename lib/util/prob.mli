(** Tail bounds and interval estimates used by the reliability analyses.

    The paper's Lemmas 2–7 are all of the form "the probability of the bad
    event is at most (an explicit exponential)".  These helpers compute those
    explicit bounds so experiments can print predicted-vs-measured columns. *)

val chernoff_upper : n:int -> p:float -> k:int -> float
(** Chernoff bound on P[Bin(n,p) >= k] via relative entropy:
    exp(-n * D(k/n || p)) for k/n > p, 1.0 otherwise.  This is the style of
    estimate behind the paper's Lemma 4. *)

val wilson_interval : successes:int -> trials:int -> z:float -> float * float
(** Wilson score interval for a Bernoulli parameter; [z] is the normal
    quantile (1.96 for 95%). *)

val pow : float -> int -> float
(** [pow x k] = x^k for k >= 0 by binary exponentiation, avoiding [**]'s
    transcendental path on exact small cases. *)
