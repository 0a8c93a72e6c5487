(** Structural metrics for networks-as-graphs: degree profiles, diameter
    estimates, stage balance.  Used by the CLI's [build] report and the
    experiment harness when auditing constructions. *)

type degree_profile = {
  min_in : int;
  max_in : int;
  min_out : int;
  max_out : int;
  mean_in : float;
  mean_out : float;  (** equals mean_in: both are m/n *)
}

val degree_profile : Digraph.t -> degree_profile

val directed_eccentricity : Digraph.t -> int -> int
(** Largest finite directed distance from the vertex. *)

val diameter_lower_bound :
  Digraph.t -> samples:int -> rng:Ftcsn_prng.Rng.t -> int
(** Max eccentricity over sampled sources (a lower bound on the directed
    diameter over reachable pairs). *)
