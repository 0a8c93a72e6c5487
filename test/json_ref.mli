(** The three-step JSON printer {!Ftcsn_obs.Json} replaced — a test
    oracle.

    It prints a float by rendering [%.12g], [%.15g] and [%.17g] in turn
    and keeping the first that parses back, and escapes strings one byte
    at a time.  test_obs pins [Json.to_string] to it byte for byte on
    adversarial floats and random trees; test_serve's response-writer
    oracle prints through it. *)

val float_repr : float -> string
(** The first of [%.12g], [%.15g], [%.17g] that parses back to the
    float; ["null"] when it is not finite. *)

val to_string : Ftcsn_obs.Json.t -> string
(** Compact rendering, with floats by {!float_repr}. *)
