(** The tree-building [Proto] codec the serve wire path replaced — a
    test oracle.

    Each function builds or reads a whole {!Ftcsn_obs.Json.t}: responses
    as a field list printed by {!Json_ref.to_string}, requests and
    responses decoded by {!Ftcsn_obs.Json.parse} and [member] lookups.
    test_serve pins [Proto]'s writer and both scanners to these byte for
    byte and diagnostic for diagnostic. *)

val response_to_string : Ftcsn_serve.Proto.response -> string
(** The response as one compact JSON object, fields in wire order. *)

val parse_request :
  string -> (Ftcsn_serve.Proto.request, string option * string) result
(** The request a line holds, or [(id, message)] as the daemon replies. *)

val response_of_string :
  string -> (Ftcsn_serve.Proto.response, string) result
(** The response a line holds, or a diagnostic. *)
