(** Minimal JSON values: construction, compact printing and parsing.

    The observability layer is zero-dependency, so it carries its own JSON
    support rather than pulling in [yojson].  The dialect is the ordinary
    JSON interchange subset: no comments, no trailing commas, object keys
    are unescaped on access.  [to_string] and [parse] round-trip every
    value this library itself produces; that property is what the
    trace-event serialization tests lean on. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list
      (** Fields are kept in construction order; [to_string] prints them
          in that order and duplicate keys are not checked. *)

val to_string : t -> string
(** Compact (single-line, no insignificant whitespace) rendering.

    Strings are escaped per RFC 8259 (backslash escapes for the quote
    and backslash characters, [\u00XX] escapes for control
    characters); other bytes pass through untouched, so UTF-8
    text survives.  A float prints as the first of [%.12g], [%.15g] and
    [%.17g] that parses back to the identical IEEE value.  That is not
    always the shortest round-tripping form ([0.1 +. 0.7] prints as
    [0.79999999999999993], although 16 digits would parse back), and it
    stays: the serve stream's goldens and digests pin its bytes.
    Non-finite floats render as [null] since JSON cannot represent
    them. *)

val write : Buffer.t -> t -> unit
(** [write b v] appends [to_string v] to [b]. *)

val write_string : Buffer.t -> string -> unit
(** [write_string b s] appends [to_string (String s)] to [b]. *)

val write_float : Buffer.t -> float -> unit
(** [write_float b f] appends [to_string (Float f)] to [b].  One [%.17g]
    conversion settles most values: a shorter precision is rendered and
    parsed back only when an exact test on those 17 digits leaves it
    open. *)

val parse : string -> (t, string) result
(** Parse one complete JSON value; trailing content after it (other
    than whitespace) is an error.  Numbers containing ['.'], ['e'] or
    ['E'] parse as {!Float}, all others as {!Int} (falling back to
    {!Float} if the literal overflows the native [int] range).  The
    error string carries a character offset. *)

val member : string -> t -> t option
(** [member k (Obj fields)] is the first binding of [k]; [None] on
    missing keys and non-object values. *)

val members : string array -> string -> (t option array, string) result
(** [members keys s] is [parse s] with each key of [keys] looked up by
    {!member}, in order.  A compact flat object (no whitespace, every key
    in [keys], every value an escape-free string or a number) is read in
    one pass without building the tree; any other input goes through
    {!parse}, so errors are {!parse}'s. *)

val to_int : t -> int option
(** [Int n] gives [n]; a {!Float} that is exactly integral is accepted
    too (parsing may legally return either for a whole number). *)

val to_float : t -> float option
(** [Float x] gives [x]; [Int n] gives [float_of_int n]. *)

val to_str : t -> string option
(** The payload of a [String]; [None] otherwise. *)
