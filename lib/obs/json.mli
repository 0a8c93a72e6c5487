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
    text survives.  Floats print with the shortest [%g] precision that
    parses back to the identical IEEE value (17 significant digits in
    the worst case); non-finite floats render as [null] since JSON
    cannot represent them. *)

val parse : string -> (t, string) result
(** Parse one complete JSON value; trailing content after it (other
    than whitespace) is an error.  Numbers containing ['.'], ['e'] or
    ['E'] parse as {!Float}, all others as {!Int} (falling back to
    {!Float} if the literal overflows the native [int] range).  The
    error string carries a character offset. *)

val member : string -> t -> t option
(** [member k (Obj fields)] is the first binding of [k]; [None] on
    missing keys and non-object values. *)

val to_int : t -> int option
(** [Int n] gives [n]; a {!Float} that is exactly integral is accepted
    too (parsing may legally return either for a whole number). *)

val to_float : t -> float option
(** [Float x] gives [x]; [Int n] gives [float_of_int n]. *)

val to_str : t -> string option
(** The payload of a [String]; [None] otherwise. *)
