(** ASCII table rendering for the experiment harness.

    Every experiment in EXPERIMENTS.md prints through this module so that
    paper-style rows ("n, size, size/(n log^2 n), ...") come out aligned and
    machine-greppable. *)

type align = Left | Right

type t

val create : title:string -> columns:(string * align) list -> t

val add_row : t -> string list -> unit
(** @raise Invalid_argument if the row width differs from the header. *)

val render : t -> string

val print : t -> unit
(** [render] to stdout followed by a blank line. *)

(** Cell formatting helpers. *)

val fi : int -> string

val ff : ?decimals:int -> float -> string

val fe : float -> string
(** Scientific notation with two significant decimals, e.g. ["1.23e-04"]. *)
