(** The topology registry: one generator signature for every network
    family in the repository.

    Each family registers a {!gen} — a name, a one-line doc string, a
    parameter schema and a [build] function — and every consumer (the
    [ftnet] CLI, the bench experiment tables, the test suites, the
    tournament) iterates the registry instead of hand-wiring
    constructors.  Registering one new family makes it buildable from
    the command line, benchmarked, smoke-tested and entered in the
    reliability tournament with no further wiring.

    {2 Spec mini-language}

    A network is denoted by a spec string

    {v FAMILY[:ARG]... v}

    where each [ARG] is either a bare integer (shorthand for [n=INT]),
    a [KEY=VALUE] pair, or a bare flag name.  Examples:

    {v benes:16        clos:n=64:rearr        multibutterfly:n=32:degree=4 v}

    [n] is the requested terminal count and is understood by every
    family; all other keys must appear in the family's parameter
    schema.  Families snap [n] to their natural grid (most round up to
    a power of two); the {!built} record reports both the requested
    and the effective terminal count so callers can warn.  Families
    with [exact_pow2 = true] refuse, rather than round, a
    non-power-of-two [n].

    All failures are reported as [Error msg] with a normalized,
    human-readable message (no exceptions escape {!build}). *)

type spec = {
  family : string;
  args : (string * string) list;
      (** in spec order; flags carry [""] as their value *)
}

val parse : string -> (spec, string) result
(** Parse a spec string.  Rejects empty components, malformed integers
    only at {!build} time (parsing is purely lexical), and duplicate
    keys. *)

val to_string : spec -> string
(** Canonical rendering: [parse (to_string s) = Ok s] for every spec
    [parse] accepts, and [to_string] of a parsed string is that string
    up to the [n=] shorthand. *)

(** {2 Generator signature} *)

type param = {
  key : string;
  pdoc : string;
  kind : [ `Int  (** integer-valued, [key=INT] *) | `Flag  (** present/absent *) ];
}

type gen = {
  name : string;  (** canonical family name, also the spec prefix *)
  aliases : string list;  (** alternative spellings accepted by {!find} *)
  doc : string;  (** one line for [ftnet topologies] *)
  params : param list;  (** schema of accepted keys besides [n] *)
  exact_pow2 : bool;
      (** refuse (rather than round) an [n] that is not a power of two *)
  build : args:(string * string) list -> n:int -> rng:Ftcsn_prng.Rng.t -> Network.t;
      (** [args] are validated against [params] before the call; [n] is
          the requested terminal count (the builder applies its own
          rounding); [rng] is consumed only by seeded-random families. *)
}

exception Spec_error of string
(** Raised by {!int_arg_opt} (and allowed from [build] bodies);
    {!build} converts it to [Error]. *)

val int_arg_opt : family:string -> (string * string) list -> string -> int option
(** Look up an integer argument, if given.
    @raise Spec_error when the value is not an integer. *)

(** {2 Registry} *)

val register : gen -> unit
(** @raise Invalid_argument when the name or an alias is already
    taken.  The built-in families of this library are registered at
    module initialisation; the paper's [ft] family registers from the
    core library via [Ftcsn.Ft_topology.install]. *)

val find : string -> gen option
(** By canonical name or alias. *)

val all : unit -> gen list
(** Every registered generator, sorted by canonical name. *)

val names : unit -> string list
(** Canonical names, sorted. *)

(** {2 Building} *)

type built = {
  gen : gen;
  spec : spec;
  net : Network.t;
  n_requested : int;
  n_effective : int;  (** [Network.n_inputs net] — differs when rounded *)
}

val build : ?n:int -> rng:Ftcsn_prng.Rng.t -> spec -> (built, string) result
(** Resolve the family, validate every argument against the schema,
    and build.  The terminal count comes from the spec's [n] argument
    when present, else from [?n]; it is an error to supply neither.
    Constructor [Invalid_argument] exceptions are converted to
    [Error "family NAME: ..."]. *)

val build_string : ?n:int -> rng:Ftcsn_prng.Rng.t -> string -> (built, string) result
(** [parse] then [build]. *)
