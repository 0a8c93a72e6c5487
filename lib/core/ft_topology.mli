(** Registers the paper's fault-tolerant network 𝒩 in the
    {!Ftcsn_networks.Topology} registry, as family ["ft"] (alias
    ["paper"]).

    The registration lives here rather than in [lib/networks] because
    the dependency points the other way: the core library builds 𝒩
    {e from} the networks library.  Call {!install} once at program
    start (the CLI, the bench harness and the tournament all do); the
    call is idempotent, and making it explicit keeps the registration
    robust against the native linker dropping modules whose only
    effect is a side effect at initialisation. *)

val install : unit -> unit
(** Register the ["ft"] family if it is not yet registered.

    Spec parameters: [gamma] (oversizing levels), [degree] (expander
    degree) and [grid-stages] override the corresponding
    {!Ft_params.scaled} defaults; [n] rounds up to a power of two
    (u = ⌈log₂ n⌉, so [ftnet --net ft -n 8] builds the u = 3
    network). *)
