(** Survivor-graph semantics of a fault pattern (paper, §2).

    Applying a pattern to a graph G yields the random instance: closed
    failures contract their endpoints, open failures delete their edges,
    and the question of §3 is whether the {e normal-state} edges of the
    instance still contain the desired network.  No quotient graph is
    materialised: the contraction classes live in a {!Scratch.t}
    union-find, and routing runs over the original CSR with failed edges
    masked.  All per-trial state lives in the caller's workspace, so
    repeated trials allocate nothing; the workspace must have been
    created on the same graph the pattern describes.

    Calls to {!apply_into}, {!shorted_by_closure_into} and
    {!connected_ignoring_opens_into} — the inner loops of every
    stochastic reliability estimate — are counted in the process-wide
    [Ftcsn_obs.Metrics.default] registry (names [survivor.apply],
    [survivor.shorted_by_closure] and
    [survivor.connected_ignoring_opens]), which is what
    [ftnet --metrics] reports.  The counters are atomic and write-only,
    so instrumentation never perturbs results. *)

val apply_into : Scratch.t -> Fault.pattern -> unit
(** Contract the pattern's closed-failure edges into the workspace's
    union-find (after a reset).  Afterwards the workspace answers the
    contraction queries below. *)

val terminals_distinct_into : Scratch.t -> int list -> bool
(** True iff no two of the given original vertices were contracted
    together by the last {!apply_into} — the event bounded by the
    paper's Lemma 7. *)

val merged_pairs_into : Scratch.t -> int list -> (int * int) list
(** The pairs of given terminals that the last {!apply_into} contracted
    together: a terminal pairs with the most recent earlier terminal of
    its class, in terminal order.  The result list is the only
    allocation. *)

val shorted_by_closure_into :
  Scratch.t -> Fault.pattern -> a:int -> b:int -> bool
(** True iff vertices [a] and [b] are connected using closed-failure
    edges only (ignoring direction) — the two-terminal "short" event of
    Proposition 1.  Reloads the workspace union-find. *)

val connected_ignoring_opens_into :
  Scratch.t -> Fault.pattern -> a:int -> b:int -> bool
(** True iff a directed path of non-open edges leads from [a] to [b] —
    the complement of the two-terminal "open" event — as a BFS over the
    workspace graph with open edges masked. *)
