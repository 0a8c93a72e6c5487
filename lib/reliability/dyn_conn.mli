(** Incremental/decremental closed-failure connectivity.

    The DES traffic engine needs two queries after every switch event:
    "are these vertices contracted together by closed failures?" and the
    Lemma-7 catastrophe check "do any two terminals share a closed
    contraction class?".  The batch answer
    ({!Survivor.shorted_by_closure_into} and the [terminals_shorted] scan
    it implied) rebuilds a union-find over the whole edge array —
    O(n + m) per event, which is exactly what caps the engine at small n.

    This structure makes fault state an overlay over the static topology.
    Its union-find trees are exactly the closed-contraction classes; each
    root carries its class's terminal count, and a running count of the
    classes holding two or more terminals is the catastrophe verdict.

    Cost model:

    - {!close} is one union by size with path compression — O(alpha).
    - {!reopen} runs a BFS from the edge's endpoints over the closed edges
      of its class and relabels the one or two resulting pieces flat.  It
      stops as soon as the first BFS reaches the other endpoint (the class
      did not split, e.g. a parallel closed edge still joins them).  Cost
      O(sum of degrees over the old class): O(degree) for the isolated
      closed switches of any survivable regime, and never more than the
      maximum degree times a re-union of the whole closed set.
    - {!connected} is two finds; {!terminals_shorted} is a field read.
    - No operation allocates.

    Verdicts agree exactly with the batch oracles at every point of any
    close/reopen sequence; the qcheck suite pins this against a
    from-scratch union-find on every registry family.

    Single-domain state: never share an instance between domains.  Every
    {!reopen} of a closed edge counts one relabel under [dyn_conn.rebuilds]
    in the default metrics registry. *)

type t

val create : terminals:int list -> Ftcsn_graph.Digraph.t -> t
(** Workspace over a fixed graph with the given terminal set (the
    vertices whose contraction constitutes a catastrophe).  All edges
    start normal. *)

val close : t -> int -> unit
(** Mark an edge closed-failed.  No-op if already closed. *)

val reopen : t -> int -> unit
(** Repair a closed edge, splitting its class if the edge was a bridge of
    it.  No-op if not closed. *)

val connected : t -> int -> int -> bool
(** [connected t a b]: are [a] and [b] in one closed-contraction class?
    Same verdict as {!Survivor.shorted_by_closure_into} on the equivalent
    fault pattern. *)

val terminals_shorted : t -> bool
(** Lemma-7 catastrophe: do two terminals share a closed class?  O(1). *)
