(** The k-dimensional butterfly (banyan) network.

    n = 2^k inputs, k+1 levels of n vertices; vertex (level, row) has a
    straight edge to (level+1, row) and a cross edge to
    (level+1, row xor 2^level).  Each input–output pair is joined by a
    {e unique} path, so the butterfly is neither rearrangeable nor
    fault-tolerant — the fragile baseline of experiment E7: one open
    failure on a path severs that pair for good. *)

val make : int -> Network.t
(** [make n] for n ≥ 2 a power of two. *)
