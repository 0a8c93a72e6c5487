(** Multibutterflies: butterflies with expander-based splitters
    (Leighton–Maggs [LM], cited in the paper as the practical route to
    fault tolerance in packet-routing networks).

    Level ℓ partitions rows into 2^ℓ blocks; a splitter sends each vertex
    of a block to [d] seeded-random neighbours in the upper half and [d]
    in the lower half of its block at the next level, replacing the
    butterfly's single straight/cross edges.  With d > 1 the redundancy
    lets the network route around faults; experiment E7 uses it as the
    middle baseline between the fragile butterfly and the paper's
    construction. *)

val make : rng:Ftcsn_prng.Rng.t -> degree:int -> int -> Network.t
(** [make ~rng ~degree n] for n a power of two ≥ 2; degree ≥ 1 edges into
    each half-block.  Vertex [level * n + row] sits at [level] 0 … log₂ n
    (inputs at level 0, outputs at level log₂ n) and every edge climbs one
    level, so each input→output path has log₂ n + 1 vertices. *)
