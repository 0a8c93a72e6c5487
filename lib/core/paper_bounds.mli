(** The paper's Lemma 7 bound, as an executable formula.

    Experiment E6 prints it beside the measured shorting probability.
    The formula is transcribed with the paper's own constants; it only
    binds while 160ε < 1, but the function returns the formula value
    regardless and the caller decides relevance. *)

val lemma7_shorting_bound : u:int -> eps:float -> float
(** c₂·u²·(160ε)²ᵘ with c₂ = 4¹⁵/(1 − 40ε): terminals contracting. *)

val paper_epsilon : float
(** 10⁻⁶, the ε Theorem 2 is stated for. *)
