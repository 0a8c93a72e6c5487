(** Three-stage Clos networks [Cl].

    C(m, k, r) has r ingress k×m crossbars, m middle r×r crossbars and r
    egress m×k crossbars; n = rk terminals per side.  Clos (1953) proved
    strict nonblocking for m ≥ 2k − 1 and Slepian–Duguid rearrangeability
    for m ≥ k — the historical starting point of the paper's subject. *)

type params = {
  m : int;  (** middle switches *)
  k : int;  (** ports per edge switch *)
  r : int;  (** edge switches per side *)
}

val make : params -> Network.t
(** n = r·k inputs and outputs; size = 2rkm + mr². *)

val nonblocking : n:int -> Network.t
(** A strictly nonblocking Clos on [n] terminals with r = k ≈ √n
    (padding n up to a perfect square) and m = 2k − 1. *)

val rearrangeable : n:int -> Network.t
(** A rearrangeable Clos with m = k. *)

(** {1 Structured construction and Slepian–Duguid routing} *)

type built = {
  net : Network.t;
  params : params;
  l1 : int array array;  (** [l1.(i).(j)] joins ingress [i] to middle [j] *)
  l2 : int array array;  (** [l2.(j).(e)] joins middle [j] to egress [e] *)
}

val make_built : params -> built

val slepian_duguid : k:int -> r:int -> (int * int) array -> int array
(** The matching-decomposition core: given requests (ingress switch,
    egress switch) with at most [k] incident to any switch on either
    side, assign each request a middle index in [0, k) such that no two
    requests sharing an ingress or egress switch share a middle.  Used by
    {!route} and by {!Multistage.route}.
    @raise Invalid_argument if some switch has more than [k] requests. *)

val route : built -> Ftcsn_util.Perm.t -> int list array
(** Slepian–Duguid rearrangement: the requests form an (≤ k)-regular
    bipartite multigraph on ingress × egress switches; padding it to
    k-regular and peeling k perfect matchings (Hall guarantees each)
    assigns every request a middle switch, one matching per middle.
    Returns vertex-disjoint paths (input, ingress link, egress link,
    output) for every request.
    @raise Invalid_argument unless [m ≥ k] (rearrangeability threshold)
    and the permutation has arity r·k. *)
