let paper_epsilon = 1e-6

let c2 ~eps = (4.0 ** 15.0) /. Float.max 1e-9 (1.0 -. (40.0 *. eps))

let lemma7_shorting_bound ~u ~eps =
  let uf = float_of_int u in
  c2 ~eps *. uf *. uf *. ((160.0 *. eps) ** (2.0 *. uf))
