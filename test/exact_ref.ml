module Digraph = Ftcsn_graph.Digraph
module Fault = Ftcsn_reliability.Fault
module Sp_network = Ftcsn_reliability.Sp_network

let max_edges = 13

let probability g ~eps_open ~eps_close f =
  let m = Digraph.edge_count g in
  if m > max_edges then invalid_arg "Exact_ref.probability: too many edges";
  let pattern = Array.make m Fault.Normal in
  let p_normal = 1.0 -. eps_open -. eps_close in
  let total = ref 0.0 in
  (* Odometer over {normal, open, closed}^m carrying the pattern
     probability incrementally. *)
  let rec go e weight =
    if e = m then begin
      if f pattern then total := !total +. weight
    end
    else begin
      pattern.(e) <- Fault.Normal;
      go (e + 1) (weight *. p_normal);
      pattern.(e) <- Fault.Open_failure;
      go (e + 1) (weight *. eps_open);
      pattern.(e) <- Fault.Closed_failure;
      go (e + 1) (weight *. eps_close)
    end
  in
  go 0 1.0;
  !total

type poly = {
  coeffs : float array;
  switches : int;
}

(* Classify every fault pattern by failure count: coeffs.(k) accumulates
   the number of failing patterns with k failed switches, each weighted
   2^-k so that eval's (2 eps)^k factor reproduces the per-pattern
   eps^k measure (each failed switch is open or closed, eps each). *)
let failure_polynomial g event =
  let m = Digraph.edge_count g in
  if m > max_edges then
    invalid_arg "Exact_ref.failure_polynomial: too many edges";
  let coeffs = Array.make (m + 1) 0.0 in
  let pattern = Array.make m Fault.Normal in
  let rec go e failed =
    if e = m then begin
      if event pattern then
        coeffs.(failed) <- coeffs.(failed) +. (1.0 /. Ftcsn_util.Prob.pow 2.0 failed)
    end
    else begin
      pattern.(e) <- Fault.Normal;
      go (e + 1) failed;
      pattern.(e) <- Fault.Open_failure;
      go (e + 1) (failed + 1);
      pattern.(e) <- Fault.Closed_failure;
      go (e + 1) (failed + 1);
      pattern.(e) <- Fault.Normal
    end
  in
  go 0 0;
  { coeffs; switches = m }

let eval t ~eps =
  let two_eps = 2.0 *. eps in
  let acc = ref 0.0 in
  Array.iteri
    (fun k c ->
      if c <> 0.0 then
        acc :=
          !acc
          +. c
             *. Ftcsn_util.Prob.pow two_eps k
             *. Ftcsn_util.Prob.pow (1.0 -. two_eps) (t.switches - k))
    t.coeffs;
  !acc

let constant_term_vanishes t = t.coeffs.(0) = 0.0

let delta_rescaling_bound t ~eps ~ratio =
  if ratio <= 0.0 || ratio > 1.0 then
    invalid_arg "Exact_ref.delta_rescaling_bound";
  eval t ~eps:(eps *. ratio) <= (ratio *. eval t ~eps) +. 1e-12

let rectangle ~j ~k =
  Sp_network.Parallel
    (List.init k (fun _ -> Sp_network.Series (List.init j (fun _ -> Sp_network.Edge))))

(* closed-form rectangle probabilities, independent of Sp_network's
   recurrences; the smallest-area rectangle with j, k <= 64 meeting both
   targets *)
let design_rectangle ~eps ~target_open ~target_short =
  let open_prob j k = (1.0 -. ((1.0 -. eps) ** float_of_int j)) ** float_of_int k in
  let short_prob j k = 1.0 -. ((1.0 -. (eps ** float_of_int j)) ** float_of_int k) in
  let best = ref None in
  for j = 1 to 64 do
    for k = 1 to 64 do
      if open_prob j k < target_open && short_prob j k < target_short then
        match !best with
        | Some (bj, bk) when bj * bk <= j * k -> ()
        | _ -> best := Some (j, k)
    done
  done;
  Option.map (fun (j, k) -> rectangle ~j ~k) !best
