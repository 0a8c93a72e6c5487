module Rng = Ftcsn_prng.Rng
module Bitset = Ftcsn_util.Bitset
module Digraph = Ftcsn_graph.Digraph

type state = Normal | Open_failure | Closed_failure

type pattern = state array

let state_equal a b =
  match (a, b) with
  | Normal, Normal | Open_failure, Open_failure | Closed_failure, Closed_failure
    ->
      true
  | (Normal | Open_failure | Closed_failure), _ -> false

(* written as the negation of the valid range so that NaN is rejected *)
let check_probabilities ~eps_open ~eps_close =
  if not (eps_open >= 0.0 && eps_close >= 0.0 && eps_open +. eps_close <= 1.0)
  then invalid_arg "Fault.sample: bad probabilities"

let sample_into rng ~eps_open ~eps_close pattern =
  check_probabilities ~eps_open ~eps_close;
  let threshold = eps_open +. eps_close in
  for e = 0 to Array.length pattern - 1 do
    let u = Rng.float rng in
    pattern.(e) <-
      (if u < eps_open then Open_failure
       else if u < threshold then Closed_failure
       else Normal)
  done

let sample_tilted_into rng ~tilt_open ~tilt_close pattern =
  let m = Array.length pattern in
  if Array.length tilt_open <> m || Array.length tilt_close <> m then
    invalid_arg "Fault.sample_tilted_into: tilt/pattern length mismatch";
  for e = 0 to m - 1 do
    let o = Array.unsafe_get tilt_open e
    and c = Array.unsafe_get tilt_close e in
    if o < 0.0 || c < 0.0 || o +. c > 1.0 then
      invalid_arg "Fault.sample_tilted_into: bad probabilities";
    let u = Rng.float rng in
    Array.unsafe_set pattern e
      (if u < o then Open_failure
       else if u < o +. c then Closed_failure
       else Normal)
  done

let sample_uniforms_into rng uniforms =
  for e = 0 to Array.length uniforms - 1 do
    uniforms.(e) <- Rng.float rng
  done

let classify_into ~uniforms ~eps_open ~eps_close pattern =
  check_probabilities ~eps_open ~eps_close;
  if Array.length uniforms <> Array.length pattern then
    invalid_arg "Fault.classify_into: uniforms/pattern length mismatch";
  let threshold = eps_open +. eps_close in
  for e = 0 to Array.length pattern - 1 do
    let u = Array.unsafe_get uniforms e in
    Array.unsafe_set pattern e
      (if u < eps_open then Open_failure
       else if u < threshold then Closed_failure
       else Normal)
  done

let failed_edges_into ~uniforms ~eps_open ~eps_close edges =
  check_probabilities ~eps_open ~eps_close;
  if Array.length edges < Array.length uniforms then
    invalid_arg "Fault.failed_edges_into: edge buffer too short";
  let threshold = eps_open +. eps_close in
  (* branch-free, as at ε = 0.1 a fifth of the edges fail and a branch
     would mispredict often; [n <= e] keeps the unconditional write in
     bounds *)
  let n = ref 0 in
  for e = 0 to Array.length uniforms - 1 do
    Array.unsafe_set edges !n e;
    n := !n + Bool.to_int (Array.unsafe_get uniforms e < threshold)
  done;
  !n

let classify_listed_into ~uniforms ~eps_open ~eps_close ~edges ~count ~failed
    pattern =
  check_probabilities ~eps_open ~eps_close;
  if Array.length uniforms <> Array.length pattern then
    invalid_arg "Fault.classify_listed_into: uniforms/pattern length mismatch";
  let threshold = eps_open +. eps_close in
  let n = ref 0 and changed = ref false in
  for i = 0 to count - 1 do
    let e = edges.(i) in
    let u = uniforms.(e) in
    let s =
      if u < eps_open then Open_failure
      else if u < threshold then Closed_failure
      else Normal
    in
    (match s with
     | Normal -> ()
     | Open_failure | Closed_failure ->
         failed.(!n) <- e;
         incr n);
    (* states are constant constructors, so [!=] compares them exactly,
       without [state_equal]'s call in this per-candidate loop *)
    if pattern.(e) != s then begin
      pattern.(e) <- s;
      changed := true
    end
  done;
  (!n, !changed)

let sample rng ~eps_open ~eps_close ~m =
  let pattern = Array.make m Normal in
  sample_into rng ~eps_open ~eps_close pattern;
  pattern

let all_normal m = Array.make m Normal

let count pattern s =
  Array.fold_left (fun acc x -> if state_equal x s then acc + 1 else acc) 0 pattern

let faulty_vertices_into g pattern faulty =
  Bitset.clear faulty;
  Array.iteri
    (fun e s ->
      if not (state_equal s Normal) then begin
        let src, dst = Digraph.edge_endpoints g e in
        Bitset.add faulty src;
        Bitset.add faulty dst
      end)
    pattern
