(* LPS Ramanujan graphs: Cayley graphs of PGL2(F_q) with quaternion
   generators of norm p. *)

let is_prime n =
  if n < 2 then false
  else begin
    let rec go d = d * d > n || (n mod d <> 0 && go (d + 1)) in
    go 2
  end

let is_valid_pair ~p ~q =
  is_prime p && is_prime q && p <> q && p mod 4 = 1 && q mod 4 = 1
  && float_of_int q > 2.0 *. sqrt (float_of_int p)

let group_order ~q = q * (q - 1) * (q + 1)

(* ---- arithmetic mod q ---- *)

let md q x = ((x mod q) + q) mod q

(* modular inverse by Fermat (q prime) *)
let rec pow_mod q b e = if e = 0 then 1 else begin
  let h = pow_mod q b (e / 2) in
  let h2 = h * h mod q in
  if e land 1 = 1 then h2 * b mod q else h2
end

let inv_mod q x = pow_mod q (md q x) (q - 2)

(* a square root of -1 mod q (exists for q = 1 mod 4): brute force *)
let sqrt_minus_one q =
  let rec go i =
    if i >= q then invalid_arg "Lps: no sqrt(-1) found"
    else if i * i mod q = q - 1 then i
    else go (i + 1)
  in
  go 2

(* ---- PGL2(F_q) elements as canonicalised matrix quadruples ---- *)

(* canonical representative modulo scalars: scale so the first nonzero
   entry (scanning a, b, c, d) becomes 1 *)
let canonical q (a, b, c, d) =
  let scale =
    if a <> 0 then inv_mod q a
    else if b <> 0 then inv_mod q b
    else if c <> 0 then inv_mod q c
    else inv_mod q d
  in
  (a * scale mod q, b * scale mod q, c * scale mod q, d * scale mod q)

let mat_mul q (a, b, c, d) (a', b', c', d') =
  ( md q ((a * a') + (b * c')),
    md q ((a * b') + (b * d')),
    md q ((c * a') + (d * c')),
    md q ((c * b') + (d * d')) )

let det q (a, b, c, d) = md q ((a * d) - (b * c))

(* ---- quaternion generators ---- *)

(* the p + 1 solutions of a^2+b^2+c^2+d^2 = p with a odd positive and
   b, c, d even (LPS section 2) *)
let norm_p_quaternions p =
  let bound = int_of_float (sqrt (float_of_int p)) in
  let sols = ref [] in
  for a = 1 to bound do
    if a land 1 = 1 then
      for b = -bound to bound do
        if b land 1 = 0 then
          for c = -bound to bound do
            if c land 1 = 0 then
              for d = -bound to bound do
                if
                  d land 1 = 0
                  && (a * a) + (b * b) + (c * c) + (d * d) = p
                then sols := (a, b, c, d) :: !sols
              done
          done
      done
  done;
  List.rev !sols

let generator_matrices ~p ~q =
  let i = sqrt_minus_one q in
  List.map
    (fun (a, b, c, d) ->
      canonical q
        ( md q (a + (i * b)),
          md q (c + (i * d)),
          md q (-c + (i * d)),
          md q (a - (i * b)) ))
    (norm_p_quaternions p)

let legendre q x =
  (* x^((q-1)/2) mod q: 1 for squares, q-1 for non-squares *)
  pow_mod q (md q x) ((q - 1) / 2)

(* Enumerate the vertex group as canonical quadruples with nonzero det.
   When (p|q) = +1 the generators lie in PSL2, so the Cayley graph on all
   of PGL2 would split into the two det-classes; LPS define X^{p,q} on
   PSL2 in that case (square-det classes only — the determinant's square
   class is invariant under the canonical scaling).  When (p|q) = -1 the
   graph lives on PGL2 and is bipartite between the det classes. *)
let enumerate_group ~restrict_to_psl q =
  let tbl = Hashtbl.create (group_order ~q) in
  let add m = if not (Hashtbl.mem tbl m) then Hashtbl.add tbl m (Hashtbl.length tbl) in
  for a = 0 to q - 1 do
    for b = 0 to q - 1 do
      for c = 0 to q - 1 do
        for d = 0 to q - 1 do
          let m = (a, b, c, d) in
          let dt = det q m in
          if
            dt <> 0
            && canonical q m = m
            && ((not restrict_to_psl) || legendre q dt = 1)
          then add m
        done
      done
    done
  done;
  tbl

let make ~p ~q =
  if not (is_valid_pair ~p ~q) then
    invalid_arg "Lps.make: need distinct primes p, q = 1 mod 4 with q > 2 sqrt p";
  let gens = generator_matrices ~p ~q in
  if List.length gens <> p + 1 then
    invalid_arg "Lps.make: generator count mismatch (p too large for search?)";
  let restrict_to_psl = legendre q p = 1 in
  let index = enumerate_group ~restrict_to_psl q in
  let n = Hashtbl.length index in
  let elements = Array.make n (0, 0, 0, 0) in
  Hashtbl.iter (fun m idx -> elements.(idx) <- m) index;
  let adj =
    Array.init n (fun idx ->
        let g = elements.(idx) in
        Array.of_list
          (List.map
             (fun s ->
               let prod = canonical q (mat_mul q s g) in
               match Hashtbl.find_opt index prod with
               | Some j -> j
               | None -> invalid_arg "Lps.make: product left the group")
             gens))
  in
  Bipartite.make ~inlets:n ~outlets:n ~adj
