(* Power iteration for the second singular value of the biadjacency
   matrix.  We iterate v -> Bᵀ(Bv) on inlet-space vectors, projecting out
   the known top singular direction.  For a d-regular graph the top pair
   is (1/√n)·1 on both sides with singular value d; for irregular graphs
   we deflate the measured top pair instead. *)

let matvec b v =
  (* w = B v : outlet space *)
  let w = Array.make b.Bipartite.outlets 0.0 in
  Array.iteri
    (fun i row -> Array.iter (fun o -> w.(o) <- w.(o) +. v.(i)) row)
    b.Bipartite.adj;
  w

let matvec_t b w =
  let v = Array.make b.Bipartite.inlets 0.0 in
  Array.iteri
    (fun i row -> Array.iter (fun o -> v.(i) <- v.(i) +. w.(o)) row)
    b.Bipartite.adj;
  v

let dot a b =
  let acc = ref 0.0 in
  Array.iteri (fun i x -> acc := !acc +. (x *. b.(i))) a;
  !acc

let norm a = sqrt (dot a a)

let normalise a =
  let n = norm a in
  if n > 0.0 then Array.map (fun x -> x /. n) a else a

let project_out ~dir v =
  let c = dot dir v in
  Array.mapi (fun i x -> x -. (c *. dir.(i))) v

let top_singular_vector ?(iterations = 60) b =
  let n = b.Bipartite.inlets in
  let v = ref (normalise (Array.init n (fun i -> 1.0 +. (0.01 *. float_of_int (i mod 7))))) in
  for _ = 1 to iterations do
    v := normalise (matvec_t b (matvec b !v))
  done;
  !v

let second_singular_value ?(iterations = 80) b =
  let n = b.Bipartite.inlets in
  if n = 0 then 0.0
  else begin
    let d = float_of_int (max 1 (Bipartite.max_degree b)) in
    let top = top_singular_vector b in
    (* deterministic pseudo-random start, decorrelated from top *)
    let v =
      ref
        (normalise
           (project_out ~dir:top
              (Array.init n (fun i ->
                   let x = float_of_int (((i * 2654435761) land 0xFFFF) - 32768) in
                   x /. 32768.0))))
    in
    let sigma2 = ref 0.0 in
    for _ = 1 to iterations do
      let w = matvec b !v in
      let v' = project_out ~dir:top (matvec_t b w) in
      let len = norm v' in
      sigma2 := sqrt (Float.max 0.0 len);
      v := normalise v'
    done;
    !sigma2 /. d
  end

let ramanujan_bound ~degree =
  if degree < 2 then 1.0
  else 2.0 *. sqrt (float_of_int (degree - 1)) /. float_of_int degree
