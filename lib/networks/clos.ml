module Digraph = Ftcsn_graph.Digraph
module Hopcroft_karp = Ftcsn_flow.Hopcroft_karp

type params = {
  m : int;
  k : int;
  r : int;
}

type built = {
  net : Network.t;
  params : params;
  l1 : int array array;
  l2 : int array array;
}

let make_built ({ m; k; r } as params) =
  if m < 1 || k < 1 || r < 1 then invalid_arg "Clos.make";
  let b = Digraph.Builder.create () in
  let inputs = Array.init (r * k) (fun _ -> Digraph.Builder.add_vertex b) in
  let outputs = Array.init (r * k) (fun _ -> Digraph.Builder.add_vertex b) in
  (* link vertices: l1.(i).(j) joins ingress i to middle j;
     l2.(j).(e) joins middle j to egress e *)
  let l1 =
    Array.init r (fun _ -> Array.init m (fun _ -> Digraph.Builder.add_vertex b))
  in
  let l2 =
    Array.init m (fun _ -> Array.init r (fun _ -> Digraph.Builder.add_vertex b))
  in
  (* ingress crossbars: K(k, m) *)
  for i = 0 to r - 1 do
    for p = 0 to k - 1 do
      for j = 0 to m - 1 do
        ignore (Digraph.Builder.add_edge b ~src:inputs.((i * k) + p) ~dst:l1.(i).(j))
      done
    done
  done;
  (* middle crossbars: K(r, r) *)
  for j = 0 to m - 1 do
    for i = 0 to r - 1 do
      for e = 0 to r - 1 do
        ignore (Digraph.Builder.add_edge b ~src:l1.(i).(j) ~dst:l2.(j).(e))
      done
    done
  done;
  (* egress crossbars: K(m, k) *)
  for e = 0 to r - 1 do
    for j = 0 to m - 1 do
      for p = 0 to k - 1 do
        ignore
          (Digraph.Builder.add_edge b ~src:l2.(j).(e) ~dst:outputs.((e * k) + p))
      done
    done
  done;
  let net =
    Network.make
      ~name:(Printf.sprintf "clos-m%d-k%d-r%d" m k r)
      ~graph:(Digraph.Builder.freeze b) ~inputs ~outputs
  in
  { net; params; l1; l2 }

let make params = (make_built params).net

let square_split n =
  let k = int_of_float (ceil (sqrt (float_of_int n))) in
  let r = (n + k - 1) / k in
  (k, r)

let nonblocking ~n =
  let k, r = square_split n in
  make { m = (2 * k) - 1; k; r }

let rearrangeable ~n =
  let k, r = square_split n in
  make { m = k; k; r }

(* Slepian-Duguid: decompose the request multigraph into k perfect
   matchings and send the t-th matching through middle switch t. *)
let slepian_duguid ~k ~r requests =
  let n = Array.length requests in
  let real = Array.make_matrix r r 0 in
  let queues = Array.make_matrix r r [] in
  for i = n - 1 downto 0 do
    let a, bsw = requests.(i) in
    if a < 0 || a >= r || bsw < 0 || bsw >= r then
      invalid_arg "Clos.slepian_duguid: switch index out of range";
    real.(a).(bsw) <- real.(a).(bsw) + 1;
    queues.(a).(bsw) <- i :: queues.(a).(bsw)
  done;
  let row_total a = Array.fold_left ( + ) 0 real.(a) in
  for a = 0 to r - 1 do
    if row_total a > k then invalid_arg "Clos.slepian_duguid: overloaded switch"
  done;
  (* pad with dummies to a k-regular bipartite multigraph *)
  let counts = Array.map Array.copy real in
  let row_sum a = Array.fold_left ( + ) 0 counts.(a) in
  let col_sum bsw =
    let acc = ref 0 in
    for a = 0 to r - 1 do
      acc := !acc + counts.(a).(bsw)
    done;
    !acc
  in
  let a = ref 0 and bsw = ref 0 in
  while !a < r do
    if row_sum !a >= k then incr a
    else begin
      while !bsw < r && col_sum !bsw >= k do
        incr bsw
      done;
      if !bsw >= r then incr a (* rows full elsewhere; cannot happen *)
      else begin
        let add = min (k - row_sum !a) (k - col_sum !bsw) in
        counts.(!a).(!bsw) <- counts.(!a).(!bsw) + add
      end
    end
  done;
  let middle_of = Array.make n (-1) in
  for round = 0 to k - 1 do
    (* perfect matching on the support of [counts]; the multigraph is
       (k - round)-regular so Hall guarantees one *)
    let adj =
      Array.init r (fun x ->
          let out = ref [] in
          for y = r - 1 downto 0 do
            if counts.(x).(y) > 0 then out := y :: !out
          done;
          Array.of_list !out)
    in
    let matching = Hopcroft_karp.matching ~n_left:r ~n_right:r ~adj in
    if matching.Hopcroft_karp.size <> r then
      invalid_arg "Clos.slepian_duguid: internal matching deficiency";
    Array.iteri
      (fun x y ->
        counts.(x).(y) <- counts.(x).(y) - 1;
        if real.(x).(y) > 0 then begin
          real.(x).(y) <- real.(x).(y) - 1;
          match queues.(x).(y) with
          | req :: rest ->
              queues.(x).(y) <- rest;
              middle_of.(req) <- round
          | [] -> assert false
        end)
      matching.Hopcroft_karp.pair_left
  done;
  middle_of

let route built pi =
  let { m; k; r } = built.params in
  if m < k then invalid_arg "Clos.route: need m >= k (rearrangeable)";
  if Array.length pi <> r * k then invalid_arg "Clos.route: arity";
  if not (Ftcsn_util.Perm.is_valid pi) then
    invalid_arg "Clos.route: not a permutation";
  let n = r * k in
  let requests = Array.init n (fun i -> (i / k, pi.(i) / k)) in
  let middle_of = slepian_duguid ~k ~r requests in
  Array.init n (fun i ->
      let a = i / k and bsw = pi.(i) / k in
      let j = middle_of.(i) in
      assert (j >= 0);
      [
        built.net.Network.inputs.(i);
        built.l1.(a).(j);
        built.l2.(j).(bsw);
        built.net.Network.outputs.(pi.(i));
      ])
