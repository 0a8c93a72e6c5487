module Digraph = Ftcsn_graph.Digraph

type spec =
  | Edge
  | Series of spec list
  | Parallel of spec list

let quad s = Series [ Parallel [ s; s ]; Parallel [ s; s ] ]

let iterate_quad k =
  let rec go k acc = if k = 0 then acc else go (k - 1) (quad acc) in
  if k < 0 then invalid_arg "Sp_network.iterate_quad";
  go k Edge

let rec size = function
  | Edge -> 1
  | Series parts -> List.fold_left (fun acc p -> acc + size p) 0 parts
  | Parallel parts -> List.fold_left (fun acc p -> acc + size p) 0 parts

let rec depth = function
  | Edge -> 1
  | Series parts -> List.fold_left (fun acc p -> acc + depth p) 0 parts
  | Parallel parts -> List.fold_left (fun acc p -> max acc (depth p)) 0 parts

(* Exact two-failure-mode recurrences.
   open = the subnetwork cannot conduct (no surviving path);
   short = input and output contract through closed edges only.
   For a single switch: open <=> open failure; short <=> closed failure.
   Series: opens if any part opens; shorts only if all parts short.
   Parallel: opens only if all parts open; shorts if any part shorts. *)
let rec failure_probs spec ~eps_open ~eps_close =
  match spec with
  | Edge -> (eps_open, eps_close)
  | Series parts ->
      List.fold_left
        (fun (po, ps) part ->
          let po', ps' = failure_probs part ~eps_open ~eps_close in
          (1.0 -. ((1.0 -. po) *. (1.0 -. po')), ps *. ps'))
        (0.0, 1.0) parts
  | Parallel parts ->
      List.fold_left
        (fun (po, ps) part ->
          let po', ps' = failure_probs part ~eps_open ~eps_close in
          (po *. po', 1.0 -. ((1.0 -. ps) *. (1.0 -. ps'))))
        (1.0, 0.0) parts

let open_prob spec ~eps_open ~eps_close =
  fst (failure_probs spec ~eps_open ~eps_close)

let short_prob spec ~eps_open ~eps_close =
  snd (failure_probs spec ~eps_open ~eps_close)

let design ~eps ~eps' =
  if eps <= 0.0 || eps >= 0.25 then invalid_arg "Sp_network.design: need 0 < eps < 1/4";
  if eps' <= 0.0 then invalid_arg "Sp_network.design: eps' must be positive";
  let rec go k =
    if k > 40 then failwith "Sp_network.design: did not converge"
    else begin
      let spec = iterate_quad k in
      let po, ps = failure_probs spec ~eps_open:eps ~eps_close:eps in
      if po < eps' && ps < eps' then spec else go (k + 1)
    end
  in
  go 0

type built = {
  graph : Digraph.t;
  input : int;
  output : int;
}

let build spec =
  let b = Digraph.Builder.create () in
  let input = Digraph.Builder.add_vertex b in
  let output = Digraph.Builder.add_vertex b in
  (* Realise [spec] between two existing vertices. *)
  let rec realise spec ~src ~dst =
    match spec with
    | Edge -> ignore (Digraph.Builder.add_edge b ~src ~dst)
    | Parallel parts -> List.iter (fun p -> realise p ~src ~dst) parts
    | Series [] -> invalid_arg "Sp_network.build: empty series"
    | Series parts ->
        let rec chain src = function
          | [] -> assert false
          | [ last ] -> realise last ~src ~dst
          | part :: rest ->
              let mid = Digraph.Builder.add_vertex b in
              realise part ~src ~dst:mid;
              chain mid rest
        in
        chain src parts
  in
  realise spec ~src:input ~dst:output;
  { graph = Digraph.Builder.freeze b; input; output }

let rec pp ppf = function
  | Edge -> Format.pp_print_string ppf "e"
  | Series parts ->
      Format.fprintf ppf "S(%a)"
        (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.pp_print_char ppf ',') pp)
        parts
  | Parallel parts ->
      Format.fprintf ppf "P(%a)"
        (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.pp_print_char ppf ',') pp)
        parts
