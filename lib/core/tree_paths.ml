module Rng = Ftcsn_prng.Rng

type t = {
  n : int;
  adj : int array array;
}

let of_edges ~n edges =
  let lists = Array.make n [] in
  let seen = Hashtbl.create (List.length edges) in
  List.iter
    (fun (a, b) ->
      if a < 0 || a >= n || b < 0 || b >= n || a = b then
        invalid_arg "Tree_paths.of_edges: bad edge";
      let key = (min a b, max a b) in
      if Hashtbl.mem seen key then invalid_arg "Tree_paths.of_edges: duplicate";
      Hashtbl.add seen key ();
      lists.(a) <- b :: lists.(a);
      lists.(b) <- a :: lists.(b))
    edges;
  { n; adj = Array.map Array.of_list lists }

let degree t v = Array.length t.adj.(v)

let leaves t =
  let acc = ref [] in
  for v = t.n - 1 downto 0 do
    if degree t v = 1 then acc := v :: !acc
  done;
  !acc

let contract_stretches t =
  (* Keep vertices of degree <> 2.  In a forest, every maximal chain of
     degree-2 vertices joins two distinct kept vertices; following each
     chain from both ends would emit it twice, so we emit only from the
     smaller-id kept endpoint. *)
  let keep v = degree t v <> 2 in
  let edges = ref [] in
  for v = 0 to t.n - 1 do
    if keep v then
      Array.iter
        (fun w0 ->
          if keep w0 then begin
            if v < w0 then edges := (v, w0) :: !edges
          end
          else begin
            let rec follow prev cur =
              if keep cur then cur
              else
                let next =
                  if t.adj.(cur).(0) = prev then t.adj.(cur).(1)
                  else t.adj.(cur).(0)
                in
                follow cur next
            in
            let other = follow v w0 in
            if v < other then edges := (v, other) :: !edges
          end)
        t.adj.(v)
  done;
  let lists = Array.make t.n [] in
  List.iter
    (fun (a, b) ->
      lists.(a) <- b :: lists.(a);
      lists.(b) <- a :: lists.(b))
    !edges;
  { n = t.n; adj = Array.map Array.of_list lists }

(* BFS from [src] over edges not in [used], up to depth [max_len]; stop at
   the first other leaf and return the path. *)
let find_partner t ~used ~is_leaf ~max_len src =
  let dist = Hashtbl.create 16 in
  let parent = Hashtbl.create 16 in
  Hashtbl.add dist src 0;
  let queue = Queue.create () in
  Queue.add src queue;
  let found = ref None in
  while !found = None && not (Queue.is_empty queue) do
    let v = Queue.pop queue in
    let d = Hashtbl.find dist v in
    if d < max_len then
      Array.iter
        (fun w ->
          if !found = None && not (Hashtbl.mem dist w) then begin
            let key = (min v w, max v w) in
            if not (Hashtbl.mem used key) then begin
              Hashtbl.add dist w (d + 1);
              Hashtbl.add parent w v;
              if is_leaf w then found := Some w else Queue.add w queue
            end
          end)
        t.adj.(v)
  done;
  match !found with
  | None -> None
  | Some w ->
      let rec walk v acc =
        if v = src then v :: acc else walk (Hashtbl.find parent v) (v :: acc)
      in
      Some (walk w [])

let short_leaf_paths ?(max_len = 3) t =
  let used = Hashtbl.create 64 in
  let taken = Array.make t.n false in
  let is_leaf w = degree t w = 1 && not taken.(w) in
  let paths = ref [] in
  List.iter
    (fun src ->
      if not taken.(src) then
        match find_partner t ~used ~is_leaf:(fun w -> w <> src && is_leaf w) ~max_len src with
        | None -> ()
        | Some path ->
            let rec mark = function
              | a :: (b :: _ as rest) ->
                  Hashtbl.add used (min a b, max a b) ();
                  mark rest
              | _ -> ()
            in
            mark path;
            taken.(src) <- true;
            (match List.rev path with w :: _ -> taken.(w) <- true | [] -> ());
            paths := path :: !paths)
    (leaves t);
  List.rev !paths

let lemma1_lower_bound ~leaves = (leaves + 41) / 42

let random_internal3_tree ~rng ~leaves:l =
  if l < 3 then invalid_arg "Tree_paths.random_internal3_tree: need >= 3 leaves";
  (* start: one internal node with 3 leaves; each split turns a leaf into
     an internal node with three children... no: splitting a leaf into an
     internal node with two fresh leaves keeps its degree at 3 (old edge +
     two children) and adds one leaf net.  Start with 3 leaves, split
     l - 3 times. *)
  let edges = ref [] in
  let next = ref 0 in
  let fresh () =
    let v = !next in
    incr next;
    v
  in
  let centre = fresh () in
  let leaf_list = ref [] in
  for _ = 1 to 3 do
    let v = fresh () in
    edges := (centre, v) :: !edges;
    leaf_list := v :: !leaf_list
  done;
  let leaf_arr = ref (Array.of_list !leaf_list) in
  for _ = 1 to l - 3 do
    let arr = !leaf_arr in
    let idx = Rng.int rng (Array.length arr) in
    let v = arr.(idx) in
    let a = fresh () and b = fresh () in
    edges := (v, a) :: (v, b) :: !edges;
    (* v stops being a leaf; a and b join *)
    let arr' = Array.copy arr in
    arr'.(idx) <- a;
    leaf_arr := Array.append arr' [| b |]
  done;
  of_edges ~n:!next !edges

let fig1_bad_leaf () =
  (* bad leaf 0 — a — b with side branches whose leaves sit at distance 4 *)
  let edges = ref [] in
  let next = ref 0 in
  let fresh () =
    let v = !next in
    incr next;
    v
  in
  let bad = fresh () in
  let a = fresh () in
  edges := (bad, a) :: !edges;
  (* a has two more subtrees, each a chain of two internal nodes ending in
     a cherry so every leaf is >= 4 from [bad] and internal degrees >= 3 *)
  let attach_far_subtree root =
    let x = fresh () in
    edges := (root, x) :: !edges;
    let y = fresh () in
    edges := (x, y) :: !edges;
    let l1 = fresh () and l2 = fresh () in
    edges := (y, l1) :: (y, l2) :: !edges;
    (* x needs degree 3: second branch, also deep *)
    let y' = fresh () in
    edges := (x, y') :: !edges;
    let l3 = fresh () and l4 = fresh () in
    edges := (y', l3) :: (y', l4) :: !edges
  in
  attach_far_subtree a;
  attach_far_subtree a;
  (of_edges ~n:!next !edges, bad)

let fig2_crowded_internal () =
  (* an internal node V with three branches, each ending in structure that
     places bad leaves at distance <= 3 from V *)
  let tree, bad = fig1_bad_leaf () in
  ignore bad;
  (* node 1 ("a") collects payments in the fig1 gadget; reuse it *)
  (tree, 1)

let fig3_path_with_unlucky () =
  (* central path leaf0 - c1 - c2 - leaf1 of length 3, with cherries off
     c1 and c2 providing four leaves within distance 2 of the path *)
  let edges = ref [] in
  let next = ref 0 in
  let fresh () =
    let v = !next in
    incr next;
    v
  in
  let l0 = fresh () in
  let c1 = fresh () in
  let c2 = fresh () in
  let l1 = fresh () in
  edges := (l0, c1) :: (c1, c2) :: (c2, l1) :: !edges;
  let cherry root =
    let m = fresh () in
    edges := (root, m) :: !edges;
    let a = fresh () and b = fresh () in
    edges := (m, a) :: (m, b) :: !edges
  in
  cherry c1;
  cherry c2;
  (of_edges ~n:!next !edges, [ l0; c1; c2; l1 ])

let nearest_leaf_distance t leaf =
  let dist = Array.make t.n (-1) in
  dist.(leaf) <- 0;
  let queue = Queue.create () in
  Queue.add leaf queue;
  let best = ref max_int in
  while !best = max_int && not (Queue.is_empty queue) do
    let v = Queue.pop queue in
    Array.iter
      (fun w ->
        if dist.(w) = -1 then begin
          dist.(w) <- dist.(v) + 1;
          if degree t w = 1 then best := min !best dist.(w)
          else Queue.add w queue
        end)
      t.adj.(v)
  done;
  !best
