module Network = Ftcsn_networks.Network
module Digraph = Ftcsn_graph.Digraph
module Staged = Ftcsn_graph.Staged
module Metrics = Ftcsn_obs.Metrics
module Counter = Ftcsn_obs.Counter

(* requests that ran the forward dive, and those of them that hit the
   visit cap and were finished by the backward sweep *)
let c_dives = Metrics.counter Metrics.default "staged.dives"
let c_fallbacks = Metrics.counter Metrics.default "staged.sweep_fallbacks"

type t = {
  level : int array;
  stages : int;
  out_off : int array;
  out_dst : int array;
  out_eid : int array;
  in_off : int array;
  in_src : int array;
  in_eid : int array;
  (* B: the backward pass stops at the first level this wide *)
  meet_width : int;
  (* vertices a dive may enter before the backward pass takes the
     request over *)
  dive_cap : int;
  (* search state, epoch-stamped; cursors are mutable fields so a route
     call allocates zero minor words.  The dive marks the vertices it
     entered in [fstamp]. *)
  fstamp : int array;
  bpar : int array;
  bstamp : int array;
  bqueue : int array;
  mutable gen : int;
  mutable bhead : int;
  mutable btail : int;
  mutable dive_left : int;
}

(* Every edge out of a vertex some input reaches climbs exactly one
   stage.  Edges out of the vertices no input reaches are left out: no
   input -> output path crosses them, and the searches never enter them
   (their stage is -1). *)
let staged_from_inputs g st =
  let stage = st.Staged.stage in
  let ok = ref true in
  Digraph.iter_edges g (fun ~eid:_ ~src ~dst ->
      if stage.(src) >= 0 && stage.(dst) <> stage.(src) + 1 then ok := false);
  !ok

let create net =
  let g = net.Network.graph in
  let sources = Array.to_list net.Network.inputs in
  (* staging sorts the graph once and refuses a cyclic one *)
  match Staged.of_sources g ~sources with
  | exception Invalid_argument _ -> None
  | st when not (staged_from_inputs g st) -> None
  | st ->
      let n = Digraph.vertex_count g in
      let widest = Array.fold_left max 1 (Staged.stage_sizes st) in
      let meet_width = 2 * truncate (sqrt (float_of_int widest)) in
      Some
        {
          level = st.Staged.stage;
          stages = st.Staged.stages;
          out_off = Digraph.Csr.out_off g;
          out_dst = Digraph.Csr.out_dst g;
          out_eid = Digraph.Csr.out_eid g;
          in_off = Digraph.Csr.in_off g;
          in_src = Digraph.Csr.in_src g;
          in_eid = Digraph.Csr.in_eid g;
          meet_width;
          dive_cap = 16 * meet_width;
          fstamp = Array.make n 0;
          bpar = Array.make n 0;
          bstamp = Array.make n 0;
          bqueue = Array.make n 0;
          gen = 0;
          bhead = 0;
          btail = 0;
          dive_left = 0;
        }

let stages t = t.stages

let level t v = t.level.(v)

(* [buf.(k)] holds a vertex the backward pass stamped; follow its
   backward parents up-level to [buf.(d)] (= dst) *)
let walk_back t buf k d =
  for j = k to d - 1 do
    buf.(j + 1) <- t.bpar.(buf.(j))
  done

(* Backward BFS over in-edges, one whole level per round, from the
   frontier [bqueue.(bhead .. btail-1)] at level [l]: returns the first
   level whose frontier holds at least [width] vertices, or [lo] if none
   does before it, or -1 once a frontier is empty.  The returned level's
   frontier is then complete: it holds every vertex of that level with a
   path to dst over the masks.  A later call resumes from that frontier.
   In-neighbours no input reaches are skipped: they sit on no path from
   a leveled [src]. *)
let rec back_levels t ~allowed ~edge_ok ~src ~lo ~width l =
  if t.bhead = t.btail then -1
  else if l = lo || t.btail - t.bhead >= width then l
  else begin
    let stop = t.btail in
    while t.bhead < stop do
      let w = t.bqueue.(t.bhead) in
      t.bhead <- t.bhead + 1;
      for i = t.in_off.(w) to t.in_off.(w + 1) - 1 do
        let v = t.in_src.(i) in
        if
          t.bstamp.(v) <> t.gen
          && t.level.(v) >= 0
          && edge_ok t.in_eid.(i)
          && (v = src || allowed v)
        then begin
          t.bstamp.(v) <- t.gen;
          t.bpar.(v) <- w;
          t.bqueue.(t.btail) <- v;
          t.btail <- t.btail + 1
        end
      done
    done;
    back_levels t ~allowed ~edge_ok ~src ~lo ~width (l - 1)
  end

(* raised when a dive has entered [dive_cap] vertices; constant, so the
   raise itself allocates nothing *)
exception Dive_cap

(* Depth-first dive: [buf.(k)] is the vertex [k] levels above src, and
   its out-edges [i .. stop-1] are still to try.  True once [buf.(0 ..
   kt)] is a path ending at a vertex the backward pass stamped.  Every
   vertex entered is fstamped and never entered again: the masks hold
   still during a search, so a vertex the dive has left is a dead end.
   Stamped meet-level vertices already passed [allowed] going backward. *)
let rec dive t ~allowed ~edge_ok ~kt buf k i stop =
  i < stop
  && (let v = t.out_dst.(i) in
      (if k + 1 = kt then
         t.bstamp.(v) = t.gen
         && edge_ok t.out_eid.(i)
         &&
         (buf.(kt) <- v;
          true)
       else
         t.fstamp.(v) <> t.gen
         && edge_ok t.out_eid.(i)
         && allowed v
         &&
         (t.fstamp.(v) <- t.gen;
          t.dive_left <- t.dive_left - 1;
          if t.dive_left < 0 then raise Dive_cap;
          buf.(k + 1) <- v;
          dive t ~allowed ~edge_ok ~kt buf (k + 1) t.out_off.(v)
            t.out_off.(v + 1)))
      || dive t ~allowed ~edge_ok ~kt buf k (i + 1) stop)

(* the verdict once the backward pass has reached [src]'s level: the
   path is [src]'s chain of backward parents *)
let from_src t ~src ~buf d =
  if t.bstamp.(src) = t.gen then begin
    buf.(0) <- src;
    walk_back t buf 0 d;
    d + 1
  end
  else -1

(* In a strictly staged graph every edge climbs exactly one level, so
   every src→dst path has length [level dst - level src] and crosses
   level [lt], where the backward pass stopped with that level's
   co-reachable set complete.  The dive is exhaustive over levels
   [ls .. lt], so the verdict is exact.  A block costs the dive the
   whole forward cone; past [dive_cap] entered vertices the backward
   pass resumes from level [lt] down to [src]'s level and decides, so
   a block costs at most the cap plus the backward cone. *)
let route_into t ~allowed ~edge_ok ~src ~dst ~buf =
  let n = Array.length t.level in
  if src < 0 || src >= n || dst < 0 || dst >= n then
    invalid_arg "Staged_route.route_into: vertex out of range";
  if Array.length buf < max 1 t.stages then
    invalid_arg "Staged_route.route_into: buffer too small";
  if src = dst then begin
    buf.(0) <- src;
    1
  end
  else begin
    let ls = t.level.(src) and ld = t.level.(dst) in
    if ls < 0 && t.out_off.(src) < t.out_off.(src + 1) then
      invalid_arg "Staged_route.route_into: src is reached by no input";
    (* an unleveled src is isolated, an unleveled dst is reached from no
       leveled src, and a non-increasing level pair admits no path *)
    if ls < 0 || ld <= ls then -1
    else begin
      t.gen <- t.gen + 1;
      t.bstamp.(dst) <- t.gen;
      t.bqueue.(0) <- dst;
      t.bhead <- 0;
      t.btail <- 1;
      let lt =
        back_levels t ~allowed ~edge_ok ~src ~lo:ls ~width:t.meet_width ld
      in
      let d = ld - ls in
      if lt < 0 then -1
      else if lt = ls then from_src t ~src ~buf d
      else begin
        Counter.incr c_dives;
        t.dive_left <- t.dive_cap;
        buf.(0) <- src;
        match
          dive t ~allowed ~edge_ok ~kt:(lt - ls) buf 0 t.out_off.(src)
            t.out_off.(src + 1)
        with
        | true ->
            walk_back t buf (lt - ls) d;
            d + 1
        | false -> -1
        | exception Dive_cap ->
            Counter.incr c_fallbacks;
            if
              back_levels t ~allowed ~edge_ok ~src ~lo:ls ~width:max_int lt
              = ls
            then from_src t ~src ~buf d
            else -1
      end
    end
  end
