module Network = Ftcsn_networks.Network
module Digraph = Ftcsn_graph.Digraph
module Staged = Ftcsn_graph.Staged

type t = {
  g : Digraph.t;
  level : int array;
  stages : int;
  (* forward search state (epoch-stamped; cursors are mutable fields so a
     route call allocates zero minor words) *)
  fpar : int array;
  fstamp : int array;
  fqueue : int array;
  (* backward search state *)
  bpar : int array;
  bstamp : int array;
  bqueue : int array;
  mutable gen : int;
  mutable fhead : int;
  mutable ftail : int;
  mutable bhead : int;
  mutable btail : int;
  mutable meet : int;
  mutable scan : int;
}

let create net =
  let g = net.Network.graph in
  let sources = Array.to_list net.Network.inputs in
  (* staging sorts the graph once and refuses a cyclic one *)
  match Staged.of_sources g ~sources with
  | exception Invalid_argument _ -> None
  | st when not (Staged.is_strictly_staged g st) -> None
  | st ->
      let n = Digraph.vertex_count g in
      Some
        {
          g;
          level = st.Staged.stage;
          stages = st.Staged.stages;
          fpar = Array.make n 0;
          fstamp = Array.make n 0;
          fqueue = Array.make n 0;
          bpar = Array.make n 0;
          bstamp = Array.make n 0;
          bqueue = Array.make n 0;
          gen = 0;
          fhead = 0;
          ftail = 0;
          bhead = 0;
          btail = 0;
          meet = -1;
          scan = 0;
        }

let stages t = t.stages

let level t v = t.level.(v)

(* In a strictly staged graph every edge climbs exactly one level, so any
   src→dst path has length [level dst - level src] and crosses the meet
   level [lm] exactly once.  The forward frontier therefore only needs
   levels [level src .. lm] and the backward frontier (over in-edges)
   only [lm .. level dst]; a path exists iff some level-[lm] vertex is
   reached by both — completeness of both bounded searches makes the
   block/accept decision exact, not heuristic.  On a depth-d Beneš each
   side touches O(2^(d/2)) vertices instead of the O(E) a full BFS
   scans. *)
let route_into t ~allowed ~edge_ok ~src ~dst ~buf =
  let n = Array.length t.level in
  if src < 0 || src >= n || dst < 0 || dst >= n then
    invalid_arg "Staged_route.route_into: vertex out of range";
  if Array.length buf < n then
    invalid_arg "Staged_route.route_into: buffer too small";
  if src = dst then begin
    buf.(0) <- src;
    1
  end
  else begin
    let ls = t.level.(src) and ld = t.level.(dst) in
    (* an unleveled vertex is isolated (strict stagedness levels every
       edge endpoint), and a non-increasing level pair admits no path *)
    if ls < 0 || ld <= ls then -1
    else begin
      let d = ld - ls in
      let lm = ls + (d / 2) in
      t.gen <- t.gen + 1;
      let gen = t.gen in
      let level = t.level in
      let out_off = Digraph.Csr.out_off t.g
      and out_dst = Digraph.Csr.out_dst t.g
      and out_eid = Digraph.Csr.out_eid t.g in
      (* forward sweep over levels [ls, lm]; the FIFO dequeues in level
         order because every expansion climbs exactly one level *)
      t.fstamp.(src) <- gen;
      t.fqueue.(0) <- src;
      t.fhead <- 0;
      t.ftail <- 1;
      while t.fhead < t.ftail do
        let u = t.fqueue.(t.fhead) in
        t.fhead <- t.fhead + 1;
        if level.(u) < lm then
          for i = out_off.(u) to out_off.(u + 1) - 1 do
            let v = out_dst.(i) in
            if edge_ok out_eid.(i) && t.fstamp.(v) <> gen && allowed v
            then begin
              t.fstamp.(v) <- gen;
              t.fpar.(v) <- u;
              t.fqueue.(t.ftail) <- v;
              t.ftail <- t.ftail + 1
            end
          done
      done;
      (* backward sweep over levels [lm, ld], expanding in-edges *)
      let in_off = Digraph.Csr.in_off t.g
      and in_src = Digraph.Csr.in_src t.g
      and in_eid = Digraph.Csr.in_eid t.g in
      t.bstamp.(dst) <- gen;
      t.bqueue.(0) <- dst;
      t.bhead <- 0;
      t.btail <- 1;
      while t.bhead < t.btail do
        let w = t.bqueue.(t.bhead) in
        t.bhead <- t.bhead + 1;
        if level.(w) > lm then
          for i = in_off.(w) to in_off.(w + 1) - 1 do
            let v = in_src.(i) in
            if
              edge_ok in_eid.(i)
              && t.bstamp.(v) <> gen
              && (v = src || allowed v)
            then begin
              t.bstamp.(v) <- gen;
              t.bpar.(v) <- w;
              t.bqueue.(t.btail) <- v;
              t.btail <- t.btail + 1
            end
          done
      done;
      (* meet: first forward-discovered level-lm vertex the backward
         sweep also reached (deterministic, but a different tie-break
         than plain BFS — which is why the DES default policy keeps the
         CSR-order BFS and this router is opt-in) *)
      t.meet <- -1;
      t.scan <- 0;
      while t.meet < 0 && t.scan < t.ftail do
        let v = t.fqueue.(t.scan) in
        t.scan <- t.scan + 1;
        if level.(v) = lm && t.bstamp.(v) = gen then t.meet <- v
      done;
      if t.meet < 0 then -1
      else begin
        (* [buf] doubles as the walk state: parents go down-level from
           the meet to position 0 (= src), backward-parents go up-level
           to position d (= dst) *)
        let d1 = lm - ls in
        buf.(d1) <- t.meet;
        t.scan <- d1;
        while t.scan > 0 do
          buf.(t.scan - 1) <- t.fpar.(buf.(t.scan));
          t.scan <- t.scan - 1
        done;
        t.scan <- d1;
        while t.scan < d do
          buf.(t.scan + 1) <- t.bpar.(buf.(t.scan));
          t.scan <- t.scan + 1
        done;
        d + 1
      end
    end
  end
