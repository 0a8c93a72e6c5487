module Vec = Ftcsn_util.Vec
module Bitset = Ftcsn_util.Bitset

(* Arc-pair representation: arc 2k is forward, arc 2k+1 its residual twin. *)
type t = {
  n : int;
  head : int Vec.t array; (* arc indices leaving each vertex *)
  dst : int Vec.t;
  cap : int Vec.t;
  (* Dinic's scratch, kept across calls: BFS levels, per-vertex arc
     cursors and the BFS queue *)
  mutable level : int array;
  mutable iter : int array;
  mutable queue : int array;
}

let create ~n =
  {
    n;
    head = Array.init n (fun _ -> Vec.create ());
    dst = Vec.create ();
    cap = Vec.create ();
    level = [||];
    iter = [||];
    queue = [||];
  }

let vertex_count t = t.n

let add_edge t ~src ~dst ~cap =
  if src < 0 || src >= t.n || dst < 0 || dst >= t.n then
    invalid_arg "Maxflow.add_edge";
  if cap < 0 then invalid_arg "Maxflow.add_edge: negative capacity";
  let a = Vec.length t.dst in
  Vec.push t.dst dst;
  Vec.push t.cap cap;
  Vec.push t.head.(src) a;
  Vec.push t.dst src;
  Vec.push t.cap 0;
  Vec.push t.head.(dst) (a + 1);
  a

(* Level graph by BFS over arcs with residual capacity.  The queue is
   an array (each vertex enters once) scanned with index loops, so a
   phase allocates nothing. *)
let bfs t ~source ~sink =
  Array.fill t.level 0 t.n (-1);
  t.level.(source) <- 0;
  t.queue.(0) <- source;
  let front = ref 0 and back = ref 1 in
  while !front < !back do
    let v = t.queue.(!front) in
    incr front;
    let arcs = t.head.(v) in
    for k = 0 to Vec.length arcs - 1 do
      let a = Vec.get arcs k in
      let w = Vec.get t.dst a in
      if Vec.get t.cap a > 0 && t.level.(w) = -1 then begin
        t.level.(w) <- t.level.(v) + 1;
        t.queue.(!back) <- w;
        incr back
      end
    done
  done;
  t.level.(sink) >= 0

(* DFS for a blocking flow, one augmenting path at a time (unit capacities
   dominate our workloads so path-at-a-time is fine). *)
let rec dfs t v ~sink pushed =
  if v = sink then pushed
  else begin
    let result = ref 0 in
    let arcs = t.head.(v) in
    while !result = 0 && t.iter.(v) < Vec.length arcs do
      let a = Vec.get arcs t.iter.(v) in
      let w = Vec.get t.dst a in
      if Vec.get t.cap a > 0 && t.level.(w) = t.level.(v) + 1 then begin
        let d = dfs t w ~sink (min pushed (Vec.get t.cap a)) in
        if d > 0 then begin
          Vec.set t.cap a (Vec.get t.cap a - d);
          Vec.set t.cap (a lxor 1) (Vec.get t.cap (a lxor 1) + d);
          result := d
        end
        else t.iter.(v) <- t.iter.(v) + 1
      end
      else t.iter.(v) <- t.iter.(v) + 1
    done;
    !result
  end

let set_cap t a cap =
  if cap < 0 then invalid_arg "Maxflow.set_cap: negative capacity";
  Vec.set t.cap a cap;
  Vec.set t.cap (a lxor 1) 0

let max_flow t ~source ~sink =
  if source = sink then invalid_arg "Maxflow.max_flow: source = sink";
  (* level/iter/queue are kept across calls (arena reuse); each is
     re-initialised below before being read *)
  if Array.length t.level <> t.n then begin
    t.level <- Array.make t.n (-1);
    t.iter <- Array.make t.n 0;
    t.queue <- Array.make t.n 0
  end;
  let flow = ref 0 in
  while bfs t ~source ~sink do
    Array.fill t.iter 0 t.n 0;
    let continue = ref true in
    while !continue do
      let f = dfs t source ~sink max_int in
      if f > 0 then flow := !flow + f else continue := false
    done
  done;
  !flow

let flow_on t a = Vec.get t.cap (a lor 1)

let min_cut_source_side t ~source =
  let side = Bitset.create t.n in
  Bitset.add side source;
  let queue = Queue.create () in
  Queue.add source queue;
  while not (Queue.is_empty queue) do
    let v = Queue.pop queue in
    Vec.iter
      (fun a ->
        let w = Vec.get t.dst a in
        if Vec.get t.cap a > 0 && not (Bitset.mem side w) then begin
          Bitset.add side w;
          Queue.add w queue
        end)
      t.head.(v)
  done;
  side
