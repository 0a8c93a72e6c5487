module Network = Ftcsn_networks.Network
module Digraph = Ftcsn_graph.Digraph
module Fault = Ftcsn_reliability.Fault
module Dyn_conn = Ftcsn_reliability.Dyn_conn
module Greedy = Ftcsn_routing.Greedy
module Rng = Ftcsn_prng.Rng
module Vec = Ftcsn_util.Vec

(* Events are unboxed ints: [(arg lsl 2) lor tag].  Pushing an immediate
   int onto the heap allocates nothing, and the [(time, push-seq)]
   determinism contract only cares about push order.  Tag 0 carries the
   two argument-free events; tag 2 is unused. *)
let ev_arrival = 0
let ev_tick = 1 lsl 2
let ev_hangup key = (key lsl 2) lor 1
let ev_repair e = (e lsl 2) lor 3

(* idle-terminal index pool: [items] is always a permutation of [0, n)
   whose prefix [0, size) is the idle set, with [pos] the inverse map —
   O(1) remove/add and an exactly-uniform draw over the idle set *)
type pool = { items : int array; pos : int array; mutable size : int }

let pool_create n =
  { items = Array.init n Fun.id; pos = Array.init n Fun.id; size = n }

let pool_remove p x =
  let i = p.pos.(x) in
  let last = p.size - 1 in
  let y = p.items.(last) in
  p.items.(i) <- y;
  p.pos.(y) <- i;
  p.items.(last) <- x;
  p.pos.(x) <- last;
  p.size <- last

let pool_add p x =
  let i = p.pos.(x) in
  let y = p.items.(p.size) in
  p.items.(p.size) <- x;
  p.pos.(x) <- p.size;
  p.items.(i) <- y;
  p.pos.(y) <- i;
  p.size <- p.size + 1

let idle p = p.size
let draw rng p = p.items.(Rng.int rng p.size)
let is_idle p x = p.pos.(x) < p.size

type t = {
  net : Network.t;
  mutable mtbf : float;
  mutable mttr : float;
  heap : int Heap.t;
  router : Greedy.t;
  route_buf : int array;
  fstate : Fault.state array;
  faulty_deg : int array;
  lost : int Vec.t;
  allowed : int -> bool;
  edge_ok : int -> bool;
  conn : Dyn_conn.t;
  owner : int array;
  idle_in : pool;
  idle_out : pool;
  cap : int;
  c_in : int array;
  c_out : int array;
  c_stamp : int array;
  c_plen : int array;
  c_path : int array array;
  c_edges : int array array;
  c_prev : int array;
  c_next : int array;
  mutable live_head : int;
  mutable live_count : int;
  mutable free_head : int;
  mutable max_concurrent : int;
  mutable failed : int;
  mutable events : int;
  mutable failures : int;
  mutable repairs : int;
  severed : int array;
  fs : float array;
}

let is_normal s = Fault.state_equal s Fault.Normal

let create ?(engine = `Bfs) ~mtbf ~mttr net =
  let g = net.Network.graph in
  let n = Digraph.vertex_count g and m = Digraph.edge_count g in
  let cap = min (Network.n_inputs net) (Network.n_outputs net) in
  let is_terminal = Array.make n false in
  List.iter (fun v -> is_terminal.(v) <- true) (Network.terminals net);
  let fstate = Array.make m Fault.Normal in
  let faulty_deg = Array.make n 0 in
  (* terminals stay routable with faulty incident switches (the switches
     themselves are unusable via edge_ok); internal vertices are stripped
     once faulty, mirroring Fault_strip *)
  let allowed v = is_terminal.(v) || faulty_deg.(v) = 0 in
  let edge_ok e = is_normal fstate.(e) in
  {
    net;
    mtbf;
    mttr;
    (* one hangup per call slot, the next arrival and the failure clock's
       tick; pending repairs grow it by doubling *)
    heap = Heap.create ~capacity:(cap + 2) ~dummy:0 ();
    router = Greedy.create ~engine ~allowed ~edge_ok net;
    route_buf = Array.make n 0;
    fstate;
    faulty_deg;
    lost = Vec.create ();
    allowed;
    edge_ok;
    conn = Dyn_conn.create ~terminals:(Network.terminals net) g;
    owner = Array.make n (-1);
    idle_in = pool_create (Network.n_inputs net);
    idle_out = pool_create (Network.n_outputs net);
    cap;
    c_in = Array.make cap (-1);
    c_out = Array.make cap (-1);
    c_stamp = Array.make cap 0;
    c_plen = Array.make cap 0;
    c_path = Array.make cap [||];
    c_edges = Array.make cap [||];
    c_prev = Array.make cap (-1);
    c_next = Array.init cap (fun i -> if i + 1 < cap then i + 1 else -1);
    live_head = -1;
    live_count = 0;
    free_head = (if cap > 0 then 0 else -1);
    max_concurrent = 0;
    failed = 0;
    events = 0;
    failures = 0;
    repairs = 0;
    severed = Array.make 2 0;
    fs = Array.make 2 0.0;
  }

let advance f t =
  if t > f.fs.(0) then begin
    f.fs.(1) <- f.fs.(1) +. (float_of_int f.live_count *. (t -. f.fs.(0)));
    f.fs.(0) <- t
  end

let schedule f dt ev = Heap.push f.heap ~time:(f.fs.(0) +. dt) ev

(* ---- the call store ---- *)

(* grow-once per-slot buffers: steady state reuses them *)
let grown a len =
  if Array.length a >= len then a
  else Array.make (max len (2 * Array.length a)) 0

(* the router only crossed normal switches, so every hop has a normal
   edge; with parallel edges the first normal edge in CSR order is the
   switch the call occupies (a deterministic choice) *)
let edges_of_slot f slot =
  let g = f.net.Network.graph in
  let off = Digraph.Csr.out_off g
  and dst = Digraph.Csr.out_dst g
  and eid = Digraph.Csr.out_eid g in
  let plen = f.c_plen.(slot) and path = f.c_path.(slot) in
  let edges = grown f.c_edges.(slot) (plen - 1) in
  f.c_edges.(slot) <- edges;
  for i = 0 to plen - 2 do
    let v = path.(i + 1) in
    let j = ref off.(path.(i)) and stop = off.(path.(i) + 1) in
    while !j < stop && not (dst.(!j) = v && is_normal f.fstate.(eid.(!j))) do
      incr j
    done;
    if !j = stop then invalid_arg "Fabric: path hop has no normal switch";
    edges.(i) <- eid.(!j)
  done

(* copy the router's path from route_buf.(0 .. len-1) into the slot,
   find the switch of each hop and claim the path's vertices *)
let set_path f slot len =
  let p = grown f.c_path.(slot) len in
  f.c_path.(slot) <- p;
  Array.blit f.route_buf 0 p 0 len;
  f.c_plen.(slot) <- len;
  edges_of_slot f slot;
  for i = 0 to len - 1 do
    f.owner.(p.(i)) <- slot
  done

(* cold paths hand over a list: stage it in route_buf *)
let buf_of_list f path =
  List.iteri (fun i v -> f.route_buf.(i) <- v) path;
  List.length path

(* the call takes its path and terminals and joins the live list *)
let adopt f slot len =
  set_path f slot len;
  pool_remove f.idle_in f.c_in.(slot);
  pool_remove f.idle_out f.c_out.(slot);
  f.c_prev.(slot) <- -1;
  f.c_next.(slot) <- f.live_head;
  if f.live_head >= 0 then f.c_prev.(f.live_head) <- slot;
  f.live_head <- slot;
  f.live_count <- f.live_count + 1;
  if f.live_count > f.max_concurrent then f.max_concurrent <- f.live_count

let unroute f slot =
  let p = f.c_path.(slot) and len = f.c_plen.(slot) in
  Greedy.release_buf f.router p ~len;
  for i = 0 to len - 1 do
    f.owner.(p.(i)) <- -1
  done

(* take the call off the network but keep its slot (a sever may
   immediately re-adopt it under the same stamp) *)
let vacate f slot =
  unroute f slot;
  pool_add f.idle_in f.c_in.(slot);
  pool_add f.idle_out f.c_out.(slot);
  let p = f.c_prev.(slot) and n = f.c_next.(slot) in
  if p >= 0 then f.c_next.(p) <- n else f.live_head <- n;
  if n >= 0 then f.c_prev.(n) <- p;
  f.live_count <- f.live_count - 1

let alloc f i o =
  (* an idle input/output pair existed, so a free slot must too *)
  let slot = f.free_head in
  f.free_head <- f.c_next.(slot);
  f.c_in.(slot) <- i;
  f.c_out.(slot) <- o;
  slot

(* permanent release: the stamp bump is what invalidates any pending
   hangup event for this occupancy *)
let free f slot =
  f.c_stamp.(slot) <- f.c_stamp.(slot) + 1;
  f.c_next.(slot) <- f.free_head;
  f.free_head <- slot

let route f i o =
  Greedy.route_into f.router ~input:f.net.Network.inputs.(i)
    ~output:f.net.Network.outputs.(o) ~buf:f.route_buf

let connect f i o =
  let len = route f i o in
  if len < 0 then -1
  else begin
    let slot = alloc f i o in
    adopt f slot len;
    slot
  end

let place_path f i o path =
  let slot = alloc f i o in
  adopt f slot (buf_of_list f path);
  slot

let release f slot =
  vacate f slot;
  free f slot

let hang_up_after f slot dt =
  schedule f dt (ev_hangup ((f.c_stamp.(slot) * f.cap) + slot))

let hangup f key =
  let slot = key mod f.cap in
  (* stamp mismatch = the slot was freed since; the event is stale *)
  if f.c_stamp.(slot) = key / f.cap then begin
    release f slot;
    slot
  end
  else -1

let live_slots f =
  let rec go sl acc = if sl < 0 then acc else go f.c_next.(sl) (sl :: acc) in
  go f.live_head []

let relay f slot path =
  Greedy.occupy f.router path;
  set_path f slot (buf_of_list f path)

(* ---- faults ---- *)

let crosses f slot e =
  let edges = f.c_edges.(slot) in
  let k = f.c_plen.(slot) - 1 in
  let i = ref 0 in
  while !i < k && edges.(!i) <> e do
    incr i
  done;
  !i < k

(* the call (if any) holding vertex [x] whose path crosses switch [e]
   comes off and is rerouted over the same endpoint pair; its outcome
   goes into severed.(n) *)
let sever_at f e x n =
  let slot = f.owner.(x) in
  if slot >= 0 && crosses f slot e then begin
    vacate f slot;
    let len = route f f.c_in.(slot) f.c_out.(slot) in
    if len >= 0 then begin
      (* same slot, same stamp: the pending hangup stays valid *)
      adopt f slot len;
      f.severed.(n) <- (slot lsl 1) lor 1
    end
    else begin
      free f slot;
      f.severed.(n) <- slot lsl 1
    end;
    n + 1
  end
  else n

let sever f e =
  let g = f.net.Network.graph in
  let u = Digraph.edge_src g e and v = Digraph.edge_dst g e in
  let n = sever_at f e u 0 in
  if v <> u then sever_at f e v n else n

let open_failure = 0
let closed_failure = 1
let shorted = 2

let add_faulty_deg f e d =
  let g = f.net.Network.graph in
  let u = Digraph.edge_src g e and v = Digraph.edge_dst g e in
  f.faulty_deg.(u) <- f.faulty_deg.(u) + d;
  if v <> u then f.faulty_deg.(v) <- f.faulty_deg.(v) + d

let mark_failed f e ~closed =
  f.fstate.(e) <- (if closed then Fault.Closed_failure else Fault.Open_failure);
  add_faulty_deg f e 1;
  if not closed then open_failure
  else begin
    (* two terminals in one closed-contraction class is the Lemma 7
       catastrophe; Dyn_conn maintains the verdict incrementally *)
    Dyn_conn.close f.conn e;
    if Dyn_conn.terminals_shorted f.conn then shorted else closed_failure
  end

let mark_repaired f e =
  if Fault.state_equal f.fstate.(e) Fault.Closed_failure then
    Dyn_conn.reopen f.conn e;
  f.fstate.(e) <- Fault.Normal;
  add_faulty_deg f e (-1)

let terminals_shorted f = Dyn_conn.terminals_shorted f.conn

(* ---- the failure clock ---- *)

(* m independent clocks of rate 1/mtbf sum to one Poisson stream of rate
   m/mtbf whose events land on a uniformly chosen switch; a tick on a
   switch that is already down is discarded, which thins each normal
   switch's stream back to rate 1/mtbf *)
let arm_tick f rng =
  let m = Array.length f.fstate in
  schedule f
    (Dist.exponential rng ~rate:(float_of_int m /. f.mtbf))
    ev_tick

let start_clock f rng =
  if f.mtbf < infinity && Array.length f.fstate > 0 then arm_tick f rng

let discarded = -1

let tick f rng =
  let m = Array.length f.fstate in
  let e = Rng.int rng m in
  let r =
    if not (is_normal f.fstate.(e)) then discarded
    else begin
      let closed = Rng.bool rng in
      if f.mttr < infinity then
        schedule f (Dist.exponential rng ~rate:(1.0 /. f.mttr)) (ev_repair e)
      else Vec.push f.lost e;
      f.failed <- f.failed + 1;
      f.failures <- f.failures + 1;
      (e lsl 2) lor mark_failed f e ~closed
    end
  in
  (* with every switch down nothing can fail: the clock stops until the
     next repair *)
  if f.failed < m then arm_tick f rng;
  r

let repair f rng e =
  mark_repaired f e;
  f.failed <- f.failed - 1;
  f.repairs <- f.repairs + 1;
  if f.failed = Array.length f.fstate - 1 then arm_tick f rng

(* ---- reset ---- *)

let refill p =
  let n = Array.length p.items in
  for i = 0 to n - 1 do
    p.items.(i) <- i;
    p.pos.(i) <- i
  done;
  p.size <- n

(* each step undoes what the run did, so the cost is the run's live
   calls, its failed switches and its pending events, plus O(cap) for
   the pools and the call store *)
let reset f ~mtbf ~mttr =
  let sl = ref f.live_head in
  while !sl >= 0 do
    unroute f !sl;
    sl := f.c_next.(!sl)
  done;
  (* the switches the clock left failed: with a finite mttr each has
     its one repair pending in the heap, with mttr = infinity none does
     and each is on [lost] once *)
  for i = 0 to Heap.size f.heap - 1 do
    let ev = Heap.nth f.heap i in
    if ev land 3 = 3 then mark_repaired f (ev lsr 2)
  done;
  for i = 0 to Vec.length f.lost - 1 do
    mark_repaired f (Vec.get f.lost i)
  done;
  Vec.clear f.lost;
  Heap.clear f.heap;
  (* [draw] indexes the pool's items, so their order is part of the
     draw stream: back to the identity [create] starts from *)
  refill f.idle_in;
  refill f.idle_out;
  for s = 0 to f.cap - 1 do
    f.c_in.(s) <- -1;
    f.c_out.(s) <- -1;
    f.c_stamp.(s) <- 0;
    f.c_plen.(s) <- 0;
    f.c_prev.(s) <- -1;
    f.c_next.(s) <- (if s + 1 < f.cap then s + 1 else -1)
  done;
  f.live_head <- -1;
  f.live_count <- 0;
  f.free_head <- (if f.cap > 0 then 0 else -1);
  f.max_concurrent <- 0;
  f.failed <- 0;
  f.events <- 0;
  f.failures <- 0;
  f.repairs <- 0;
  f.severed.(0) <- 0;
  f.severed.(1) <- 0;
  f.fs.(0) <- 0.0;
  f.fs.(1) <- 0.0;
  f.mtbf <- mtbf;
  f.mttr <- mttr

(* ---- the event loop ---- *)

type 'a handlers = {
  stop : 'a -> bool;
  arrival : 'a -> unit;
  failure : 'a -> int -> unit;
  release : 'a -> int -> unit;
  repaired : 'a -> unit;
}

(* the heap's next time is read once per event: a second read boxes a
   float on every event *)
let fire f rng ~until h st =
  let heap = f.heap in
  let continue_ = ref true in
  while !continue_ && not (h.stop st || Heap.is_empty heap) do
    let t = Heap.min_time heap in
    if t > until then continue_ := false
    else begin
      let ev = Heap.pop heap in
      advance f t;
      if ev = ev_tick then begin
        let r = tick f rng in
        if r <> discarded then begin
          f.events <- f.events + 1;
          h.failure st r
        end
      end
      else begin
        f.events <- f.events + 1;
        match ev land 3 with
        | 0 -> h.arrival st
        | 1 ->
            let slot = hangup f (ev lsr 2) in
            if slot >= 0 then h.release st slot
        | _ ->
            repair f rng (ev lsr 2);
            h.repaired st
      end
    end
  done
