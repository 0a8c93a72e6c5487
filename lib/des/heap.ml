type 'a t = {
  mutable time : float array;
  mutable seq : int array;
  mutable payload : 'a array;
  mutable size : int;
  mutable next_seq : int;
  dummy : 'a;
}

let create ?(capacity = 64) ~dummy () =
  let capacity = max 1 capacity in
  {
    time = Array.make capacity 0.0;
    seq = Array.make capacity 0;
    payload = Array.make capacity dummy;
    size = 0;
    next_seq = 0;
    dummy;
  }

let size h = h.size

let is_empty h = h.size = 0

(* lexicographic (time, seq) *)
let before h i j =
  h.time.(i) < h.time.(j)
  || (h.time.(i) = h.time.(j) && h.seq.(i) < h.seq.(j))

let swap h i j =
  let t = h.time.(i) in
  h.time.(i) <- h.time.(j);
  h.time.(j) <- t;
  let s = h.seq.(i) in
  h.seq.(i) <- h.seq.(j);
  h.seq.(j) <- s;
  let p = h.payload.(i) in
  h.payload.(i) <- h.payload.(j);
  h.payload.(j) <- p

let grow h =
  let cap = Array.length h.time in
  let cap' = 2 * cap in
  let time = Array.make cap' 0.0 in
  let seq = Array.make cap' 0 in
  let payload = Array.make cap' h.dummy in
  Array.blit h.time 0 time 0 cap;
  Array.blit h.seq 0 seq 0 cap;
  Array.blit h.payload 0 payload 0 cap;
  h.time <- time;
  h.seq <- seq;
  h.payload <- payload

let push h ~time x =
  if not (Float.is_finite time) then
    invalid_arg "Heap.push: non-finite event time";
  if h.size = Array.length h.time then grow h;
  let i = h.size in
  h.time.(i) <- time;
  h.seq.(i) <- h.next_seq;
  h.payload.(i) <- x;
  h.next_seq <- h.next_seq + 1;
  h.size <- h.size + 1;
  (* sift up *)
  let i = ref i in
  while !i > 0 && before h !i ((!i - 1) / 2) do
    swap h !i ((!i - 1) / 2);
    i := (!i - 1) / 2
  done

let min_time h =
  if h.size = 0 then invalid_arg "Heap.min_time: empty";
  h.time.(0)

let pop h =
  if h.size = 0 then invalid_arg "Heap.pop: empty";
  let x = h.payload.(0) in
  h.size <- h.size - 1;
  if h.size > 0 then begin
    h.time.(0) <- h.time.(h.size);
    h.seq.(0) <- h.seq.(h.size);
    h.payload.(0) <- h.payload.(h.size)
  end;
  h.payload.(h.size) <- h.dummy;
  (* sift down *)
  let i = ref 0 in
  let continue = ref true in
  while !continue do
    let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
    let smallest = ref !i in
    if l < h.size && before h l !smallest then smallest := l;
    if r < h.size && before h r !smallest then smallest := r;
    if !smallest = !i then continue := false
    else begin
      swap h !i !smallest;
      i := !smallest
    end
  done;
  x

let nth h i =
  if i < 0 || i >= h.size then invalid_arg "Heap.nth: index out of range";
  h.payload.(i)

let clear h =
  Array.fill h.payload 0 h.size h.dummy;
  h.size <- 0
