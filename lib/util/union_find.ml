type t = {
  parent : int array;
  rank : int array;
  csize : int array;
  mutable classes : int;
}

let create n =
  {
    parent = Array.init n (fun i -> i);
    rank = Array.make n 0;
    csize = Array.make n 1;
    classes = n;
  }

let size t = Array.length t.parent

let reset t =
  let n = Array.length t.parent in
  for i = 0 to n - 1 do
    t.parent.(i) <- i;
    t.rank.(i) <- 0;
    t.csize.(i) <- 1
  done;
  t.classes <- n

let rec find t i =
  let p = t.parent.(i) in
  if p = i then i
  else begin
    let root = find t p in
    t.parent.(i) <- root;
    root
  end

let union t a b =
  let ra = find t a and rb = find t b in
  if ra <> rb then begin
    t.classes <- t.classes - 1;
    if t.rank.(ra) < t.rank.(rb) then begin
      t.parent.(ra) <- rb;
      t.csize.(rb) <- t.csize.(rb) + t.csize.(ra)
    end
    else if t.rank.(rb) < t.rank.(ra) then begin
      t.parent.(rb) <- ra;
      t.csize.(ra) <- t.csize.(ra) + t.csize.(rb)
    end
    else begin
      t.parent.(rb) <- ra;
      t.csize.(ra) <- t.csize.(ra) + t.csize.(rb);
      t.rank.(ra) <- t.rank.(ra) + 1
    end
  end

let equiv t a b = find t a = find t b

let class_count t = t.classes

let class_size t i = t.csize.(find t i)

let representatives t = Array.init (size t) (fun i -> find t i)

let compress_labels t =
  let n = size t in
  let label = Array.make n (-1) in
  let next = ref 0 in
  for i = 0 to n - 1 do
    let r = find t i in
    if label.(r) = -1 then begin
      label.(r) <- !next;
      incr next
    end
  done;
  for i = 0 to n - 1 do
    label.(i) <- label.(find t i)
  done;
  (label, !next)

(* Generation-stamped forest: an element whose stamp is stale is a
   singleton that has simply not been touched this generation, so [reset]
   is a counter bump and [find] lazily re-initialises each element the
   first time a generation observes it. *)
module Stamped = struct
  type t = {
    parent : int array;
    rank : int array;
    stamp : int array;
    mutable gen : int;
  }

  let create n =
    (* stamps start at 0 and [gen] at 1, so every element begins stale *)
    { parent = Array.make n 0; rank = Array.make n 0;
      stamp = Array.make n 0; gen = 1 }

  let size t = Array.length t.parent

  let reset t = t.gen <- t.gen + 1

  let rec find t i =
    if t.stamp.(i) <> t.gen then begin
      t.stamp.(i) <- t.gen;
      t.parent.(i) <- i;
      t.rank.(i) <- 0;
      i
    end
    else begin
      let p = t.parent.(i) in
      if p = i then i
      else begin
        let root = find t p in
        t.parent.(i) <- root;
        root
      end
    end

  let union t a b =
    let ra = find t a and rb = find t b in
    if ra <> rb then
      if t.rank.(ra) < t.rank.(rb) then t.parent.(ra) <- rb
      else if t.rank.(rb) < t.rank.(ra) then t.parent.(rb) <- ra
      else begin
        t.parent.(rb) <- ra;
        t.rank.(ra) <- t.rank.(ra) + 1
      end

  let equiv t a b = find t a = find t b
end
