(* Generation-stamped forest: an element whose stamp is stale is a
   singleton that has simply not been touched this generation, so [reset]
   is a counter bump and [find] lazily re-initialises each element the
   first time a generation observes it. *)
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
