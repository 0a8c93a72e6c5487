(* The plain disjoint-set forest, kept as the test oracles' own: the
   library's [Ftcsn_util.Union_find] resets by generation stamps, and
   the oracles that check it ([Strip_ref], [Traffic_ref], test_scale's
   and test_reliability's contraction counts) must not share its code.

   Do not "improve" this module; that would erase the oracle. *)

type t = {
  parent : int array;
  rank : int array;
}

let create n =
  {
    parent = Array.init n (fun i -> i);
    rank = Array.make n 0;
  }

let size t = Array.length t.parent

let reset t =
  let n = Array.length t.parent in
  for i = 0 to n - 1 do
    t.parent.(i) <- i;
    t.rank.(i) <- 0
  done

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
    if t.rank.(ra) < t.rank.(rb) then t.parent.(ra) <- rb
    else if t.rank.(rb) < t.rank.(ra) then t.parent.(rb) <- ra
    else begin
      t.parent.(rb) <- ra;
      t.rank.(ra) <- t.rank.(ra) + 1
    end
  end

let equiv t a b = find t a = find t b
