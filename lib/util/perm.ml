type t = int array

let identity n = Array.init n (fun i -> i)

let is_valid p =
  let n = Array.length p in
  let seen = Array.make n false in
  let ok = ref true in
  Array.iter
    (fun x ->
      if x < 0 || x >= n || seen.(x) then ok := false else seen.(x) <- true)
    p;
  !ok

let inverse p =
  let inv = Array.make (Array.length p) 0 in
  Array.iteri (fun i x -> inv.(x) <- i) p;
  inv

let apply p i = p.(i)

let shuffle ~rand_int n =
  let p = identity n in
  for i = n - 1 downto 1 do
    let j = rand_int (i + 1) in
    let tmp = p.(i) in
    p.(i) <- p.(j);
    p.(j) <- tmp
  done;
  p

(* Heap's algorithm: generates each permutation by one swap from the last. *)
let iter_all n f =
  let a = identity n in
  let c = Array.make n 0 in
  f a;
  let i = ref 0 in
  while !i < n do
    if c.(!i) < !i then begin
      let j = if !i land 1 = 0 then 0 else c.(!i) in
      let tmp = a.(j) in
      a.(j) <- a.(!i);
      a.(!i) <- tmp;
      f a;
      c.(!i) <- c.(!i) + 1;
      i := 0
    end
    else begin
      c.(!i) <- 0;
      incr i
    end
  done

let cycles p =
  let n = Array.length p in
  let seen = Array.make n false in
  let out = ref [] in
  for i = 0 to n - 1 do
    if not seen.(i) then begin
      let cyc = ref [] in
      let j = ref i in
      while not seen.(!j) do
        seen.(!j) <- true;
        cyc := !j :: !cyc;
        j := p.(!j)
      done;
      out := List.rev !cyc :: !out
    end
  done;
  List.rev !out

let rotation n k =
  let k = ((k mod n) + n) mod n in
  Array.init n (fun i -> (i + k) mod n)

let pp ppf p =
  Format.fprintf ppf "[%a]"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf "; ")
       Format.pp_print_int)
    (Array.to_list p)
