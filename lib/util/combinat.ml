let log_factorial_table =
  lazy
    (let t = Array.make 257 0.0 in
     for i = 2 to 256 do
       t.(i) <- t.(i - 1) +. log (float_of_int i)
     done;
     t)

(* Stirling series: ln n! = n ln n - n + (1/2) ln (2 pi n) + 1/(12n) - ... *)
let log_factorial n =
  if n < 0 then invalid_arg "Combinat.log_factorial"
  else if n <= 256 then (Lazy.force log_factorial_table).(n)
  else
    let nf = float_of_int n in
    (nf *. log nf) -. nf
    +. (0.5 *. log (2.0 *. Float.pi *. nf))
    +. (1.0 /. (12.0 *. nf))
    -. (1.0 /. (360.0 *. (nf ** 3.0)))

let log_binomial n k =
  if k < 0 || k > n then neg_infinity
  else log_factorial n -. log_factorial k -. log_factorial (n - k)

let binomial n k =
  if k < 0 || k > n then 0.0
  else if n <= 60 then begin
    (* exact product form to avoid rounding on small cases *)
    let k = min k (n - k) in
    let acc = ref 1.0 in
    for i = 1 to k do
      acc := !acc *. float_of_int (n - k + i) /. float_of_int i
    done;
    Float.round !acc
  end
  else exp (log_binomial n k)

let iter_subsets ~n ~k f =
  if k < 0 || k > n then invalid_arg "Combinat.iter_subsets";
  if k = 0 then f [||]
  else begin
    let a = Array.init k (fun i -> i) in
    let continue = ref true in
    while !continue do
      f a;
      (* advance to the next lexicographic k-subset *)
      let i = ref (k - 1) in
      while !i >= 0 && a.(!i) = n - k + !i do
        decr i
      done;
      if !i < 0 then continue := false
      else begin
        a.(!i) <- a.(!i) + 1;
        for j = !i + 1 to k - 1 do
          a.(j) <- a.(j - 1) + 1
        done
      end
    done
  end

let choose_indices ~rand_int ~n ~k =
  if k < 0 || k > n then invalid_arg "Combinat.choose_indices";
  let a = Array.init n (fun i -> i) in
  for i = 0 to k - 1 do
    let j = i + rand_int (n - i) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done;
  let out = Array.sub a 0 k in
  Array.sort compare out;
  out
