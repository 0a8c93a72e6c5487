let pow x k =
  if k < 0 then invalid_arg "Prob.pow";
  let rec go base k acc =
    if k = 0 then acc
    else go (base *. base) (k / 2) (if k land 1 = 1 then acc *. base else acc)
  in
  go x k 1.0

let relative_entropy a p =
  let term x y =
    if x = 0.0 then 0.0 else x *. log (x /. y)
  in
  term a p +. term (1.0 -. a) (1.0 -. p)

let chernoff_upper ~n ~p ~k =
  let a = float_of_int k /. float_of_int n in
  if a <= p then 1.0
  else exp (-.float_of_int n *. relative_entropy a p)

let wilson_interval ~successes ~trials ~z =
  if trials = 0 then (0.0, 1.0)
  else begin
    let n = float_of_int trials in
    let phat = float_of_int successes /. n in
    let z2 = z *. z in
    let denom = 1.0 +. (z2 /. n) in
    let centre = (phat +. (z2 /. (2.0 *. n))) /. denom in
    let half =
      z /. denom
      *. sqrt ((phat *. (1.0 -. phat) /. n) +. (z2 /. (4.0 *. n *. n)))
    in
    (Float.max 0.0 (centre -. half), Float.min 1.0 (centre +. half))
  end
