type t = {
  mutable n : int;
  mutable mean : float;
  mutable m2 : float;
  mutable minv : float;
  mutable maxv : float;
  mutable sum : float;
}

let create () =
  { n = 0; mean = 0.0; m2 = 0.0; minv = infinity; maxv = neg_infinity; sum = 0.0 }

let add t x =
  t.n <- t.n + 1;
  t.sum <- t.sum +. x;
  let delta = x -. t.mean in
  t.mean <- t.mean +. (delta /. float_of_int t.n);
  t.m2 <- t.m2 +. (delta *. (x -. t.mean));
  if x < t.minv then t.minv <- x;
  if x > t.maxv then t.maxv <- x

let count t = t.n

let mean t = if t.n = 0 then 0.0 else t.mean

let variance t = if t.n < 2 then 0.0 else t.m2 /. float_of_int (t.n - 1)

let min_value t = t.minv

let max_value t = t.maxv

let sum t = t.sum

let of_array a =
  let t = create () in
  Array.iter (add t) a;
  t
