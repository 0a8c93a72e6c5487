(* 16 singleton buckets, then 16 sub-buckets per octave up to 2^62. *)

let sub_bits = 4

let sub_count = 1 lsl sub_bits (* 16 *)

let n_buckets = 960 (* 16 + (62 - 4) * 16 + 16, rounded up *)

type t = {
  buckets : int array;
  mutable count : int;
  mutable sum : int;
  mutable min_v : int;
  mutable max_v : int;
}

let create () =
  { buckets = Array.make n_buckets 0; count = 0; sum = 0; min_v = 0; max_v = 0 }

let msb v =
  (* position of the highest set bit of v >= 1 *)
  let r = ref 0 and x = ref v in
  if !x lsr 32 > 0 then begin r := !r + 32; x := !x lsr 32 end;
  if !x lsr 16 > 0 then begin r := !r + 16; x := !x lsr 16 end;
  if !x lsr 8 > 0 then begin r := !r + 8; x := !x lsr 8 end;
  if !x lsr 4 > 0 then begin r := !r + 4; x := !x lsr 4 end;
  if !x lsr 2 > 0 then begin r := !r + 2; x := !x lsr 2 end;
  if !x lsr 1 > 0 then r := !r + 1;
  !r

let bucket_index v =
  let v = if v < 0 then 0 else v in
  if v < sub_count then v
  else
    let p = msb v in
    (sub_count * (p - sub_bits + 1)) + ((v lsr (p - sub_bits)) land (sub_count - 1))

let bucket_bounds i =
  if i < sub_count then (i, i)
  else
    let oct = i / sub_count and sub = i land (sub_count - 1) in
    let width = 1 lsl (oct - 1) in
    let lower = (sub_count + sub) * width in
    (lower, lower + width - 1)

let record t v =
  let v = if v < 0 then 0 else v in
  let i = bucket_index v in
  t.buckets.(i) <- t.buckets.(i) + 1;
  if t.count = 0 then begin
    t.min_v <- v;
    t.max_v <- v
  end
  else begin
    if v < t.min_v then t.min_v <- v;
    if v > t.max_v then t.max_v <- v
  end;
  t.count <- t.count + 1;
  t.sum <- t.sum + v

let count t = t.count

let sum t = t.sum

let min_value t = t.min_v

let max_value t = t.max_v

let mean t = if t.count = 0 then 0.0 else float_of_int t.sum /. float_of_int t.count

let quantile t q =
  if t.count = 0 then 0
  else begin
    let target =
      let x = int_of_float (ceil (q *. float_of_int t.count)) in
      if x < 1 then 1 else if x > t.count then t.count else x
    in
    let cum = ref 0 and result = ref 0 in
    (try
       Array.iteri
         (fun i c ->
           if c > 0 then begin
             cum := !cum + c;
             if !cum >= target then begin
               result := snd (bucket_bounds i);
               raise Exit
             end
           end)
         t.buckets
     with Exit -> ());
    (* never report beyond the recorded maximum *)
    if !result > t.max_v then t.max_v else !result
  end

let iter t f =
  Array.iteri
    (fun i c ->
      if c > 0 then
        let lower, upper = bucket_bounds i in
        f ~lower ~upper ~count:c)
    t.buckets

let to_json t =
  let buckets = ref [] in
  iter t (fun ~lower ~upper:_ ~count ->
      buckets := Json.List [ Json.Int lower; Json.Int count ] :: !buckets);
  Json.Obj
    [
      ("count", Json.Int t.count);
      ("sum", Json.Int t.sum);
      ("min", Json.Int t.min_v);
      ("max", Json.Int t.max_v);
      ("mean", Json.Float (mean t));
      ("p50", Json.Int (quantile t 0.5));
      ("p90", Json.Int (quantile t 0.9));
      ("p99", Json.Int (quantile t 0.99));
      ("buckets", Json.List (List.rev !buckets));
    ]
