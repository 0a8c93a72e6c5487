type t = Splitmix64.t

let create ~seed = Splitmix64.create (Int64.of_int seed)

let of_int64 = Splitmix64.create

let split = Splitmix64.split

let substream = Splitmix64.substream

let advance = Splitmix64.advance

let copy = Splitmix64.copy

let int64 = Splitmix64.next

(* Rejection sampling on the low 62 bits for exact uniformity, as a
   top-level loop: a local [let rec] closure would be allocated on every
   call. *)
let mask = 0x3FFF_FFFF_FFFF_FFFF

let rec draw_below t bound =
  let raw = Splitmix64.next_int t land mask in
  let v = raw mod bound in
  if raw - v > mask - bound + 1 then draw_below t bound else v

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  draw_below t bound

(* 53 high bits -> [0, 1) *)
let[@inline] float t =
  float_of_int (Splitmix64.next_bits53 t) *. (1.0 /. 9007199254740992.0)

let bool t = Splitmix64.next_int t land 1 = 1

let bernoulli t p =
  if p <= 0.0 then false else if p >= 1.0 then true else float t < p

let binomial t ~n ~p =
  if n < 0 then invalid_arg "Rng.binomial";
  if p <= 0.0 then 0
  else if p >= 1.0 then n
  else if p < 0.05 && n > 64 then begin
    (* Waiting-time (geometric-skip) method: O(np) expected draws. *)
    let log1mp = log (1.0 -. p) in
    let count = ref 0 in
    let pos = ref (-1) in
    let continue = ref true in
    while !continue do
      let u = float t in
      let skip = int_of_float (floor (log (1.0 -. u) /. log1mp)) in
      pos := !pos + 1 + skip;
      if !pos < n then incr count else continue := false
    done;
    !count
  end
  else begin
    let count = ref 0 in
    for _ = 1 to n do
      if float t < p then incr count
    done;
    !count
  end

let permutation t n = Ftcsn_util.Perm.shuffle ~rand_int:(int t) n

let sample_without_replacement t ~n ~k =
  Ftcsn_util.Combinat.choose_indices ~rand_int:(int t) ~n ~k
