(* The 64-bit state lives in 8 bytes read and written with
   [Bytes.get/set_int64_ne], so native code keeps it unboxed between the
   load and the store: a draw allocates nothing, where a
   [mutable state : int64] field stores a fresh box on every draw. *)
type t = Bytes.t

let get t = Bytes.get_int64_ne t 0
let set t s = Bytes.set_int64_ne t 0 s

let create seed =
  let t = Bytes.create 8 in
  set t seed;
  t

let golden_gamma = 0x9E3779B97F4A7C15L

(* Mixing function mix64 from the SplitMix64 reference implementation. *)
let[@inline] mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

(* advance the state by one step and return the new state *)
let[@inline] step t =
  let s = Int64.add (get t) golden_gamma in
  set t s;
  s

let next t = mix (step t)

(* the immediate-int accessors: a function returning an [int64] boxes
   it unless the caller inlines it, which dev builds never do across
   modules; an [int] result is never boxed *)
let next_int t = Int64.to_int (mix (step t))
let next_bits53 t = Int64.to_int (Int64.shift_right_logical (mix (step t)) 11)

let split t = create (next t)

let substream t i =
  let offset = Int64.mul (Int64.of_int (i + 1)) golden_gamma in
  create (mix (Int64.add (get t) offset))

let advance t k =
  set t (Int64.add (get t) (Int64.mul (Int64.of_int k) golden_gamma))

let copy = Bytes.copy
