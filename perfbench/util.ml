(* Small measurement helpers shared by the workloads and the layer
   probes: a monotonic nanosecond clock, order statistics, growable
   sample buffers, peak RSS and allocation counters. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

let seconds_since t0 = float_of_int (now_ns () - t0) *. 1e-9

(* Linear interpolation between closest ranks (the "inclusive" method of
   Python's statistics.quantiles, numpy's default). *)
let quantile xs q =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then nan
  else
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    if i >= n - 1 then a.(n - 1)
    else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median xs = quantile xs 0.5

let ratio a b = if b = 0.0 then 0.0 else a /. b

let iratio a b = ratio (float_of_int a) (float_of_int b)

(* Growable float sample buffer. *)
module Samples = struct
  type t = { mutable a : float array; mutable n : int }

  let create () = { a = Array.make 1024 0.0; n = 0 }

  let add s x =
    if s.n = Array.length s.a then begin
      let b = Array.make (2 * s.n) 0.0 in
      Array.blit s.a 0 b 0 s.n;
      s.a <- b
    end;
    s.a.(s.n) <- x;
    s.n <- s.n + 1

  let length s = s.n

  let to_array s = Array.sub s.a 0 s.n

  let quantile s q = quantile (to_array s) q
end

(* Peak resident set size of this process, in MiB (VmHWM). *)
let peak_rss_mb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> 0.0
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          let rec scan () =
            match In_channel.input_line ic with
            | None -> 0.0
            | Some l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
                Scanf.sscanf
                  (String.sub l 6 (String.length l - 6))
                  " %d" (fun kb -> float_of_int kb /. 1024.0)
            | Some _ -> scan ()
          in
          scan ())

let counter name =
  Ftcsn_obs.Counter.get
    (Ftcsn_obs.Metrics.counter Ftcsn_obs.Metrics.default name)

(* Run [f] [reps] times back to back and return the median wall time in
   seconds together with the last result. *)
let median_time ~reps f =
  let times = Array.make reps 0.0 in
  let last = ref None in
  for i = 0 to reps - 1 do
    let t0 = now_ns () in
    last := Some (f ());
    times.(i) <- seconds_since t0
  done;
  (median times, Option.get !last)

(* A rolling digest: outputs folded into one MD5 so two runs (or an
   untraced and a traced run) can be compared cheaply. *)
module Fold = struct
  type t = Buffer.t

  let create () = Buffer.create 4096

  let add (b : t) s =
    Buffer.add_string b s;
    Buffer.add_char b '\n';
    if Buffer.length b > 1 lsl 16 then begin
      let d = Digest.string (Buffer.contents b) in
      Buffer.clear b;
      Buffer.add_string b d
    end

  let digest (b : t) = Digest.string (Buffer.contents b)
end

let float_bits x = Printf.sprintf "%Lx" (Int64.bits_of_float x)

(* Op times in ns in fixed memory: buckets 0.5% wide on a log scale,
   the last one holding everything longer; quantiles interpolate within
   a bucket. *)
module Loghist = struct
  let base = 1.005

  let buckets = 4000 (* up to 1.005^4000 ns, about 0.5 s *)

  type t = { c : int array; mutable n : int }

  let create () = { c = Array.make buckets 0; n = 0 }

  let add h ns =
    let b = if ns <= 1.0 then 0 else min (buckets - 1) (int_of_float (log ns /. log base)) in
    h.c.(b) <- h.c.(b) + 1;
    h.n <- h.n + 1

  let quantile h q =
    if h.n = 0 then nan
    else
      let target = q *. float_of_int (h.n - 1) in
      let rec go b below =
        let upto = below + h.c.(b) in
        if float_of_int upto > target || b = buckets - 1 then (b, below) else go (b + 1) upto
      in
      let b, below = go 0 0 in
      let frac = (target -. float_of_int below +. 0.5) /. float_of_int (max 1 h.c.(b)) in
      base ** (float_of_int b +. Float.min 1.0 frac)
end
