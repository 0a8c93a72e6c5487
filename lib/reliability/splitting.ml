module Rng = Ftcsn_prng.Rng
module Trials = Ftcsn_sim.Trials
module Metrics = Ftcsn_obs.Metrics
module Counter = Ftcsn_obs.Counter
module Trace = Ftcsn_obs.Trace

type estimate = {
  mean : float;
  rel_err : float;
  ci_low : float;
  ci_high : float;
  trials : int;
  var_per_trial : float;
  variance_ratio : float;
  evals : int;
}

(* sample mean/variance of the per-trial estimator Z; the CI is the
   normal approximation (Z is not Bernoulli, so Wilson does not apply) *)
let finish ~n ~sum ~sumsq ~evals =
  let nf = float_of_int n in
  let mean = if n = 0 then 0.0 else sum /. nf in
  let var =
    if n < 2 then 0.0
    else Float.max 0.0 ((sumsq -. (nf *. mean *. mean)) /. (nf -. 1.0))
  in
  let se = if n = 0 then 0.0 else sqrt (var /. nf) in
  let rel_err = if mean > 0.0 then se /. mean else infinity in
  let mc_var = mean *. (1.0 -. mean) in
  let variance_ratio =
    if var > 0.0 then mc_var /. var else if mc_var = 0.0 then 1.0 else infinity
  in
  {
    mean;
    rel_err;
    ci_low = Float.max 0.0 (mean -. (1.96 *. se));
    ci_high = mean +. (1.96 *. se);
    trials = n;
    var_per_trial = var;
    variance_ratio;
    evals;
  }

let pp ppf e =
  Format.fprintf ppf "%.4g [%.4g, %.4g] rel_err=%.3g (%d)" e.mean e.ci_low
    e.ci_high e.rel_err e.trials

let counter name = Metrics.counter Metrics.default name

(* ---------- multilevel splitting ---------- *)

type schedule = {
  levels : float array;
  splits : int array;
  entry_rate : float;
}

let max_split = 64

let check_schedule s =
  let k = Array.length s.levels in
  if k = 0 then invalid_arg "Splitting: schedule has no levels";
  if Array.length s.splits <> k - 1 then
    invalid_arg "Splitting: schedule needs one split factor per level gap";
  Array.iteri
    (fun d l ->
      if not (l > 0.0) then invalid_arg "Splitting: levels must be positive";
      if d > 0 && not (l < s.levels.(d - 1)) then
        invalid_arg "Splitting: levels must be strictly decreasing")
    s.levels;
  Array.iter
    (fun f ->
      if f < 1 then invalid_arg "Splitting: split factors must be >= 1")
    s.splits

let check_mutate mutate =
  if not (mutate > 0.0 && mutate <= 1.0) then
    invalid_arg "Splitting: mutate fraction must be in (0, 1]"

(* One block-Metropolis move, invariant for U[0,1)^m conditioned on
   {phi <= level}: propose [dst] = [src] with each coordinate resampled
   independently with probability [mutate]; accept iff the constraint
   still holds, else keep the parent state.  Returns the resulting phi
   (the proposal's on acceptance, [src_phi] on rejection, when [dst] is
   restored to a copy of [src]).

   The move mixes two reversible kernels, chosen by a fair draw:

   - a global refresh resampling chosen coordinates on [0, 1).  Ergodic
     across failure modes, but deep in the ladder a touched critical
     coordinate must land below ~2·level to keep the constraint, so
     acceptance decays with the level and the population's phi values
     would collapse onto a few ancestral atoms (stalling the pilot's
     strictly-decreasing quantiles);
   - a local refresh resampling each chosen coordinate within its side
     of the 2·level cut (clamped to [0, 1)).  Class intervals are
     identical for parent and proposal, so this kernel is symmetric for
     any fixed cut and the same accept test keeps it exact.  Under the
     [Pipeline.critical_eps] convention (faulty iff u < 2ε) it preserves
     the faulty set at [level], so monotone importance functions accept
     it almost surely; it cannot switch failure modes, but it renews the
     fine structure (and the running minimum) below the cut at every
     move instead of waiting for a global redraw to land there. *)
let metropolis_move ~mutate ~threshold ~ws ~level ~src ~src_phi ~dst rng =
  let m = Array.length src in
  Array.blit src 0 dst 0 m;
  let local = Rng.float rng < 0.5 in
  if local then begin
    let cut = Float.min 1.0 (2.0 *. level) in
    for i = 0 to m - 1 do
      if Rng.float rng < mutate then
        dst.(i) <-
          (if src.(i) < cut then Rng.float rng *. cut
           else cut +. (Rng.float rng *. (1.0 -. cut)))
    done
  end
  else
    for i = 0 to m - 1 do
      if Rng.float rng < mutate then dst.(i) <- Rng.float rng
    done;
  let phi = threshold ws dst in
  if phi <= level then phi
  else begin
    Array.blit src 0 dst 0 m;
    src_phi
  end

(* the pilot's level cap, and the constrained moves that decorrelate
   each rebuilt population *)
let max_levels = 40
let moves = 6

let pilot ?(particles = 256) ?(p0 = 0.2) ?(mutate = 0.2) ?trace ~rng ~m
    ~target ~init ~prepare ~threshold () =
  if not (target > 0.0) then
    invalid_arg "Splitting.pilot: target must be > 0";
  if not (p0 > 0.0 && p0 < 1.0) then
    invalid_arg "Splitting.pilot: p0 must be in (0, 1)";
  if particles < 8 then invalid_arg "Splitting.pilot: need >= 8 particles";
  check_mutate mutate;
  if m < 1 then invalid_arg "Splitting.pilot: need >= 1 edge";
  let n = particles in
  let ws = init () in
  prepare ws rng;
  let evals = ref 0 in
  let phi u =
    incr evals;
    threshold ws u
  in
  let pop = ref (Array.init n (fun _ -> Array.make m 0.0)) in
  let spare = ref (Array.init n (fun _ -> Array.make m 0.0)) in
  let phis = ref (Array.make n 0.0) in
  let spare_phis = ref (Array.make n 0.0) in
  Trace.span trace "rare.pilot.seed" (fun () ->
      for i = 0 to n - 1 do
        let u = !pop.(i) in
        for j = 0 to m - 1 do
          u.(j) <- Rng.float rng
        done;
        !phis.(i) <- phi u
      done);
  let sorted = Array.make n 0.0 in
  (* p0-quantile among the phi values strictly below the current level:
     cloned particles sit exactly at the parent level, so the plain
     quantile could repeat it and the ladder would stall *)
  let quantile ~below =
    let c = ref 0 in
    for i = 0 to n - 1 do
      if !phis.(i) < below then begin
        sorted.(!c) <- !phis.(i);
        incr c
      end
    done;
    if !c = 0 then
      invalid_arg
        "Splitting.pilot: population collapsed at a level (no particle \
         strictly below it; raise particles or mutate)";
    let pref = Array.sub sorted 0 !c in
    Array.sort compare pref;
    let kq =
      max 0
        (min (!c - 1) (int_of_float (ceil (p0 *. float_of_int n)) - 1))
    in
    pref.(kq)
  in
  let tmp = Array.make m 0.0 in
  let levels = ref [] and splits = ref [] in
  let entry_rate = ref 1.0 in
  let survivors = Array.make n 0 in
  let finished = ref false in
  let depth = ref 0 in
  let ceiling = ref infinity in
  while not !finished do
    if !depth >= max_levels then
      invalid_arg
        (Printf.sprintf
           "Splitting.pilot: target %g not reached after %d levels (event too \
            rare for this ladder; lower p0, or raise particles or mutate)"
           target max_levels);
    Trace.span trace (Printf.sprintf "rare.pilot.level-%d" !depth) (fun () ->
        let l = quantile ~below:!ceiling in
        let l = if l <= target then target else l in
        ceiling := l;
        let c = ref 0 in
        for i = 0 to n - 1 do
          if !phis.(i) <= l then begin
            survivors.(!c) <- i;
            incr c
          end
        done;
        let frac = float_of_int !c /. float_of_int n in
        if !depth = 0 then entry_rate := frac
        else begin
          let s =
            if !c = 0 then max_split
            else max 1 (min max_split (int_of_float (Float.round (1.0 /. frac))))
          in
          splits := s :: !splits
        end;
        levels := l :: !levels;
        if l <= target then finished := true
        else begin
          (* rebuild the population at the new level: clone survivors
             round-robin, then decorrelate with constrained moves *)
          for i = 0 to n - 1 do
            let src = !pop.(survivors.(i mod !c)) in
            let dst = !spare.(i) in
            Array.blit src 0 dst 0 m;
            let p = ref !phis.(survivors.(i mod !c)) in
            for _ = 1 to moves do
              p :=
                metropolis_move ~mutate
                  ~threshold:(fun _ u -> phi u)
                  ~ws ~level:l ~src:dst ~src_phi:!p ~dst:tmp rng;
              Array.blit tmp 0 dst 0 m
            done;
            !spare_phis.(i) <- !p
          done;
          let t = !pop in
          pop := !spare;
          spare := t;
          let t = !phis in
          phis := !spare_phis;
          spare_phis := t
        end);
    incr depth
  done;
  Counter.add (counter "rare.pilot.threshold_evals") !evals;
  Counter.add (counter "rare.pilot.levels") (List.length !levels);
  {
    levels = Array.of_list (List.rev !levels);
    splits = Array.of_list (List.rev !splits);
    entry_rate = !entry_rate;
  }

type split_acc = {
  mutable n : int;
  mutable sum : float;
  mutable sumsq : float;
  mutable acc_evals : int;
  spawned : int array;
  reached : int array;
}

type 'ws split_scratch = {
  ws : 'ws;
  bufs : float array array;  (* one uniform vector per tree depth *)
  phis : float array;
}

let run ?(jobs = 1) ?trace ?(label = "rare.split") ?(mutate = 0.2)
    ~trials ~rng ~m ~schedule ~init ~prepare ~threshold () =
  check_schedule schedule;
  check_mutate mutate;
  if m < 1 then invalid_arg "Splitting.run: need >= 1 edge";
  let levels = schedule.levels and splits = schedule.splits in
  let k = Array.length levels in
  let denom = Array.fold_left (fun a s -> a *. float_of_int s) 1.0 splits in
  let acc =
    Trials.map_reduce ~jobs ?trace ~label ~trials ~rng
      ~init:(fun () ->
        {
          ws = init ();
          bufs = Array.init k (fun _ -> Array.make m 0.0);
          phis = Array.make k 0.0;
        })
      ~create_acc:(fun () ->
        {
          n = 0;
          sum = 0.0;
          sumsq = 0.0;
          acc_evals = 0;
          spawned = Array.make k 0;
          reached = Array.make k 0;
        })
      ~trial:(fun scr acc sub ->
        prepare scr.ws sub;
        let u0 = scr.bufs.(0) in
        for i = 0 to m - 1 do
          u0.(i) <- Rng.float sub
        done;
        let phi0 = threshold scr.ws u0 in
        acc.acc_evals <- acc.acc_evals + 1;
        acc.spawned.(0) <- acc.spawned.(0) + 1;
        let z =
          if phi0 > levels.(0) then 0.0
          else begin
            acc.reached.(0) <- acc.reached.(0) + 1;
            scr.phis.(0) <- phi0;
            (* depth-first splitting tree: buffer d holds the particle
               at level d, children overwrite buffer d+1 one at a time *)
            let rec descend d =
              if d = k - 1 then 1
              else begin
                let total = ref 0 in
                for _ = 1 to splits.(d) do
                  acc.spawned.(d + 1) <- acc.spawned.(d + 1) + 1;
                  let phi =
                    metropolis_move ~mutate ~threshold ~ws:scr.ws
                      ~level:levels.(d) ~src:scr.bufs.(d)
                      ~src_phi:scr.phis.(d) ~dst:scr.bufs.(d + 1) sub
                  in
                  acc.acc_evals <- acc.acc_evals + 1;
                  if phi <= levels.(d + 1) then begin
                    acc.reached.(d + 1) <- acc.reached.(d + 1) + 1;
                    scr.phis.(d + 1) <- phi;
                    total := !total + descend (d + 1)
                  end
                done;
                !total
              end
            in
            float_of_int (descend 0) /. denom
          end
        in
        acc.n <- acc.n + 1;
        acc.sum <- acc.sum +. z;
        acc.sumsq <- acc.sumsq +. (z *. z))
      ~combine:(fun a b ->
        a.n <- a.n + b.n;
        a.sum <- a.sum +. b.sum;
        a.sumsq <- a.sumsq +. b.sumsq;
        a.acc_evals <- a.acc_evals + b.acc_evals;
        for d = 0 to k - 1 do
          a.spawned.(d) <- a.spawned.(d) + b.spawned.(d);
          a.reached.(d) <- a.reached.(d) + b.reached.(d)
        done)
      ()
  in
  Counter.add (counter "rare.split.threshold_evals") acc.acc_evals;
  Counter.add (counter "rare.split.trials") acc.n;
  for d = 0 to k - 1 do
    Counter.add
      (counter (Printf.sprintf "rare.split.level%02d.spawned" d))
      acc.spawned.(d);
    Counter.add
      (counter (Printf.sprintf "rare.split.level%02d.reached" d))
      acc.reached.(d)
  done;
  finish ~n:acc.n ~sum:acc.sum ~sumsq:acc.sumsq ~evals:acc.acc_evals

(* ---------- cross-entropy tilted importance sampling ---------- *)

type tilt = { t_open : float array; t_close : float array }

let uniform_tilt ~m ~eps_open ~eps_close =
  if eps_open < 0.0 || eps_close < 0.0 || eps_open +. eps_close > 1.0 then
    invalid_arg "Splitting.uniform_tilt: bad probabilities";
  { t_open = Array.make m eps_open; t_close = Array.make m eps_close }

let check_target ~eps_open ~eps_close =
  if
    eps_open < 0.0 || eps_close < 0.0
    || eps_open +. eps_close > 1.0
    || eps_open +. eps_close <= 0.0
  then
    invalid_arg
      "Splitting: target probabilities must satisfy 0 < eps_open + eps_close \
       <= 1"

let check_tilt ~m ~eps_open ~eps_close tilt =
  if Array.length tilt.t_open <> m || Array.length tilt.t_close <> m then
    invalid_arg "Splitting: tilt arrays must have one entry per edge";
  for e = 0 to m - 1 do
    let o = tilt.t_open.(e) and c = tilt.t_close.(e) in
    if o < 0.0 || c < 0.0 || o +. c >= 1.0 then
      invalid_arg "Splitting: tilt entries must satisfy t_open + t_close < 1";
    if eps_open > 0.0 && o = 0.0 then
      invalid_arg "Splitting: tilt has zero open mass at a positive target";
    if eps_close > 0.0 && c = 0.0 then
      invalid_arg "Splitting: tilt has zero closed mass at a positive target"
  done

(* n * l with the 0 * (-inf) = 0 convention (a zero-probability state
   that never occurred contributes nothing to the log-weight) *)
let mul0 n l = if n = 0 then 0.0 else float_of_int n *. l

let log0 x = if x > 0.0 then log x else neg_infinity

type curve_acc = {
  mutable cn : int;
  mutable hits : int;
  sums : float array;
  sumsqs : float array;
}

let tilted_curve ?(jobs = 1) ?trace ?(label = "rare.tilt_curve")
    ~trials ~rng ~m ~grid ~tilt ~init ~event () =
  let np = Array.length grid in
  if np = 0 then invalid_arg "Splitting.tilted_curve: empty grid";
  Array.iter (fun (eo, ec) -> check_target ~eps_open:eo ~eps_close:ec) grid;
  let eo_max, ec_max =
    Array.fold_left
      (fun (a, b) (eo, ec) -> (Float.max a eo, Float.max b ec))
      (0.0, 0.0) grid
  in
  check_tilt ~m ~eps_open:eo_max ~eps_close:ec_max tilt;
  (* per-point target log-probabilities; the weight of a pattern against
     point k depends only on its open/closed fault counts *)
  let lo = Array.map (fun (eo, _) -> log0 eo) grid in
  let lc = Array.map (fun (_, ec) -> log0 ec) grid in
  let ln = Array.map (fun (eo, ec) -> log (1.0 -. eo -. ec)) grid in
  (* per-edge proposal log-probabilities, base = all-normal *)
  let lqo = Array.map log0 tilt.t_open in
  let lqc = Array.map log0 tilt.t_close in
  let lqn =
    Array.init m (fun e -> log (1.0 -. tilt.t_open.(e) -. tilt.t_close.(e)))
  in
  let base_q = Array.fold_left ( +. ) 0.0 lqn in
  let acc =
    Trials.map_reduce ~jobs ?trace ~label ~trials ~rng
      ~init:(fun () -> (init (), Array.make m Fault.Normal))
      ~create_acc:(fun () ->
        {
          cn = 0;
          hits = 0;
          sums = Array.make np 0.0;
          sumsqs = Array.make np 0.0;
        })
      ~trial:(fun (ws, pattern) acc sub ->
        Fault.sample_tilted_into sub ~tilt_open:tilt.t_open
          ~tilt_close:tilt.t_close pattern;
        if event ws sub pattern then begin
          acc.hits <- acc.hits + 1;
          let n_open = ref 0 and n_close = ref 0 and log_q = ref base_q in
          for e = 0 to m - 1 do
            match pattern.(e) with
            | Fault.Normal -> ()
            | Fault.Open_failure ->
                incr n_open;
                log_q := !log_q -. lqn.(e) +. lqo.(e)
            | Fault.Closed_failure ->
                incr n_close;
                log_q := !log_q -. lqn.(e) +. lqc.(e)
          done;
          let n_normal = m - !n_open - !n_close in
          for p = 0 to np - 1 do
            let lw =
              mul0 !n_open lo.(p)
              +. mul0 !n_close lc.(p)
              +. mul0 n_normal ln.(p)
              -. !log_q
            in
            let w = exp lw in
            acc.sums.(p) <- acc.sums.(p) +. w;
            acc.sumsqs.(p) <- acc.sumsqs.(p) +. (w *. w)
          done
        end;
        acc.cn <- acc.cn + 1)
      ~combine:(fun a b ->
        a.cn <- a.cn + b.cn;
        a.hits <- a.hits + b.hits;
        for p = 0 to np - 1 do
          a.sums.(p) <- a.sums.(p) +. b.sums.(p);
          a.sumsqs.(p) <- a.sumsqs.(p) +. b.sumsqs.(p)
        done)
      ()
  in
  Counter.add (counter "rare.tilt.trials") acc.cn;
  Counter.add (counter "rare.tilt.hits") acc.hits;
  Array.init np (fun p ->
      finish ~n:acc.cn ~sum:acc.sums.(p) ~sumsq:acc.sumsqs.(p) ~evals:acc.cn)

let tilted ?jobs ?trace ?(label = "rare.tilt") ~trials ~rng ~m ~eps_open
    ~eps_close ~tilt ~init ~event () =
  (tilted_curve ?jobs ?trace ~label ~trials ~rng ~m
     ~grid:[| (eps_open, eps_close) |]
     ~tilt ~init ~event ()).(0)

let default_init_tilt ~m ~eps_open ~eps_close =
  (* inflate the target until a sample averages ~4 faulty switches, so
     the CE pilot sees failures immediately; keep the open:closed ratio *)
  let s = eps_open +. eps_close in
  let total = Float.min 0.2 (Float.max s (4.0 /. float_of_int m)) in
  let ro = eps_open /. s in
  uniform_tilt ~m ~eps_open:(total *. ro) ~eps_close:(total *. (1.0 -. ro))

(* the step fraction of each CE update toward the weighted fault
   frequencies *)
let smoothing = 0.5

let cross_entropy ?(iters = 4) ?(trials = 1000) ?(per_edge = false) ?trace
    ~rng ~m ~eps_open ~eps_close ~init ~event () =
  check_target ~eps_open ~eps_close;
  if iters < 0 then invalid_arg "Splitting.cross_entropy: iters must be >= 0";
  if trials < 1 then
    invalid_arg "Splitting.cross_entropy: trials must be >= 1";
  let tilt = default_init_tilt ~m ~eps_open ~eps_close in
  let ws = init () in
  let pattern = Array.make m Fault.Normal in
  let bo = Array.make m 0.0 and bc = Array.make m 0.0 in
  (* floor at the target (weights on failed edges stay <= 1), cap away
     from certainty, keep some normal mass *)
  let clamp_pair o c =
    let o = Float.max eps_open (Float.min 0.45 o) in
    let c = Float.max eps_close (Float.min 0.45 c) in
    let s = o +. c in
    if s > 0.9 then (o *. 0.9 /. s, c *. 0.9 /. s) else (o, c)
  in
  for it = 0 to iters - 1 do
    Trace.span trace (Printf.sprintf "rare.ce.iter-%d" it) (fun () ->
        let a = ref 0.0 in
        Array.fill bo 0 m 0.0;
        Array.fill bc 0 m 0.0;
        (* log-weight tables against the target for the current tilt *)
        let dlo =
          Array.init m (fun e -> log0 eps_open -. log0 tilt.t_open.(e))
        in
        let dlc =
          Array.init m (fun e -> log0 eps_close -. log0 tilt.t_close.(e))
        in
        let dln =
          Array.init m (fun e ->
              log (1.0 -. eps_open -. eps_close)
              -. log (1.0 -. tilt.t_open.(e) -. tilt.t_close.(e)))
        in
        let base = Array.fold_left ( +. ) 0.0 dln in
        for _ = 1 to trials do
          Fault.sample_tilted_into rng ~tilt_open:tilt.t_open
            ~tilt_close:tilt.t_close pattern;
          if event ws rng pattern then begin
            let lw = ref base in
            for e = 0 to m - 1 do
              match pattern.(e) with
              | Fault.Normal -> ()
              | Fault.Open_failure -> lw := !lw -. dln.(e) +. dlo.(e)
              | Fault.Closed_failure -> lw := !lw -. dln.(e) +. dlc.(e)
            done;
            let w = exp !lw in
            a := !a +. w;
            for e = 0 to m - 1 do
              match pattern.(e) with
              | Fault.Normal -> ()
              | Fault.Open_failure -> bo.(e) <- bo.(e) +. w
              | Fault.Closed_failure -> bc.(e) <- bc.(e) +. w
            done
          end
        done;
        if !a = 0.0 then
          (* no failure observed: inflate and retry next iteration *)
          for e = 0 to m - 1 do
            let o, c =
              clamp_pair (2.0 *. tilt.t_open.(e)) (2.0 *. tilt.t_close.(e))
            in
            tilt.t_open.(e) <- o;
            tilt.t_close.(e) <- c
          done
        else if per_edge then
          for e = 0 to m - 1 do
            let no = bo.(e) /. !a and nc = bc.(e) /. !a in
            let o =
              ((1.0 -. smoothing) *. tilt.t_open.(e)) +. (smoothing *. no)
            in
            let c =
              ((1.0 -. smoothing) *. tilt.t_close.(e)) +. (smoothing *. nc)
            in
            let o, c = clamp_pair o c in
            tilt.t_open.(e) <- o;
            tilt.t_close.(e) <- c
          done
        else begin
          let so = Array.fold_left ( +. ) 0.0 bo
          and sc = Array.fold_left ( +. ) 0.0 bc in
          let no = so /. (!a *. float_of_int m)
          and nc = sc /. (!a *. float_of_int m) in
          for e = 0 to m - 1 do
            let o =
              ((1.0 -. smoothing) *. tilt.t_open.(e)) +. (smoothing *. no)
            in
            let c =
              ((1.0 -. smoothing) *. tilt.t_close.(e)) +. (smoothing *. nc)
            in
            let o, c = clamp_pair o c in
            tilt.t_open.(e) <- o;
            tilt.t_close.(e) <- c
          done
        end)
  done;
  Counter.add (counter "rare.ce.iterations") iters;
  tilt
