module Rng = Ftcsn_prng.Rng
module Prob = Ftcsn_util.Prob
module Trace = Ftcsn_obs.Trace
module Clock = Ftcsn_obs.Clock

type estimate = {
  successes : int;
  trials : int;
  mean : float;
  ci_low : float;
  ci_high : float;
}

let of_counts ~successes ~trials =
  let mean =
    if trials = 0 then 0.0 else float_of_int successes /. float_of_int trials
  in
  let ci_low, ci_high = Prob.wilson_interval ~successes ~trials ~z:1.96 in
  { successes; trials; mean; ci_low; ci_high }

let half_width e = (e.ci_high -. e.ci_low) /. 2.0

let pp ppf e =
  Format.fprintf ppf "%.4f [%.4f, %.4f] (%d/%d)" e.mean e.ci_low e.ci_high
    e.successes e.trials

type progress = {
  completed : int;
  cap : int;
  successes : int;
  elapsed : float;
  rate : float;
  jobs : int;
}

let default_chunk = 256

let recommended_jobs () = Domain.recommended_domain_count ()

(* ---------- persistent domain pool ----------

   Per-round [Domain.spawn]/[Domain.join] costs milliseconds per chunk
   round; on short runs that overhead dominates and makes jobs>1 a
   measured slowdown (see BENCH_timings.json).  Instead, worker domains
   are created lazily on first parallel use, parked on a condition
   variable between batches, and reused for every subsequent run in the
   process.  The pool only changes *where* a chunk executes — chunk
   boundaries, PRNG substream indexing and consumption order are decided
   by [exec] exactly as before — so every estimate stays bit-identical
   to the spawn-per-round engine it replaced.

   Publication safety: a task writes its result slot on a worker domain,
   then decrements the batch counter under the batch mutex (release);
   the scheduler observes the zero under the same mutex (acquire) before
   reading the slots. *)

module Pool = struct
  let c_spawns = Ftcsn_obs.Metrics.counter Ftcsn_obs.Metrics.default "trials.pool.spawns"

  type t = {
    m : Mutex.t;
    work : Condition.t;  (* signalled when tasks arrive or at shutdown *)
    queue : (unit -> unit) Queue.t;
    mutable size : int;  (* worker domains spawned so far *)
    mutable shutdown : bool;
    mutable domains : unit Domain.t list;
  }

  let pool =
    {
      m = Mutex.create ();
      work = Condition.create ();
      queue = Queue.create ();
      size = 0;
      shutdown = false;
      domains = [];
    }

  let rec worker_loop () =
    Mutex.lock pool.m;
    let rec next () =
      if pool.shutdown then None
      else
        match Queue.take_opt pool.queue with
        | Some _ as t -> t
        | None ->
            Condition.wait pool.work pool.m;
            next ()
    in
    match next () with
    | None -> Mutex.unlock pool.m
    | Some task ->
        Mutex.unlock pool.m;
        (* tasks carry their own exception handling; a raise here would
           kill the worker for the rest of the process *)
        (try task () with _ -> ());
        worker_loop ()

  let teardown () =
    Mutex.lock pool.m;
    pool.shutdown <- true;
    Condition.broadcast pool.work;
    let ds = pool.domains in
    pool.domains <- [];
    Mutex.unlock pool.m;
    List.iter Domain.join ds

  let registered = Atomic.make false

  let ensure n =
    if Atomic.compare_and_set registered false true then at_exit teardown;
    Mutex.lock pool.m;
    while pool.size < n && not pool.shutdown do
      pool.size <- pool.size + 1;
      Ftcsn_obs.Counter.incr c_spawns;
      pool.domains <- Domain.spawn worker_loop :: pool.domains
    done;
    Mutex.unlock pool.m

  type batch = {
    bm : Mutex.t;
    finished : Condition.t;
    mutable remaining : int;
  }

  let submit tasks =
    let b =
      {
        bm = Mutex.create ();
        finished = Condition.create ();
        remaining = Array.length tasks;
      }
    in
    let wrap task () =
      Fun.protect
        ~finally:(fun () ->
          Mutex.lock b.bm;
          b.remaining <- b.remaining - 1;
          if b.remaining = 0 then Condition.signal b.finished;
          Mutex.unlock b.bm)
        task
    in
    Mutex.lock pool.m;
    Array.iter
      (fun task ->
        Queue.add (wrap task) pool.queue;
        Condition.signal pool.work)
      tasks;
    Mutex.unlock pool.m;
    b

  (* Help-draining wait: before parking, the scheduler runs any still-
     queued tasks itself.  This keeps undersized pools (fewer workers
     than queued tasks, e.g. after an exception killed none but the
     machine is 1-core) deadlock-free and productive: every submitted
     task is guaranteed to execute on *some* domain. *)
  let await b =
    let rec drain () =
      Mutex.lock pool.m;
      match Queue.take_opt pool.queue with
      | Some task ->
          Mutex.unlock pool.m;
          task ();
          drain ()
      | None -> Mutex.unlock pool.m
    in
    drain ();
    Mutex.lock b.bm;
    while b.remaining > 0 do
      Condition.wait b.finished b.bm
    done;
    Mutex.unlock b.bm
end

(* The scheduler: trial [i] always runs on [Rng.substream root i], so its
   outcome is a pure function of (root seed, i) and the partition of the
   index space into chunks/domains cannot affect any result.  Chunks are
   dispatched in rounds of [jobs] (one chunk stays on the calling domain,
   the rest go to pool workers), then consumed strictly in index order;
   a [`Stop] verdict discards every later chunk, including ones another
   domain already computed, so adaptive stopping is also scheduling-
   independent.  Returns the number of trials actually consumed. *)
let exec ~jobs ~chunk ~cap ~run_chunk ~consume =
  if jobs < 1 then invalid_arg "Trials: jobs must be >= 1";
  if chunk < 1 then invalid_arg "Trials: chunk must be >= 1";
  if cap < 0 then invalid_arg "Trials: trials must be >= 0";
  let n_chunks = (cap + chunk - 1) / chunk in
  let bounds c = (c * chunk, min cap ((c + 1) * chunk)) in
  let stopped = ref false in
  let executed = ref 0 in
  let c = ref 0 in
  while (not !stopped) && !c < n_chunks do
    let batch = min jobs (n_chunks - !c) in
    let accs = Array.make batch None in
    if batch = 1 then begin
      let lo, hi = bounds !c in
      accs.(0) <- Some (run_chunk ~lo ~hi)
    end
    else begin
      let c0 = !c in
      let fail = Atomic.make None in
      let task k () =
        let lo, hi = bounds (c0 + k) in
        match run_chunk ~lo ~hi with
        | r -> accs.(k) <- Some r
        | exception e -> Atomic.set fail (Some e)
      in
      Pool.ensure (jobs - 1);
      let b = Pool.submit (Array.init (batch - 1) (fun k -> task (k + 1))) in
      task 0 ();
      Pool.await b;
      match Atomic.get fail with Some e -> raise e | None -> ()
    end;
    Array.iteri
      (fun k acc ->
        if not !stopped then begin
          let lo, hi = bounds (!c + k) in
          executed := hi;
          match consume (Option.get acc) ~lo ~hi with
          | `Stop -> stopped := true
          | `Continue -> ()
        end)
      accs;
    c := !c + batch
  done;
  !executed

(* ---------- tracing (strictly observational) ----------

   When a sink is present, each chunk is timed on its executing domain
   and the measurement rides back alongside the chunk's accumulator;
   events are emitted on the scheduling domain, in consumption (index)
   order.  Nothing here reads or writes a PRNG stream, so estimates are
   bit-identical with tracing on or off, at every job count. *)

type tracer = { sink : Trace.sink; run : int; t0 : int }

let tracer_start trace ~label ~cap ~chunk ~jobs ~target_ci ~min_trials =
  match trace with
  | None -> None
  | Some sink ->
      let run = Trace.fresh_id sink in
      Trace.emit sink
        (Trace.Run_begin { run; label; cap; chunk; jobs; target_ci; min_trials });
      Some { sink; run; t0 = Clock.now_ns () }

(* wrap a chunk runner to report (acc, elapsed_ns, domain_id); the clock
   is only read when tracing is active *)
let timed_chunk tr run_chunk ~lo ~hi =
  match tr with
  | None -> (run_chunk ~lo ~hi, 0, 0)
  | Some _ ->
      let t0 = Clock.now_ns () in
      let acc = run_chunk ~lo ~hi in
      (acc, Clock.elapsed_ns ~since:t0, (Domain.self () :> int))

let tracer_chunk tr ~lo ~hi ~domain ~elapsed_ns ~successes =
  match tr with
  | None -> ()
  | Some { sink; run; _ } ->
      Trace.emit sink
        (Trace.Chunk { run; lo; hi; domain; elapsed_ns; successes })

let tracer_stop_check tr ~trials ~successes ~half_width ~target ~stop =
  match tr with
  | None -> ()
  | Some { sink; run; _ } ->
      Trace.emit sink
        (Trace.Stop_check { run; trials; successes; half_width; target; stop })

let tracer_end tr ~executed ~successes =
  match tr with
  | None -> ()
  | Some { sink; run; t0 } ->
      Trace.emit sink
        (Trace.Run_end
           { run; executed; successes; elapsed_ns = Clock.elapsed_ns ~since:t0 })

let run_scratch ?(jobs = 1) ?(chunk = default_chunk) ?target_ci
    ?(min_trials = 1000) ?progress ?trace ?(label = "trials.run") ~trials:cap
    ~rng ~init f =
  let root = Rng.copy rng in
  let successes = ref 0 in
  let t0 = Unix.gettimeofday () in
  let tr =
    tracer_start trace ~label ~cap ~chunk ~jobs ~target_ci ~min_trials
  in
  let run_chunk ~lo ~hi =
    let scratch = init () in
    let s = ref 0 in
    for i = lo to hi - 1 do
      if f scratch (Rng.substream root i) then incr s
    done;
    !s
  in
  let consume (s, elapsed_ns, domain) ~lo ~hi =
    successes := !successes + s;
    tracer_chunk tr ~lo ~hi ~domain ~elapsed_ns ~successes:(Some s);
    (match progress with
    | None -> ()
    | Some cb ->
        let elapsed = Unix.gettimeofday () -. t0 in
        cb
          {
            completed = hi;
            cap;
            successes = !successes;
            elapsed;
            rate = (if elapsed > 0.0 then float_of_int hi /. elapsed else 0.0);
            jobs;
          });
    match target_ci with
    | Some target when hi >= min_trials ->
        let est = of_counts ~successes:!successes ~trials:hi in
        let hw = half_width est in
        let stop = hw <= target in
        tracer_stop_check tr ~trials:hi ~successes:!successes ~half_width:hw
          ~target ~stop;
        if stop then `Stop else `Continue
    | _ -> `Continue
  in
  let executed =
    exec ~jobs ~chunk ~cap ~run_chunk:(timed_chunk tr run_chunk) ~consume
  in
  tracer_end tr ~executed ~successes:(Some !successes);
  Rng.advance rng executed;
  of_counts ~successes:!successes ~trials:executed

let sweep ?(jobs = 1) ?(chunk = default_chunk) ?progress ?trace
    ?(label = "trials.sweep") ~trials:cap ~rng ~points ~init f =
  if points < 1 then invalid_arg "Trials.sweep: points must be >= 1";
  let root = Rng.copy rng in
  let totals = Array.make points 0 in
  let t0 = Unix.gettimeofday () in
  let tr =
    tracer_start trace ~label ~cap ~chunk ~jobs ~target_ci:None ~min_trials:0
  in
  let run_chunk ~lo ~hi =
    let scratch = init () in
    let outcomes = Bytes.make points '\000' in
    let counts = Array.make points 0 in
    for i = lo to hi - 1 do
      Bytes.fill outcomes 0 points '\000';
      f scratch (Rng.substream root i) outcomes;
      for k = 0 to points - 1 do
        if Bytes.unsafe_get outcomes k <> '\000' then
          counts.(k) <- counts.(k) + 1
      done
    done;
    counts
  in
  let consume (counts, elapsed_ns, domain) ~lo ~hi =
    for k = 0 to points - 1 do
      totals.(k) <- totals.(k) + counts.(k)
    done;
    tracer_chunk tr ~lo ~hi ~domain ~elapsed_ns ~successes:None;
    (match progress with
    | None -> ()
    | Some cb ->
        let elapsed = Unix.gettimeofday () -. t0 in
        cb
          {
            completed = hi;
            cap;
            successes = totals.(0);
            elapsed;
            rate = (if elapsed > 0.0 then float_of_int hi /. elapsed else 0.0);
            jobs;
          });
    `Continue
  in
  let executed =
    exec ~jobs ~chunk ~cap ~run_chunk:(timed_chunk tr run_chunk) ~consume
  in
  tracer_end tr ~executed ~successes:None;
  Rng.advance rng executed;
  Array.map (fun s -> of_counts ~successes:s ~trials:executed) totals

let map_reduce ?(jobs = 1) ?(chunk = default_chunk) ?trace
    ?(label = "trials.map_reduce") ~trials:cap ~rng ~init ~create_acc ~trial
    ~combine () =
  let root = Rng.copy rng in
  let global = create_acc () in
  let tr =
    tracer_start trace ~label ~cap ~chunk ~jobs ~target_ci:None ~min_trials:0
  in
  let run_chunk ~lo ~hi =
    let scratch = init () in
    let acc = create_acc () in
    for i = lo to hi - 1 do
      trial scratch acc (Rng.substream root i)
    done;
    acc
  in
  let consume (acc, elapsed_ns, domain) ~lo ~hi =
    tracer_chunk tr ~lo ~hi ~domain ~elapsed_ns ~successes:None;
    combine global acc;
    `Continue
  in
  let executed =
    exec ~jobs ~chunk ~cap ~run_chunk:(timed_chunk tr run_chunk) ~consume
  in
  tracer_end tr ~executed ~successes:None;
  Rng.advance rng executed;
  global

let search ?(jobs = 1) ?(chunk = default_chunk) ?trace
    ?(label = "trials.search") ~trials:cap ~rng ~init f =
  let root = Rng.copy rng in
  let found = ref None in
  let tr =
    tracer_start trace ~label ~cap ~chunk ~jobs ~target_ci:None ~min_trials:0
  in
  let run_chunk ~lo ~hi =
    let scratch = init () in
    let rec go i =
      if i >= hi then None
      else
        match f scratch (Rng.substream root i) with
        | Some _ as w -> w
        | None -> go (i + 1)
    in
    go lo
  in
  let consume (acc, elapsed_ns, domain) ~lo ~hi =
    tracer_chunk tr ~lo ~hi ~domain ~elapsed_ns ~successes:None;
    match acc with
    | Some _ ->
        found := acc;
        `Stop
    | None -> `Continue
  in
  let executed =
    exec ~jobs ~chunk ~cap ~run_chunk:(timed_chunk tr run_chunk) ~consume
  in
  tracer_end tr ~executed ~successes:None;
  Rng.advance rng executed;
  !found
