module Trials = Ftcsn_sim.Trials
module Rng = Ftcsn_prng.Rng

type estimate = Trials.estimate = {
  successes : int;
  trials : int;
  mean : float;
  ci_low : float;
  ci_high : float;
}

let of_counts = Trials.of_counts

let estimate ?jobs ?target_ci ?progress ?trace ?label ~trials ~rng f =
  Trials.run_scratch ?jobs ?target_ci ?progress ?trace ?label ~trials ~rng
    ~init:ignore
    (fun () sub -> f sub)

let estimate_event ?jobs ?target_ci ?progress ?trace ?label ~trials ~rng ~m
    ~eps_open ~eps_close ~init event =
  Trials.run_scratch ?jobs ?target_ci ?progress ?trace ?label ~trials ~rng
    ~init:(fun () -> (init (), Fault.all_normal m))
    (fun (ws, pattern) sub ->
      Fault.sample_into sub ~eps_open ~eps_close pattern;
      event ws sub pattern)

let estimate_curve ?jobs ?progress ?trace ?(label = "monte_carlo.curve")
    ?(monotone_event = false) ~trials ~rng ~m ~grid ~init event =
  let points = Array.length grid in
  Array.iter
    (fun (eps_open, eps_close) -> Fault.check_probabilities ~eps_open ~eps_close)
    grid;
  Trials.sweep ?jobs ?progress ?trace ~label ~trials ~rng ~points
    ~init:(fun () -> (init (), Array.make m 0.0, Fault.all_normal m))
    (fun (ws, uniforms, pattern) sub outcomes ->
      Fault.sample_uniforms_into sub uniforms;
      let k = ref 0 in
      let hit = ref false in
      while !k < points do
        if !hit && monotone_event then Bytes.set outcomes !k '\001'
        else begin
          let eps_open, eps_close = grid.(!k) in
          Fault.classify_into ~uniforms ~eps_open ~eps_close pattern;
          (* each point's event sees the stream [estimate_event] would
             hand it: the trial substream just past the m draws *)
          if event ws (Rng.copy sub) pattern then begin
            Bytes.set outcomes !k '\001';
            hit := true
          end
        end;
        incr k
      done)

let pp = Trials.pp
