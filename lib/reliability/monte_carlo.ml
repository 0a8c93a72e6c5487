module Trials = Ftcsn_sim.Trials

type estimate = Trials.estimate = {
  successes : int;
  trials : int;
  mean : float;
  ci_low : float;
  ci_high : float;
}

let of_counts = Trials.of_counts

let estimate ?jobs ?target_ci ?progress ?trace ?label ~trials ~rng f =
  Trials.run ?jobs ?target_ci ?progress ?trace ?label ~trials ~rng f

let estimate_event_scratch ?jobs ?target_ci ?progress ?trace ?label ~trials
    ~rng ~graph ~eps_open ~eps_close f =
  Trials.run_scratch ?jobs ?target_ci ?progress ?trace ?label ~trials ~rng
    ~init:(fun () -> Scratch.create graph)
    (fun sc sub ->
      Fault.sample_into sub ~eps_open ~eps_close (Scratch.pattern sc);
      f sc)

let estimate_curve ?jobs ?progress ?trace ?(label = "monte_carlo.curve")
    ?(monotone_event = false) ~trials ~rng ~graph ~grid f =
  let points = Array.length grid in
  Array.iter
    (fun (eps_open, eps_close) ->
      if eps_open < 0.0 || eps_close < 0.0 || eps_open +. eps_close > 1.0 then
        invalid_arg "Monte_carlo.estimate_curve: bad grid probabilities")
    grid;
  Trials.sweep ?jobs ?progress ?trace ~label ~trials ~rng ~points
    ~init:(fun () -> Scratch.create graph)
    (fun sc sub outcomes ->
      Fault.sample_uniforms_into sub (Scratch.uniforms sc);
      let k = ref 0 in
      let hit = ref false in
      while !k < points do
        if !hit && monotone_event then Bytes.set outcomes !k '\001'
        else begin
          let eps_open, eps_close = grid.(!k) in
          Fault.classify_into ~uniforms:(Scratch.uniforms sc) ~eps_open
            ~eps_close (Scratch.pattern sc);
          if f sc then begin
            Bytes.set outcomes !k '\001';
            hit := true
          end
        end;
        incr k
      done)

let pp = Trials.pp
