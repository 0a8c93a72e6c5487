open Ftcsn_obs
open Trace

let to_bool = function Json.Bool b -> Some b | _ -> None

let event_of_json j =
  let ( let* ) r f = Result.bind r f in
  let field name conv =
    match Option.bind (Json.member name j) conv with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "trace event: missing or invalid %S" name)
  in
  let opt_field name conv =
    match Json.member name j with
    | None | Some Json.Null -> Ok None
    | Some v -> (
        match conv v with
        | Some v -> Ok (Some v)
        | None -> Error (Printf.sprintf "trace event: invalid %S" name))
  in
  let* ts_ns = field "ts_ns" Json.to_int in
  let* ev = field "ev" Json.to_str in
  let* event =
    match ev with
    | "span_begin" ->
        let* span = field "span" Json.to_int in
        let* name = field "name" Json.to_str in
        Ok (Span_begin { span; name })
    | "span_end" ->
        let* span = field "span" Json.to_int in
        let* name = field "name" Json.to_str in
        let* elapsed_ns = field "elapsed_ns" Json.to_int in
        Ok (Span_end { span; name; elapsed_ns })
    | "run_begin" ->
        let* run = field "run" Json.to_int in
        let* label = field "label" Json.to_str in
        let* cap = field "cap" Json.to_int in
        let* chunk = field "chunk" Json.to_int in
        let* jobs = field "jobs" Json.to_int in
        let* target_ci = opt_field "target_ci" Json.to_float in
        let* min_trials = field "min_trials" Json.to_int in
        Ok (Run_begin { run; label; cap; chunk; jobs; target_ci; min_trials })
    | "chunk" ->
        let* run = field "run" Json.to_int in
        let* lo = field "lo" Json.to_int in
        let* hi = field "hi" Json.to_int in
        let* domain = field "domain" Json.to_int in
        let* elapsed_ns = field "elapsed_ns" Json.to_int in
        let* successes = opt_field "successes" Json.to_int in
        Ok (Chunk { run; lo; hi; domain; elapsed_ns; successes })
    | "stop_check" ->
        let* run = field "run" Json.to_int in
        let* trials = field "trials" Json.to_int in
        let* successes = field "successes" Json.to_int in
        let* half_width = field "half_width" Json.to_float in
        let* target = field "target" Json.to_float in
        let* stop = field "stop" to_bool in
        Ok (Stop_check { run; trials; successes; half_width; target; stop })
    | "run_end" ->
        let* run = field "run" Json.to_int in
        let* executed = field "executed" Json.to_int in
        let* successes = opt_field "successes" Json.to_int in
        let* elapsed_ns = field "elapsed_ns" Json.to_int in
        Ok (Run_end { run; executed; successes; elapsed_ns })
    | other -> Error (Printf.sprintf "trace event: unknown kind %S" other)
  in
  Ok (ts_ns, event)

let event_of_string line = Result.bind (Json.parse line) event_of_json
