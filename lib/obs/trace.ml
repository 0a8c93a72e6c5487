type event =
  | Span_begin of { span : int; name : string }
  | Span_end of { span : int; name : string; elapsed_ns : int }
  | Run_begin of {
      run : int;
      label : string;
      cap : int;
      chunk : int;
      jobs : int;
      target_ci : float option;
      min_trials : int;
    }
  | Chunk of {
      run : int;
      lo : int;
      hi : int;
      domain : int;
      elapsed_ns : int;
      successes : int option;
    }
  | Stop_check of {
      run : int;
      trials : int;
      successes : int;
      half_width : float;
      target : float;
      stop : bool;
    }
  | Run_end of {
      run : int;
      executed : int;
      successes : int option;
      elapsed_ns : int;
    }

(* ---------- serialization ---------- *)

let opt_int = function None -> Json.Null | Some n -> Json.Int n

let opt_float = function None -> Json.Null | Some f -> Json.Float f

let event_to_json ~ts_ns ev =
  let fields =
    match ev with
    | Span_begin { span; name } ->
        [ ("ev", Json.String "span_begin"); ("span", Json.Int span);
          ("name", Json.String name) ]
    | Span_end { span; name; elapsed_ns } ->
        [ ("ev", Json.String "span_end"); ("span", Json.Int span);
          ("name", Json.String name); ("elapsed_ns", Json.Int elapsed_ns) ]
    | Run_begin { run; label; cap; chunk; jobs; target_ci; min_trials } ->
        [ ("ev", Json.String "run_begin"); ("run", Json.Int run);
          ("label", Json.String label); ("cap", Json.Int cap);
          ("chunk", Json.Int chunk); ("jobs", Json.Int jobs);
          ("target_ci", opt_float target_ci);
          ("min_trials", Json.Int min_trials) ]
    | Chunk { run; lo; hi; domain; elapsed_ns; successes } ->
        [ ("ev", Json.String "chunk"); ("run", Json.Int run);
          ("lo", Json.Int lo); ("hi", Json.Int hi);
          ("domain", Json.Int domain); ("elapsed_ns", Json.Int elapsed_ns);
          ("successes", opt_int successes) ]
    | Stop_check { run; trials; successes; half_width; target; stop } ->
        [ ("ev", Json.String "stop_check"); ("run", Json.Int run);
          ("trials", Json.Int trials); ("successes", Json.Int successes);
          ("half_width", Json.Float half_width); ("target", Json.Float target);
          ("stop", Json.Bool stop) ]
    | Run_end { run; executed; successes; elapsed_ns } ->
        [ ("ev", Json.String "run_end"); ("run", Json.Int run);
          ("executed", Json.Int executed); ("successes", opt_int successes);
          ("elapsed_ns", Json.Int elapsed_ns) ]
  in
  Json.Obj (("ts_ns", Json.Int ts_ns) :: fields)

let event_to_string ~ts_ns ev = Json.to_string (event_to_json ~ts_ns ev)

(* ---------- sinks ---------- *)

type sink = {
  write : int -> event -> unit; (* called with the mutex held *)
  flush : unit -> unit;
  mutex : Mutex.t;
  next_id : int Atomic.t;
}

let make write flush =
  { write; flush; mutex = Mutex.create (); next_id = Atomic.make 1 }

let to_channel oc =
  make
    (fun ts ev ->
      output_string oc (event_to_string ~ts_ns:ts ev);
      output_char oc '\n')
    (fun () -> flush oc)

let memory () =
  let events = ref [] in
  let sink = make (fun ts ev -> events := (ts, ev) :: !events) (fun () -> ()) in
  (sink, fun () -> List.rev !events)

let emit sink ev =
  Mutex.lock sink.mutex;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock sink.mutex)
    (fun () -> sink.write (Clock.now_ns ()) ev)

let fresh_id sink = Atomic.fetch_and_add sink.next_id 1

let close sink =
  Mutex.lock sink.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock sink.mutex) sink.flush

let span sink name f =
  match sink with
  | None -> f ()
  | Some sink ->
      let id = fresh_id sink in
      let sw = Timer.start () in
      emit sink (Span_begin { span = id; name });
      Fun.protect
        ~finally:(fun () ->
          emit sink
            (Span_end { span = id; name; elapsed_ns = Timer.elapsed_ns sw }))
        f
