type t = {
  mutex : Mutex.t;
  counters : (string, Counter.t) Hashtbl.t;
  timers : (string, Timer.t) Hashtbl.t;
  gauges : (string, float) Hashtbl.t;
}

let create () =
  {
    mutex = Mutex.create ();
    counters = Hashtbl.create 16;
    timers = Hashtbl.create 16;
    gauges = Hashtbl.create 16;
  }

let default = create ()

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let find_or_create t table make name =
  locked t (fun () ->
      match Hashtbl.find_opt table name with
      | Some v -> v
      | None ->
          let v = make name in
          Hashtbl.add table name v;
          v)

let counter t name = find_or_create t t.counters (fun n -> Counter.create n) name

let timer t name = find_or_create t t.timers (fun _ -> Timer.create ()) name

let set_gauge t name v = locked t (fun () -> Hashtbl.replace t.gauges name v)

let sorted_bindings table value_json =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) table []
  |> List.sort (fun (a, _) (b, _) -> compare a b)
  |> List.map (fun (k, v) -> (k, value_json v))

let to_json t =
  locked t (fun () ->
      Json.Obj
        [
          ( "counters",
            Json.Obj
              (sorted_bindings t.counters (fun c -> Json.Int (Counter.get c)))
          );
          ("timers", Json.Obj (sorted_bindings t.timers Timer.to_json));
          ( "gauges",
            Json.Obj (sorted_bindings t.gauges (fun g -> Json.Float g)) );
        ])
