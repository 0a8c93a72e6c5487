(* In-memory span recorder for the traced run.  A span is (name, start,
   end, parent, request id); spans are kept in growable parallel arrays
   so recording costs two clock reads and a few stores, and they are
   written out as JSONL only when the run ends. *)

type t = {
  mutable names : string array;
  ids : (string, int) Hashtbl.t;
  mutable name : int array;
  mutable start : int array;
  mutable stop : int array;
  mutable parent : int array;
  mutable req : int array;
  mutable n : int;
  mutable open_ : int;  (** innermost open span, or -1 *)
}

let create () =
  let cap = 1 lsl 16 in
  {
    names = [||];
    ids = Hashtbl.create 16;
    name = Array.make cap 0;
    start = Array.make cap 0;
    stop = Array.make cap 0;
    parent = Array.make cap 0;
    req = Array.make cap 0;
    n = 0;
    open_ = -1;
  }

let intern t s =
  match Hashtbl.find_opt t.ids s with
  | Some i -> i
  | None ->
      let i = Array.length t.names in
      t.names <- Array.append t.names [| s |];
      Hashtbl.add t.ids s i;
      i

let grow t =
  let g a = Array.append a (Array.make (Array.length a) 0) in
  t.name <- g t.name;
  t.start <- g t.start;
  t.stop <- g t.stop;
  t.parent <- g t.parent;
  t.req <- g t.req

let push t ~name ~req ~start ~stop ~parent =
  if t.n = Array.length t.name then grow t;
  let i = t.n in
  t.name.(i) <- name;
  t.start.(i) <- start;
  t.stop.(i) <- stop;
  t.parent.(i) <- parent;
  t.req.(i) <- req;
  t.n <- i + 1;
  i

(* Open a span under the innermost open one. *)
let enter t name ~req =
  let i = push t ~name ~req ~start:(Util.now_ns ()) ~stop:0 ~parent:t.open_ in
  t.open_ <- i;
  i

let leave t i =
  t.stop.(i) <- Util.now_ns ();
  t.open_ <- t.parent.(i)

(* A span measured elsewhere (e.g. a trial-engine chunk reported with
   its duration), attached under [parent] and ending at [stop]. *)
let add_child t name ~parent ~dur_ns ~stop =
  ignore
    (push t ~name ~req:t.req.(parent) ~start:(stop - dur_ns) ~stop ~parent)

let duration t i = t.stop.(i) - t.start.(i)

(* Self time per span name, in seconds, sorted by name: a span's
   duration minus the part of it its children cover. *)
let self_times t =
  let child = Array.make t.n 0 in
  for i = 0 to t.n - 1 do
    let p = t.parent.(i) in
    if p >= 0 then child.(p) <- child.(p) + duration t i
  done;
  let acc = Array.make (Array.length t.names) 0 in
  for i = 0 to t.n - 1 do
    acc.(t.name.(i)) <- acc.(t.name.(i)) + duration t i - child.(i)
  done;
  Array.to_list (Array.mapi (fun k s -> (t.names.(k), float_of_int s *. 1e-9)) acc)
  |> List.sort compare

(* Summed duration of every span of one name, in seconds. *)
let total t name =
  match Hashtbl.find_opt t.ids name with
  | None -> 0.0
  | Some k ->
      let s = ref 0 in
      for i = 0 to t.n - 1 do
        if t.name.(i) = k then s := !s + duration t i
      done;
      float_of_int !s *. 1e-9

(* Durations (ns) of every span of one name. *)
let durations t name =
  match Hashtbl.find_opt t.ids name with
  | None -> [||]
  | Some k ->
      let out = Util.Samples.create () in
      for i = 0 to t.n - 1 do
        if t.name.(i) = k then Util.Samples.add out (float_of_int (duration t i))
      done;
      Util.Samples.to_array out

let count t = t.n

let write_jsonl t path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      for i = 0 to t.n - 1 do
        Printf.fprintf oc
          "{\"id\":%d,\"name\":%S,\"start_ns\":%d,\"end_ns\":%d,\"parent\":%d,\"req\":%d}\n"
          i t.names.(t.name.(i)) t.start.(i) t.stop.(i) t.parent.(i) t.req.(i)
      done)
