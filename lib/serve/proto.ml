module Json = Ftcsn_obs.Json

type request =
  | Call of {
      id : string;
      src : int option;
      dst : int option;
      hold : float option;
      at : float option;
    }
  | Hangup of { id : string; at : float option }
  | Metrics of { at : float option }

type reason = Full | No_path

type response =
  | Accept of { id : string; t : float; path_len : int }
  | Block of { id : string; t : float; reason : reason }
  | Overload of { id : string; t : float }
  | Rerouted of { id : string; t : float; path_len : int }
  | Dropped of { id : string; t : float }
  | Released of { id : string; t : float }
  | Catastrophe of { t : float }
  | Snapshot of { t : float; data : Json.t }
  | Error of { id : string option; message : string }

let reason_to_string = function Full -> "full" | No_path -> "no_path"

(* ---- requests ---- *)

let opt k f = function None -> [] | Some v -> [ (k, f v) ]

let request_to_string r =
  let fields =
    match r with
    | Call { id; src; dst; hold; at } ->
        [ ("req", Json.String "call"); ("id", Json.String id) ]
        @ opt "in" (fun i -> Json.Int i) src
        @ opt "out" (fun i -> Json.Int i) dst
        @ opt "hold" (fun h -> Json.Float h) hold
        @ opt "at" (fun a -> Json.Float a) at
    | Hangup { id; at } ->
        [ ("req", Json.String "hangup"); ("id", Json.String id) ]
        @ opt "at" (fun a -> Json.Float a) at
    | Metrics { at } ->
        ("req", Json.String "metrics") :: opt "at" (fun a -> Json.Float a) at
  in
  Json.to_string (Json.Obj fields)

(* A line's diagnostic: [parse_request] pairs it with the line's id,
   [response_of_string] returns it as is. *)
exception Invalid of string

(* field accessors that distinguish "absent" from "present but wrong":
   a present-but-mistyped field is a diagnosable client bug, not noise *)
let get_int v k =
  match v with
  | None -> None
  | Some v -> (
      match Json.to_int v with
      | Some _ as i -> i
      | None ->
          raise (Invalid (Printf.sprintf "field %S must be an integer" k)))

let get_float v k =
  match v with
  | None -> None
  | Some v -> (
      match Json.to_float v with
      | Some _ as f -> f
      | None ->
          raise (Invalid (Printf.sprintf "field %S must be a number" k)))

let request ~req ~id ~src ~dst ~hold ~at =
  match Option.bind req Json.to_str with
  | None -> raise (Invalid {|missing or non-string "req" field|})
  | Some kind -> (
      let at = get_float at "at" in
      (match at with
      | Some a when not (a >= 0.0 && a < infinity) ->
          raise (Invalid {|field "at" must be finite and >= 0|})
      | _ -> ());
      match kind with
      | "metrics" -> Metrics { at }
      | "call" | "hangup" -> (
          match id with
          | None | Some "" -> raise (Invalid {|missing or empty "id" field|})
          | Some id ->
              if kind = "hangup" then Hangup { id; at }
              else
                let src = get_int src "in" in
                let dst = get_int dst "out" in
                let hold = get_float hold "hold" in
                (match hold with
                | Some h when not (h > 0.0 && h < infinity) ->
                    raise (Invalid {|field "hold" must be finite and > 0|})
                | _ -> ());
                Call { id; src; dst; hold; at })
      | other ->
          raise (Invalid (Printf.sprintf "unknown request type %S" other)))

let request_keys = [| "req"; "id"; "in"; "out"; "hold"; "at" |]

let parse_request line =
  match Json.members request_keys line with
  | Result.Error e -> Result.Error (None, "bad json: " ^ e)
  | Ok [| req; id; src; dst; hold; at |] -> (
      let id = Option.bind id Json.to_str in
      match request ~req ~id ~src ~dst ~hold ~at with
      | r -> Ok r
      | exception Invalid msg -> Result.Error (id, msg))
  | Ok _ -> assert false

(* ---- responses ---- *)

(* {"resp":"TAG","id":ID,"t":T — the head every call's response shares *)
let write_call b tag id t =
  Buffer.add_string b {|{"resp":"|};
  Buffer.add_string b tag;
  Buffer.add_string b {|","id":|};
  Json.write_string b id;
  Buffer.add_string b {|,"t":|};
  Json.write_float b t

let write_path_len b n =
  Buffer.add_string b {|,"path_len":|};
  Buffer.add_string b (string_of_int n)

let write_response b r =
  (match r with
  | Accept { id; t; path_len } ->
      write_call b "accept" id t;
      write_path_len b path_len
  | Block { id; t; reason } ->
      write_call b "block" id t;
      Buffer.add_string b {|,"reason":"|};
      Buffer.add_string b (reason_to_string reason);
      Buffer.add_char b '"'
  | Overload { id; t } -> write_call b "overload" id t
  | Rerouted { id; t; path_len } ->
      write_call b "rerouted" id t;
      write_path_len b path_len
  | Dropped { id; t } -> write_call b "dropped" id t
  | Released { id; t } -> write_call b "released" id t
  | Catastrophe { t } ->
      Buffer.add_string b {|{"resp":"catastrophe","t":|};
      Json.write_float b t
  | Snapshot { t; data } ->
      Buffer.add_string b {|{"resp":"metrics","t":|};
      Json.write_float b t;
      Buffer.add_string b {|,"data":|};
      Json.write b data
  | Error { id; message } ->
      Buffer.add_string b {|{"resp":"error"|};
      Option.iter
        (fun id ->
          Buffer.add_string b {|,"id":|};
          Json.write_string b id)
        id;
      Buffer.add_string b {|,"message":|};
      Json.write_string b message);
  Buffer.add_char b '}'

let line_buffer = Domain.DLS.new_key (fun () -> Buffer.create 256)

let response_to_string r =
  let b = Domain.DLS.get line_buffer in
  Buffer.clear b;
  write_response b r;
  Buffer.contents b

let need k = function
  | Some v -> v
  | None -> raise (Invalid (Printf.sprintf "missing %S" k))

let response ~resp ~id ~t ~path_len ~reason ~message ~data =
  let id = Option.bind id Json.to_str and t = Option.bind t Json.to_float in
  let path_len = Option.bind path_len Json.to_int in
  match Option.bind resp Json.to_str with
  | None -> raise (Invalid {|missing or non-string "resp" field|})
  | Some
      (( "accept" | "block" | "overload" | "rerouted" | "dropped"
       | "released" ) as tag) -> (
      let id = need "id" id in
      let t = need "t" t in
      match tag with
      | "accept" -> Accept { id; t; path_len = need "path_len" path_len }
      | "block" -> (
          match Option.bind reason Json.to_str with
          | Some "full" -> Block { id; t; reason = Full }
          | Some "no_path" -> Block { id; t; reason = No_path }
          | _ -> raise (Invalid {|missing or unknown "reason"|}))
      | "overload" -> Overload { id; t }
      | "rerouted" -> Rerouted { id; t; path_len = need "path_len" path_len }
      | "dropped" -> Dropped { id; t }
      | _ -> Released { id; t })
  | Some "catastrophe" -> Catastrophe { t = need "t" t }
  | Some "metrics" ->
      let t = need "t" t in
      Snapshot { t; data = need "data" data }
  | Some "error" ->
      Error { id; message = need "message" (Option.bind message Json.to_str) }
  | Some other ->
      raise (Invalid (Printf.sprintf "unknown response type %S" other))

let response_keys =
  [| "resp"; "id"; "t"; "path_len"; "reason"; "message"; "data" |]

let response_of_string line =
  match Json.members response_keys line with
  | Result.Error e -> Result.Error ("bad json: " ^ e)
  | Ok [| resp; id; t; path_len; reason; message; data |] -> (
      match response ~resp ~id ~t ~path_len ~reason ~message ~data with
      | r -> Ok r
      | exception Invalid msg -> Result.Error msg)
  | Ok _ -> assert false

let error_response ~id message = Error { id; message }
