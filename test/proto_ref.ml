module Json = Ftcsn_obs.Json
open Ftcsn_serve.Proto

let reason_to_string = function Full -> "full" | No_path -> "no_path"

let opt k f = function None -> [] | Some v -> [ (k, f v) ]

(* field accessors that distinguish "absent" from "present but wrong":
   a present-but-mistyped field is a diagnosable client bug, not noise *)
let get_int j k =
  match Json.member k j with
  | None -> Ok None
  | Some v -> (
      match Json.to_int v with
      | Some i -> Ok (Some i)
      | None -> Result.Error (Printf.sprintf "field %S must be an integer" k))

let get_float j k =
  match Json.member k j with
  | None -> Ok None
  | Some v -> (
      match Json.to_float v with
      | Some f -> Ok (Some f)
      | None ->
          Result.Error (Printf.sprintf "field %S must be a number" k))

let ( let* ) = Result.bind

let parse_request line =
  match Json.parse line with
  | Result.Error e -> Result.Error (None, "bad json: " ^ e)
  | Ok j -> (
      let id = Option.bind (Json.member "id" j) Json.to_str in
      let fail msg = Result.Error (id, msg) in
      let with_id = function Ok v -> Ok v | Result.Error msg -> Result.Error (id, msg) in
      match Option.bind (Json.member "req" j) Json.to_str with
      | None -> fail {|missing or non-string "req" field|}
      | Some kind -> (
          let* at = with_id (get_float j "at") in
          let* () =
            match at with
            | Some a when not (a >= 0.0 && a < infinity) ->
                fail {|field "at" must be finite and >= 0|}
            | _ -> Ok ()
          in
          match kind with
          | "metrics" -> Ok (Metrics { at })
          | "call" | "hangup" -> (
              match id with
              | None | Some "" -> fail {|missing or empty "id" field|}
              | Some id ->
                  if kind = "hangup" then Ok (Hangup { id; at })
                  else
                    let err msg = Result.Error (Some id, msg) in
                    let* src = with_id (get_int j "in") in
                    let* dst = with_id (get_int j "out") in
                    let* hold = with_id (get_float j "hold") in
                    let* () =
                      match hold with
                      | Some h when not (h > 0.0 && h < infinity) ->
                          err {|field "hold" must be finite and > 0|}
                      | _ -> Ok ()
                    in
                    Ok (Call { id; src; dst; hold; at }))
          | other -> fail (Printf.sprintf "unknown request type %S" other)))

let response_to_string r =
  let call tag id t rest =
    ("resp", Json.String tag)
    :: ("id", Json.String id)
    :: ("t", Json.Float t)
    :: rest
  in
  let fields =
    match r with
    | Accept { id; t; path_len } ->
        call "accept" id t [ ("path_len", Json.Int path_len) ]
    | Block { id; t; reason } ->
        call "block" id t [ ("reason", Json.String (reason_to_string reason)) ]
    | Overload { id; t } -> call "overload" id t []
    | Rerouted { id; t; path_len } ->
        call "rerouted" id t [ ("path_len", Json.Int path_len) ]
    | Dropped { id; t } -> call "dropped" id t []
    | Released { id; t } -> call "released" id t []
    | Catastrophe { t } ->
        [ ("resp", Json.String "catastrophe"); ("t", Json.Float t) ]
    | Snapshot { t; data } ->
        [ ("resp", Json.String "metrics"); ("t", Json.Float t); ("data", data) ]
    | Error { id; message } ->
        ("resp", Json.String "error")
        :: (opt "id" (fun i -> Json.String i) id
           @ [ ("message", Json.String message) ])
  in
  Json_ref.to_string (Json.Obj fields)

let response_of_string line =
  match Json.parse line with
  | Result.Error e -> Result.Error ("bad json: " ^ e)
  | Ok j -> (
      let str k = Option.bind (Json.member k j) Json.to_str in
      let num k = Option.bind (Json.member k j) Json.to_float in
      let int k = Option.bind (Json.member k j) Json.to_int in
      let need_id f =
        match (str "id", num "t") with
        | Some id, Some t -> f id t
        | None, _ -> Result.Error {|missing "id"|}
        | _, None -> Result.Error {|missing "t"|}
      in
      match str "resp" with
      | None -> Result.Error {|missing or non-string "resp" field|}
      | Some "accept" ->
          need_id (fun id t ->
              match int "path_len" with
              | Some path_len -> Ok (Accept { id; t; path_len })
              | None -> Result.Error {|missing "path_len"|})
      | Some "block" ->
          need_id (fun id t ->
              match str "reason" with
              | Some "full" -> Ok (Block { id; t; reason = Full })
              | Some "no_path" -> Ok (Block { id; t; reason = No_path })
              | _ -> Result.Error {|missing or unknown "reason"|})
      | Some "overload" -> need_id (fun id t -> Ok (Overload { id; t }))
      | Some "rerouted" ->
          need_id (fun id t ->
              match int "path_len" with
              | Some path_len -> Ok (Rerouted { id; t; path_len })
              | None -> Result.Error {|missing "path_len"|})
      | Some "dropped" -> need_id (fun id t -> Ok (Dropped { id; t }))
      | Some "released" -> need_id (fun id t -> Ok (Released { id; t }))
      | Some "catastrophe" -> (
          match num "t" with
          | Some t -> Ok (Catastrophe { t })
          | None -> Result.Error {|missing "t"|})
      | Some "metrics" -> (
          match (num "t", Json.member "data" j) with
          | Some t, Some data -> Ok (Snapshot { t; data })
          | None, _ -> Result.Error {|missing "t"|}
          | _, None -> Result.Error {|missing "data"|})
      | Some "error" -> (
          match str "message" with
          | Some message -> Ok (Error { id = str "id"; message })
          | None -> Result.Error {|missing "message"|})
      | Some other -> Result.Error (Printf.sprintf "unknown response type %S" other))
