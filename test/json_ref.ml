open Ftcsn_obs.Json

let escape_into b s =
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s

let float_repr f =
  if not (Float.is_finite f) then "null"
  else
    let try_prec p =
      let s = Printf.sprintf "%.*g" p f in
      if float_of_string s = f then Some s else None
    in
    match try_prec 12 with
    | Some s -> s
    | None -> (
        match try_prec 15 with
        | Some s -> s
        | None -> Printf.sprintf "%.17g" f)

let rec write b = function
  | Null -> Buffer.add_string b "null"
  | Bool true -> Buffer.add_string b "true"
  | Bool false -> Buffer.add_string b "false"
  | Int n -> Buffer.add_string b (string_of_int n)
  | Float f -> Buffer.add_string b (float_repr f)
  | String s ->
      Buffer.add_char b '"';
      escape_into b s;
      Buffer.add_char b '"'
  | List vs ->
      Buffer.add_char b '[';
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_char b ',';
          write b v)
        vs;
      Buffer.add_char b ']'
  | Obj fields ->
      Buffer.add_char b '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char b ',';
          Buffer.add_char b '"';
          escape_into b k;
          Buffer.add_string b "\":";
          write b v)
        fields;
      Buffer.add_char b '}'

let to_string v =
  let b = Buffer.create 128 in
  write b v;
  Buffer.contents b
