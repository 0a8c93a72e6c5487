type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(* ---------- printing ---------- *)

(* Copies runs of plain bytes whole and escapes the others one by one. *)
let rec escape_from b s start i =
  if i = String.length s then Buffer.add_substring b s start (i - start)
  else
    match String.unsafe_get s i with
    | ('"' | '\\' | '\000' .. '\031') as c ->
        Buffer.add_substring b s start (i - start);
        (match c with
        | '"' -> Buffer.add_string b "\\\""
        | '\\' -> Buffer.add_string b "\\\\"
        | '\n' -> Buffer.add_string b "\\n"
        | '\r' -> Buffer.add_string b "\\r"
        | '\t' -> Buffer.add_string b "\\t"
        | c -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c)));
        escape_from b s (i + 1) (i + 1)
    | _ -> escape_from b s start (i + 1)

let write_string b s =
  Buffer.add_char b '"';
  escape_from b s 0 0;
  Buffer.add_char b '"'

(* the C conversion [Printf]'s [%g] ends in, without the format
   interpretation *)
external format_float : string -> float -> string = "caml_format_float"

(* The significant digits of a [%.17g] rendering, padded with zeros to
   17 digits: the rendered magnitude scaled into [10^16, 10^17). *)
let digits17 s =
  let d = ref 0 and k = ref 0 and i = ref 0 in
  while !i < String.length s && String.unsafe_get s !i <> 'e' do
    (match String.unsafe_get s !i with
    | '0' when !k = 0 -> ()
    | '0' .. '9' as c ->
        d := (!d * 10) + Char.code c - Char.code '0';
        incr k
    | _ -> ());
    incr i
  done;
  while !k < 17 do
    d := !d * 10;
    incr k
  done;
  !d

(* [Some (fmt f)] when that parses back to [f].  [d] is [digits17] of
   [f]'s [%.17g] rendering: within 0.5 unit of [f]'s exact value, in
   units of its 17th significant digit.  Every decimal that parses back
   to a normal [f] lies within |f|·2^-53 < 10^17 / 2^53 < 11.2 units of
   it.  So when [d] is more than 12 units from every multiple of [q] =
   10^(17 - precision), no decimal of that precision parses back, and
   [fmt] is not rendered at all.  Zero and subnormals come with [d = 0],
   so they always render. *)
let rendered_if_exact f d fmt q =
  let r = d mod q in
  if r > 12 && q - r > 12 then None
  else
    let s = format_float fmt f in
    if float_of_string s = f then Some s else None

let float_repr f =
  if not (Float.is_finite f) then "null"
  else
    (* the first of %.12g, %.15g and %.17g that parses back to [f] *)
    let s17 = format_float "%.17g" f in
    let d = if Float.abs f >= Float.min_float then digits17 s17 else 0 in
    match rendered_if_exact f d "%.12g" 100_000 with
    | Some s -> s
    | None -> (
        match rendered_if_exact f d "%.15g" 100 with
        | Some s -> s
        | None -> s17)

let write_float b f = Buffer.add_string b (float_repr f)

let rec write b = function
  | Null -> Buffer.add_string b "null"
  | Bool true -> Buffer.add_string b "true"
  | Bool false -> Buffer.add_string b "false"
  | Int n -> Buffer.add_string b (string_of_int n)
  | Float f -> write_float b f
  | String s -> write_string b s
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
          write_string b k;
          Buffer.add_char b ':';
          write b v)
        fields;
      Buffer.add_char b '}'

let to_string v =
  let b = Buffer.create 128 in
  write b v;
  Buffer.contents b

(* ---------- parsing ---------- *)

exception Fail of int * string

let looking_at s pos c = !pos < String.length s && s.[!pos] = c

let digits s pos =
  let d0 = !pos in
  while !pos < String.length s && s.[!pos] >= '0' && s.[!pos] <= '9' do
    incr pos
  done;
  if !pos = d0 then raise (Fail (!pos, "expected digit"))

(* The number that starts at [!pos], which is advanced past it.  A
   literal with a fraction or an exponent is a [Float], as is an integer
   that overflows [int]; the others are [Int]s. *)
let number_at s pos =
  let start = !pos in
  if looking_at s pos '-' then incr pos;
  digits s pos;
  let fraction = looking_at s pos '.' in
  if fraction then begin
    incr pos;
    digits s pos
  end;
  let exponent = looking_at s pos 'e' || looking_at s pos 'E' in
  if exponent then begin
    incr pos;
    if looking_at s pos '+' || looking_at s pos '-' then incr pos;
    digits s pos
  end;
  let lit = String.sub s start (!pos - start) in
  if fraction || exponent then Float (float_of_string lit)
  else
    match int_of_string_opt lit with
    | Some v -> Int v
    | None -> Float (float_of_string lit)

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Fail (!pos, msg)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let skip_ws () =
    while
      !pos < n
      && match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
    do
      advance ()
    done
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected %C" c)
  in
  let literal word v =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then begin
      pos := !pos + l;
      v
    end
    else fail (Printf.sprintf "expected %s" word)
  in
  let utf8_of_code b code =
    if code < 0x80 then Buffer.add_char b (Char.chr code)
    else if code < 0x800 then begin
      Buffer.add_char b (Char.chr (0xC0 lor (code lsr 6)));
      Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
    end
    else begin
      Buffer.add_char b (Char.chr (0xE0 lor (code lsr 12)));
      Buffer.add_char b (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
      Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
    end
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      let c = s.[!pos] in
      advance ();
      if c = '"' then Buffer.contents b
      else if c = '\\' then begin
        (if !pos >= n then fail "unterminated escape";
         let e = s.[!pos] in
         advance ();
         match e with
         | '"' -> Buffer.add_char b '"'
         | '\\' -> Buffer.add_char b '\\'
         | '/' -> Buffer.add_char b '/'
         | 'b' -> Buffer.add_char b '\b'
         | 'f' -> Buffer.add_char b '\012'
         | 'n' -> Buffer.add_char b '\n'
         | 'r' -> Buffer.add_char b '\r'
         | 't' -> Buffer.add_char b '\t'
         | 'u' ->
             if !pos + 4 > n then fail "truncated \\u escape";
             let hex = String.sub s !pos 4 in
             pos := !pos + 4;
             let code =
               match int_of_string_opt ("0x" ^ hex) with
               | Some c -> c
               | None -> fail "invalid \\u escape"
             in
             utf8_of_code b code
         | _ -> fail "invalid escape");
        go ()
      end
      else begin
        Buffer.add_char b c;
        go ()
      end
    in
    go ()
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some 'n' -> literal "null" Null
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some '"' -> String (parse_string ())
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          List []
        end
        else begin
          let items = ref [ parse_value () ] in
          skip_ws ();
          while peek () = Some ',' do
            advance ();
            items := parse_value () :: !items;
            skip_ws ()
          done;
          expect ']';
          List (List.rev !items)
        end
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Obj []
        end
        else begin
          let field () =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            (k, v)
          in
          let fields = ref [ field () ] in
          skip_ws ();
          while peek () = Some ',' do
            advance ();
            fields := field () :: !fields;
            skip_ws ()
          done;
          expect '}';
          Obj (List.rev !fields)
        end
    | Some ('-' | '0' .. '9') -> number_at s pos
    | Some c -> fail (Printf.sprintf "unexpected character %C" c)
  in
  match
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then fail "trailing content";
    v
  with
  | v -> Ok v
  | exception Fail (at, msg) ->
      Error (Printf.sprintf "JSON parse error at offset %d: %s" at msg)

(* ---------- accessors ---------- *)

let member k = function
  | Obj fields -> List.assoc_opt k fields
  | _ -> None

let to_int = function
  | Int n -> Some n
  | Float f when Float.is_integer f && Float.abs f <= 2. ** 52. ->
      Some (int_of_float f)
  | _ -> None

let to_float = function
  | Float f -> Some f
  | Int n -> Some (float_of_int n)
  | _ -> None

let to_str = function String s -> Some s | _ -> None

(* ---------- flat objects ---------- *)

(* The closing quote of the escape-free string whose body starts at [i],
   or -1. *)
let rec plain_string_end s i =
  if i >= String.length s then -1
  else
    match String.unsafe_get s i with
    | '"' -> i
    | '\\' -> -1
    | _ -> plain_string_end s (i + 1)

let rec same_from key s i j =
  j = String.length key
  || (key.[j] = s.[i + j] && same_from key s i (j + 1))

(* [member]'s rule: the first binding of a key wins *)
let keep vals k x = if Option.is_none vals.(k) then vals.(k) <- Some x

let rec key_slot keys s i len k =
  if k = Array.length keys then -1
  else if String.length keys.(k) = len && same_from keys.(k) s i 0 then k
  else key_slot keys s i len (k + 1)

(* Scans the fields from the key that starts at [i] on; [false] as soon
   as the line leaves the flat, compact form. *)
let rec scan_fields keys s vals i =
  let n = String.length s in
  let ke = if i < n && s.[i] = '"' then plain_string_end s (i + 1) else -1 in
  let k = if ke < 0 then -1 else key_slot keys s (i + 1) (ke - i - 1) 0 in
  if k < 0 || ke + 2 >= n || s.[ke + 1] <> ':' then false
  else
    let v = ke + 2 in
    let stop =
      match s.[v] with
      | '"' ->
          let e = plain_string_end s (v + 1) in
          if e < 0 then -1
          else begin
            keep vals k (String (String.sub s (v + 1) (e - v - 1)));
            e + 1
          end
      | '-' | '0' .. '9' -> (
          let pos = ref v in
          match number_at s pos with
          | x ->
              keep vals k x;
              !pos
          | exception Fail _ -> -1)
      | _ -> -1
    in
    if stop < 0 || stop >= n then false
    else
      match s.[stop] with
      | ',' -> scan_fields keys s vals (stop + 1)
      | '}' -> stop = n - 1
      | _ -> false

let members keys s =
  let vals = Array.make (Array.length keys) None in
  if String.length s > 1 && s.[0] = '{' && scan_fields keys s vals 1 then
    Ok vals
  else
    match parse s with
    | Error _ as e -> e
    | Ok j ->
        Array.iteri (fun i k -> vals.(i) <- member k j) keys;
        Ok vals

