type align = Left | Right

type t = {
  title : string;
  headers : string list;
  aligns : align list;
  mutable rows : string list list; (* reversed *)
}

let create ~title ~columns =
  { title; headers = List.map fst columns; aligns = List.map snd columns; rows = [] }

let add_row t cells =
  if List.length cells <> List.length t.headers then
    invalid_arg "Table.add_row: wrong arity";
  t.rows <- cells :: t.rows

let pad align width s =
  let n = String.length s in
  if n >= width then s
  else
    let fill = String.make (width - n) ' ' in
    match align with Left -> s ^ fill | Right -> fill ^ s

let render t =
  let rows = List.rev t.rows in
  let widths =
    List.fold_left
      (fun ws cells -> List.map2 (fun w c -> max w (String.length c)) ws cells)
      (List.map String.length t.headers)
      rows
  in
  let buf = Buffer.create 1024 in
  let line ch =
    List.iter (fun w -> Buffer.add_string buf ("+" ^ String.make (w + 2) ch)) widths;
    Buffer.add_string buf "+\n"
  in
  let emit cells =
    List.iteri
      (fun i c ->
        let w = List.nth widths i in
        let a = List.nth t.aligns i in
        Buffer.add_string buf ("| " ^ pad a w c ^ " "))
      cells;
    Buffer.add_string buf "|\n"
  in
  Buffer.add_string buf ("== " ^ t.title ^ " ==\n");
  line '-';
  emit t.headers;
  line '=';
  List.iter emit rows;
  line '-';
  Buffer.contents buf

let print t =
  print_string (render t);
  print_newline ()

let fi = string_of_int

let ff ?(decimals = 3) x = Printf.sprintf "%.*f" decimals x

let fe x = Printf.sprintf "%.2e" x
