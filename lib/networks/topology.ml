type spec = { family : string; args : (string * string) list }

exception Spec_error of string

let spec_error fmt = Printf.ksprintf (fun msg -> raise (Spec_error msg)) fmt

(* ---------- spec mini-language ---------- *)

let looks_like_int s =
  s <> ""
  && String.for_all (fun c -> c >= '0' && c <= '9') s

let parse s =
  match String.split_on_char ':' s with
  | [] | [ "" ] -> Error "empty network spec"
  | family :: rest -> (
      try
        if family = "" then spec_error "invalid network spec %S: empty family" s;
        let args =
          List.map
            (fun component ->
              if component = "" then
                spec_error "invalid network spec %S: empty component" s;
              match String.index_opt component '=' with
              | Some i ->
                  let key = String.sub component 0 i in
                  let value =
                    String.sub component (i + 1)
                      (String.length component - i - 1)
                  in
                  if key = "" then
                    spec_error "invalid network spec %S: empty parameter name"
                      s;
                  (key, value)
              | None ->
                  if looks_like_int component then ("n", component)
                  else (component, ""))
            rest
        in
        let rec check_dup = function
          | [] -> ()
          | (k, _) :: tl ->
              if List.mem_assoc k tl then
                spec_error "duplicate parameter %S in spec %S" k s
              else check_dup tl
        in
        check_dup args;
        Ok { family; args }
      with Spec_error msg -> Error msg)

let to_string { family; args } =
  String.concat ":"
    (family
    :: List.map
         (function
           | "n", v -> v  (* canonical shorthand *)
           | k, "" -> k
           | k, v -> k ^ "=" ^ v)
         args)

(* ---------- generator signature ---------- *)

type param = { key : string; pdoc : string; kind : [ `Int | `Flag ] }

type gen = {
  name : string;
  aliases : string list;
  doc : string;
  params : param list;
  exact_pow2 : bool;
  build : args:(string * string) list -> n:int -> rng:Ftcsn_prng.Rng.t -> Network.t;
}

let int_arg_opt ~family args key =
  match List.assoc_opt key args with
  | None -> None
  | Some v -> (
      match int_of_string_opt v with
      | Some i -> Some i
      | None ->
          spec_error "parameter %S of family %s: %S is not an integer" key
            family v)

let int_arg ~family args key ~default =
  Option.value ~default (int_arg_opt ~family args key)

let flag_arg args key = List.mem_assoc key args

(* ---------- registry ---------- *)

let registry : (string, gen) Hashtbl.t = Hashtbl.create 32
let canonical : gen list ref = ref []

let register g =
  List.iter
    (fun key ->
      if Hashtbl.mem registry key then
        invalid_arg
          (Printf.sprintf "Topology.register: family %S already registered" key))
    (g.name :: g.aliases);
  List.iter (fun key -> Hashtbl.replace registry key g) (g.name :: g.aliases);
  canonical := g :: !canonical

let find name = Hashtbl.find_opt registry name

let all () =
  List.sort (fun a b -> compare a.name b.name) !canonical

let names () = List.map (fun g -> g.name) (all ())

(* ---------- building ---------- *)

type built = {
  gen : gen;
  spec : spec;
  net : Network.t;
  n_requested : int;
  n_effective : int;
}

let log2_ceil n =
  let rec go k acc = if acc >= n then k else go (k + 1) (acc * 2) in
  go 0 1

let pow2_ceil n = max 2 (1 lsl log2_ceil n)

let is_pow2 n = n >= 2 && n land (n - 1) = 0

let validate_args gen args =
  List.iter
    (fun (key, value) ->
      if key = "n" then begin
        if int_of_string_opt value = None then
          spec_error "parameter \"n\" of family %s: %S is not an integer"
            gen.name value
      end
      else
        match List.find_opt (fun p -> p.key = key) gen.params with
        | None ->
            let known =
              match List.map (fun p -> p.key) gen.params with
              | [] -> "family takes no parameters besides n"
              | keys -> "known: " ^ String.concat ", " keys
            in
            spec_error "unknown parameter %S for family %s (%s)" key gen.name
              known
        | Some { kind = `Flag; _ } ->
            if value <> "" then
              spec_error "parameter %S of family %s is a flag and takes no value"
                key gen.name
        | Some { kind = `Int; _ } -> ())
    args

let build ?n ~rng spec =
  match find spec.family with
  | None ->
      Error
        (Printf.sprintf "unknown network family %S (known: %s)" spec.family
           (String.concat ", " (names ())))
  | Some gen -> (
      try
        validate_args gen spec.args;
        let n_requested =
          match int_arg_opt ~family:gen.name spec.args "n" with
          | Some i -> i
          | None -> (
              match n with
              | Some i -> i
              | None ->
                  spec_error "family %s: no terminal count given (append :N \
                              to the spec or pass -n)" gen.name)
        in
        if n_requested < 1 then
          spec_error "family %s: n must be an integer >= 1 (got %d)" gen.name
            n_requested;
        if gen.exact_pow2 && not (is_pow2 n_requested) then
          spec_error
            "family %s requires n to be a power of two >= 2 (got %d; nearest \
             is %d)"
            gen.name n_requested (pow2_ceil n_requested);
        let net =
          try gen.build ~args:spec.args ~n:n_requested ~rng
          with Invalid_argument msg ->
            spec_error "family %s: %s" gen.name msg
        in
        Ok
          {
            gen;
            spec;
            net;
            n_requested;
            n_effective = Network.n_inputs net;
          }
      with Spec_error msg -> Error msg)

let build_string ?n ~rng s =
  match parse s with
  | Error msg -> Error msg
  | Ok spec -> build ?n ~rng spec

(* ---------- built-in families ---------- *)

let no_params = []

let simple ?(aliases = []) ?(params = no_params) ?(exact_pow2 = false) name doc
    build =
  { name; aliases; doc; params; exact_pow2; build }

let () =
  List.iter register
    [
      simple "benes" "Benes rearrangeable network (n rounded up to a power of two)"
        (fun ~args:_ ~n ~rng:_ -> Benes.create (pow2_ceil n));
      simple "butterfly" "plain butterfly: unique paths, no fault tolerance"
        (fun ~args:_ ~n ~rng:_ -> Butterfly.make (pow2_ceil n));
      simple "multibutterfly"
        "Leighton-Maggs multibutterfly with seeded-random splitters"
        ~params:
          [ { key = "degree"; pdoc = "edges into each half-block (default 2)"; kind = `Int } ]
        (fun ~args ~n ~rng ->
          let degree = int_arg ~family:"multibutterfly" args "degree" ~default:2 in
          Multibutterfly.make ~rng ~degree (pow2_ceil n));
      simple "cantor" "Cantor network: log n parallel Benes copies, strictly nonblocking"
        ~params:
          [ { key = "copies"; pdoc = "parallel Benes copies (default log2 n)"; kind = `Int } ]
        (fun ~args ~n ~rng:_ ->
          match int_arg_opt ~family:"cantor" args "copies" with
          | Some copies -> Cantor.make ~copies (pow2_ceil n)
          | None -> Cantor.make (pow2_ceil n));
      simple "crossbar" "n x m crossbar: one switch per terminal pair"
        ~params:
          [ { key = "m"; pdoc = "output count (default n, i.e. square)"; kind = `Int } ]
        (fun ~args ~n ~rng:_ ->
          match int_arg_opt ~family:"crossbar" args "m" with
          | Some m -> Crossbar.make ~n ~m ()
          | None -> Crossbar.square n);
      simple "clos" "three-stage Clos, strictly nonblocking (m = 2k-1)"
        ~params:
          [ { key = "rearr"; pdoc = "rearrangeable sizing (m = k) instead"; kind = `Flag } ]
        (fun ~args ~n ~rng:_ ->
          if flag_arg args "rearr" then Clos.rearrangeable ~n
          else Clos.nonblocking ~n);
      simple "clos-rearr" "three-stage Clos, rearrangeable sizing (preset for clos:rearr)"
        (fun ~args:_ ~n ~rng:_ -> Clos.rearrangeable ~n);
      simple "valiant-sc" ~aliases:[ "valiant" ]
        "linear-size superconcentrator (Valiant/Gabber-Galil recursion)"
        ~params:
          [
            { key = "degree"; pdoc = "concentrator degree (default 6)"; kind = `Int };
            { key = "cutoff"; pdoc = "crossbar cutoff size (default 8)"; kind = `Int };
          ]
        (fun ~args ~n ~rng ->
          let degree = int_arg ~family:"valiant-sc" args "degree" ~default:6 in
          let cutoff = int_arg ~family:"valiant-sc" args "cutoff" ~default:8 in
          Valiant_sc.make ~rng ~degree ~cutoff n);
      simple "recursive-nb" ~aliases:[ "recursive" ]
        "Pippenger [P82] recursive strictly-nonblocking construction (scaled)"
        ~params:
          [ { key = "levels"; pdoc = "recursion levels (default from n)"; kind = `Int } ]
        (fun ~args ~n ~rng ->
          let levels =
            match int_arg_opt ~family:"recursive-nb" args "levels" with
            | Some l -> l
            | None -> max 1 ((log2_ceil n + 1) / 2)
          in
          let net, _ =
            Recursive_nb.make ~rng ~params:(Recursive_nb.scaled_params ())
              ~levels
          in
          net);
      simple "multistage" "recursive Clos of limited depth (Pippenger-Yao regime)"
        ~params:
          [
            { key = "levels"; pdoc = "recursive Clos levels (default 2)"; kind = `Int };
            { key = "k"; pdoc = "ingress ports per level (default balanced)"; kind = `Int };
          ]
        (fun ~args ~n ~rng:_ ->
          let levels = int_arg ~family:"multistage" args "levels" ~default:2 in
          let k = int_arg_opt ~family:"multistage" args "k" in
          Multistage.create ?k ~levels n);
      simple "delta" ~exact_pow2:true
        "delta network: butterfly wiring with reversed bit order, unique paths"
        (fun ~args:_ ~n ~rng:_ -> Delta.delta n);
      simple "omega" ~exact_pow2:true
        "omega network: log n perfect-shuffle/exchange stages, unique paths"
        (fun ~args:_ ~n ~rng:_ -> Delta.omega n);
      simple "banyan" ~exact_pow2:true
        "SW-banyan (baseline wiring): recursive inverse shuffles, unique paths"
        (fun ~args:_ ~n ~rng:_ -> Delta.banyan n);
      simple "butterfly-pair" ~aliases:[ "bradley" ] ~exact_pow2:true
        "Bradley superconcentrator: a butterfly concatenated with its mirror"
        (fun ~args:_ ~n ~rng:_ -> Butterfly_pair.make n);
    ]
