(* Tests for the live-serving subsystem (lib/serve): Proto codec
   round-trips (qcheck) and malformed-line diagnostics, the wire path
   against test/proto_ref.ml's tree codec (writer bytes, scanner
   results and diagnostics, on valid, mutated and arbitrary lines) and
   its allocation bound, admission policies, engine conservation laws,
   the replay-determinism pin (byte-identical response stream across
   runs, and the same verdicts across engines), MD5 goldens of the
   response stream, and the soak guard (steady-state allocation per
   decision stays flat between the first and last window). *)

module Rng = Ftcsn_prng.Rng
module Json = Ftcsn_obs.Json
module Benes = Ftcsn_networks.Benes
module Proto = Ftcsn_serve.Proto
module Admission = Ftcsn_serve.Admission
module Engine = Ftcsn_serve.Engine
module Loop = Ftcsn_serve.Loop

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)

(* ---------- Proto: generators ---------- *)

(* text the writer must escape or pass through untouched: quotes,
   backslashes, every control byte, DEL and multi-byte UTF-8 *)
let gen_text size =
  QCheck2.Gen.(
    map (String.concat "")
      (list_size size
         (frequency
            [
              (4, map (String.make 1) printable);
              (1, map (String.make 1) (char_range '\000' '\031'));
              (1, oneofl [ "\""; "\\"; "\127"; "é"; "ε"; "€"; "𝄞" ]);
            ])))

let gen_id =
  QCheck2.Gen.(
    map (fun (c, s) -> Printf.sprintf "%c%s" c s)
      (pair (char_range 'a' 'z') (gen_text (0 -- 12))))

(* finite, non-NaN floats that exercise the float printer *)
let gen_time = QCheck2.Gen.(map (fun f -> Float.abs f) pfloat)
let gen_opt g = QCheck2.Gen.(opt g)

let gen_request =
  QCheck2.Gen.(
    oneof
      [
        map
          (fun (id, (src, dst, hold, at)) ->
            Proto.Call { id; src; dst; hold; at })
          (pair gen_id
             (quad
                (gen_opt (0 -- 1000))
                (gen_opt (0 -- 1000))
                (gen_opt (map (fun f -> 0.001 +. Float.abs f) pfloat))
                (gen_opt gen_time)));
        map (fun (id, at) -> Proto.Hangup { id; at }) (pair gen_id (gen_opt gen_time));
        map (fun at -> Proto.Metrics { at }) (gen_opt gen_time);
      ])

(* [t] draws the virtual times, [data] a snapshot's payload *)
let gen_response_with ~t:t_gen ~data =
  QCheck2.Gen.(
    oneof
      [
        map
          (fun (id, t, path_len) -> Proto.Accept { id; t; path_len })
          (triple gen_id t_gen (0 -- 64));
        map
          (fun (id, t, full) ->
            Proto.Block
              { id; t; reason = (if full then Proto.Full else Proto.No_path) })
          (triple gen_id t_gen bool);
        map (fun (id, t) -> Proto.Overload { id; t }) (pair gen_id t_gen);
        map
          (fun (id, t, path_len) -> Proto.Rerouted { id; t; path_len })
          (triple gen_id t_gen (0 -- 64));
        map (fun (id, t) -> Proto.Dropped { id; t }) (pair gen_id t_gen);
        map (fun (id, t) -> Proto.Released { id; t }) (pair gen_id t_gen);
        map (fun t -> Proto.Catastrophe { t }) t_gen;
        map (fun (t, data) -> Proto.Snapshot { t; data }) (pair t_gen data);
        map
          (fun (id, msg) -> Proto.Error { id; message = msg })
          (pair (gen_opt gen_id) (gen_text (0 -- 30)));
      ])

let gen_response =
  gen_response_with ~t:gen_time
    ~data:
      QCheck2.Gen.(map (fun k -> Json.Obj [ ("k", Json.Int k) ]) (0 -- 1000))

(* any double: NaN, infinities, subnormals and negatives included *)
let gen_any_float = QCheck2.Gen.(map Int64.float_of_bits int64)

(* snapshot payloads that nest lists and objects over every leaf kind *)
let gen_json =
  QCheck2.Gen.(
    sized_size (0 -- 3)
    @@ fix (fun self depth ->
           let leaf =
             oneof
               [
                 pure Json.Null;
                 map (fun b -> Json.Bool b) bool;
                 map (fun i -> Json.Int i) int;
                 map (fun f -> Json.Float f) gen_any_float;
                 map (fun s -> Json.String s) (gen_text (0 -- 8));
               ]
           in
           if depth = 0 then leaf
           else
             frequency
               [
                 (1, leaf);
                 ( 2,
                   map (fun l -> Json.List l)
                     (list_size (0 -- 4) (self (depth - 1))) );
                 ( 2,
                   map (fun l -> Json.Obj l)
                     (list_size (0 -- 4)
                        (pair (gen_text (0 -- 6)) (self (depth - 1)))) );
               ]))

let gen_wild_response = gen_response_with ~t:gen_any_float ~data:gen_json

let qcheck_request_roundtrip =
  QCheck2.Test.make ~name:"request_to_string |> parse_request is identity"
    ~count:500 gen_request (fun req ->
      match Proto.parse_request (Proto.request_to_string req) with
      | Ok req' -> req' = req
      | Error (_, msg) -> QCheck2.Test.fail_reportf "parse failed: %s" msg)

let qcheck_response_roundtrip =
  QCheck2.Test.make ~name:"response_to_string |> response_of_string is identity"
    ~count:500 gen_response (fun resp ->
      match Proto.response_of_string (Proto.response_to_string resp) with
      | Ok resp' -> resp' = resp
      | Error msg -> QCheck2.Test.fail_reportf "parse failed: %s" msg)

(* every response line is one complete JSON object — what the CI smoke
   greps and any JSON-lines consumer assume *)
let qcheck_response_is_json =
  QCheck2.Test.make ~name:"every response line parses as one JSON object"
    ~count:500 gen_response (fun resp ->
      match Json.parse (Proto.response_to_string resp) with
      | Ok (Json.Obj _) -> true
      | _ -> false)

(* ---------- Proto: the wire path against the tree codec ---------- *)

let qcheck_writer_oracle =
  QCheck2.Test.make
    ~name:"response_to_string = field-list oracle, byte for byte" ~count:2000
    gen_wild_response (fun r ->
      let got = Proto.response_to_string r
      and want = Proto_ref.response_to_string r in
      got = want || QCheck2.Test.fail_reportf "writer %S\noracle %S" got want)

(* Values a mutated line may carry: the wire's own kinds and the cases
   where the scanner must hand over to the general parser or classify a
   number exactly as it does. *)
let gen_odd_value =
  QCheck2.Gen.oneofl
    [
      {|"c1"|}; {|"c\u0031"|}; {|"a\"b"|}; {|""|}; {|"dance"|}; "3"; "3.0";
      "1"; "-1"; "0"; "-0"; "-0.0"; "007"; "0.5"; "2.5E-3"; "1e400"; "-1e400";
      "1e-400";
      "4611686018427387903"; "4611686018427387904"; "-4611686018427387904";
      "-4611686018427387905"; "99999999999999999999"; "4503599627370497.0";
      "null"; "nul"; "nope"; "true"; "tru"; "false"; "[]"; "[1]";
      {|{"a":1}|}; "{}"; "1.5x"; "-"; "1."; ".5"; "+1"; "1e"; "0x10"; "NaN";
      {|"unterminated|};
    ]

let gen_number =
  QCheck2.Gen.(
    oneof
      [
        map string_of_int (-3 -- 1000);
        map (Printf.sprintf "%.17g") (float_range (-1.0) 1000.0);
        map (fun f -> Json.to_string (Json.Float f)) gen_time;
      ])

(* a value for key [k]: mostly well-typed for it, sometimes odd *)
let gen_value k =
  QCheck2.Gen.(
    let typical =
      match k with
      | "req" | {|r\u0065q|} ->
          oneofl [ {|"call"|}; {|"hangup"|}; {|"metrics"|} ]
      | "resp" ->
          oneofl
            [
              {|"accept"|}; {|"block"|}; {|"overload"|}; {|"rerouted"|};
              {|"dropped"|}; {|"released"|}; {|"catastrophe"|};
              {|"metrics"|}; {|"error"|};
            ]
      | "id" -> map (Printf.sprintf {|"c%d"|}) (0 -- 99)
      | "reason" -> oneofl [ {|"full"|}; {|"no_path"|} ]
      | "message" -> oneofl [ {|"boom"|}; {|"x\ny"|} ]
      | "data" -> oneofl [ {|{"k":1}|}; "[]"; "2" ]
      | _ -> gen_number
    in
    frequency [ (3, typical); (1, gen_odd_value) ])

(* A line that starts as an object tagged [tag] holding each of
   [fields] or not, then mutates: values turn odd, up to two fields over
   [extra] join (repeated, unknown and escaped keys), the order is
   shuffled, whitespace falls between tokens now and then and, once in a
   while, bytes follow the closing brace. *)
let gen_mutated_line ~tag ~fields ~extra =
  QCheck2.Gen.(
    let ws =
      frequency [ (12, pure ""); (1, oneofl [ " "; "\t"; "\n"; "\r"; "  " ]) ]
    in
    let field k = map (fun v -> (k, v)) (gen_value k) in
    let render (k, v) =
      map
        (fun (w1, w2, w3) -> Printf.sprintf {|%s"%s"%s:%s%s|} w1 k w2 w3 v)
        (triple ws ws ws)
    in
    let kvs =
      triple (field tag)
        (flatten_l (List.map (fun k -> opt (field k)) fields))
        (list_size (0 -- 2) (oneofl extra >>= field))
      >>= fun (t, present, more) ->
      shuffle_l ((t :: List.filter_map Fun.id present) @ more)
    in
    map3
      (fun parts (w0, w4) tail ->
        w0 ^ "{" ^ String.concat "," parts ^ w4 ^ "}" ^ tail)
      (kvs >>= fun kvs -> flatten_l (List.map render kvs))
      (pair ws ws)
      (frequency [ (12, pure ""); (1, oneofl [ " "; "x"; "}"; ","; "\n" ]) ]))

let gen_mutated_request =
  gen_mutated_line ~tag:"req"
    ~fields:[ "id"; "in"; "out"; "hold"; "at" ]
    ~extra:[ "req"; "id"; "in"; "hold"; "at"; "x"; ""; "ids"; {|r\u0065q|} ]

let gen_mutated_response =
  gen_mutated_line ~tag:"resp"
    ~fields:[ "id"; "t"; "path_len"; "reason"; "message"; "data" ]
    ~extra:[ "resp"; "id"; "t"; "message"; "x"; ""; "ts"; {|\u0074|} ]

let gen_bytes = QCheck2.Gen.(string_size ~gen:char (0 -- 40))

let parse_agrees line =
  Proto.parse_request line = Proto_ref.parse_request line
  || QCheck2.Test.fail_reportf "%S: scanner and tree decoder differ" line

let decode_agrees line =
  Proto.response_of_string line = Proto_ref.response_of_string line
  || QCheck2.Test.fail_reportf "%S: scanner and tree decoder differ" line

let prefixes_agree agrees line =
  List.for_all
    (fun k -> agrees (String.sub line 0 k))
    (List.init (String.length line + 1) Fun.id)

let qcheck_parse_agrees =
  QCheck2.Test.make
    ~name:"parse_request = tree decoder on wire lines and every prefix"
    ~count:500 gen_request (fun r ->
      prefixes_agree parse_agrees (Proto.request_to_string r))

let qcheck_parse_agrees_mutated =
  QCheck2.Test.make
    ~name:"parse_request = tree decoder on mutated lines, diagnostics included"
    ~count:10_000 gen_mutated_request parse_agrees

let qcheck_parse_agrees_bytes =
  QCheck2.Test.make ~name:"parse_request = tree decoder on arbitrary bytes"
    ~count:2000
    QCheck2.Gen.(
      oneof [ gen_bytes; map (fun s -> "{" ^ s ^ "}") gen_bytes ])
    parse_agrees

let qcheck_decode_agrees =
  QCheck2.Test.make
    ~name:"response_of_string = tree decoder on writer lines and every prefix"
    ~count:500 gen_wild_response (fun r ->
      prefixes_agree decode_agrees (Proto.response_to_string r))

let qcheck_decode_agrees_malformed =
  QCheck2.Test.make
    ~name:"response_of_string = tree decoder on mutated lines and bytes"
    ~count:10_000
    QCheck2.Gen.(oneof [ gen_mutated_response; gen_bytes ])
    decode_agrees

(* The wire path's allocation: call lines in, accept and released lines
   out, at replay-like virtual times (Poisson arrivals at rate 1000). *)
let test_wire_allocation () =
  let n = 10_000 in
  let rng = Rng.create ~seed:5 in
  let now = ref 0.0 in
  let times =
    Array.init n (fun _ ->
        now := !now +. Ftcsn_des.Dist.exponential rng ~rate:1000.0;
        !now)
  in
  let lines =
    Array.mapi
      (fun k at ->
        Proto.request_to_string
          (Proto.Call
             {
               id = "c" ^ string_of_int k;
               src = None;
               dst = None;
               hold = None;
               at = Some at;
             }))
      times
  in
  let responses =
    Array.mapi
      (fun k t ->
        let id = "c" ^ string_of_int k in
        if k land 1 = 0 then Proto.Accept { id; t; path_len = 23 }
        else Proto.Released { id; t })
      times
  in
  let words_per f xs =
    let w0 = Gc.minor_words () in
    Array.iter (fun x -> ignore (Sys.opaque_identity (f x))) xs;
    (Gc.minor_words () -. w0) /. float_of_int n
  in
  let parse = words_per Proto.parse_request lines in
  let serialize = words_per Proto.response_to_string responses in
  checkb
    (Printf.sprintf "parse_request: %.1f minor words per call line (<= 80)"
       parse)
    true (parse <= 80.0);
  checkb
    (Printf.sprintf
       "response_to_string: %.1f minor words per response (<= 30)" serialize)
    true (serialize <= 30.0)

(* ---------- Proto: malformed lines ---------- *)

let test_malformed_lines () =
  let expect_err line needle =
    match Proto.parse_request line with
    | Ok _ -> Alcotest.failf "expected parse failure on %S" line
    | Error (_, msg) ->
        let found =
          let n = String.length needle and m = String.length msg in
          let rec go i = i + n <= m && (String.sub msg i n = needle || go (i + 1)) in
          go 0
        in
        checkb (Printf.sprintf "%S diagnoses %S (got %S)" line needle msg)
          true found
  in
  expect_err "" "bad json";
  expect_err "{not json" "bad json";
  expect_err {|42|} {|"req"|};
  expect_err {|{"id":"x"}|} {|"req"|};
  expect_err {|{"req":"dance","id":"x"}|} "unknown request type";
  expect_err {|{"req":"call"}|} {|"id"|};
  expect_err {|{"req":"call","id":""}|} {|"id"|};
  expect_err {|{"req":"hangup"}|} {|"id"|};
  expect_err {|{"req":"call","id":"x","in":"zero"}|} {|"in"|};
  expect_err {|{"req":"call","id":"x","hold":-1}|} {|"hold"|};
  expect_err {|{"req":"call","id":"x","hold":"long"}|} {|"hold"|};
  expect_err {|{"req":"call","id":"x","at":-0.5}|} {|"at"|};
  expect_err {|{"req":"metrics","at":"never"}|} {|"at"|};
  (* the id is recovered when the line carries one, so the error reply
     can echo it back to the client *)
  (match Proto.parse_request {|{"req":"call","id":"c9","hold":-1}|} with
  | Error (Some "c9", _) -> ()
  | Error (id, _) ->
      Alcotest.failf "expected recovered id c9, got %s"
        (Option.value id ~default:"<none>")
  | Ok _ -> Alcotest.fail "expected failure");
  (* and the normalized error reply is itself valid JSON *)
  let reply =
    Proto.response_to_string (Proto.error_response ~id:(Some "c9") "boom")
  in
  match Json.parse reply with
  | Ok (Json.Obj fields) ->
      checkb "tagged as error" true
        (List.assoc_opt "resp" fields = Some (Json.String "error"))
  | _ -> Alcotest.fail "error reply is not a JSON object"

(* ---------- Admission ---------- *)

let test_admission () =
  let d p ~occupancy ~queue_depth = Admission.decide p ~occupancy ~queue_depth in
  checkb "unlimited admits" true
    (d (Admission.combine []) ~occupancy:1.0 ~queue_depth:max_int = Admission.Admit);
  let ml = Admission.max_load 0.5 in
  checkb "below bound admits" true (d ml ~occupancy:0.49 ~queue_depth:0 = Admission.Admit);
  checkb "at bound sheds" true (d ml ~occupancy:0.5 ~queue_depth:0 = Admission.Shed);
  let ql = Admission.queue_limit 4 in
  checkb "short queue admits" true (d ql ~occupancy:1.0 ~queue_depth:3 = Admission.Admit);
  checkb "full queue sheds" true (d ql ~occupancy:0.0 ~queue_depth:4 = Admission.Shed);
  let both = Admission.combine [ ml; ql ] in
  checkb "combine sheds if any" true
    (d both ~occupancy:0.9 ~queue_depth:0 = Admission.Shed);
  checkb "combine admits if all" true
    (d both ~occupancy:0.1 ~queue_depth:1 = Admission.Admit);
  checks "combined name" "max-load<0.5+queue<4" (Admission.name both);
  let raises f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail "expected Invalid_argument"
  in
  raises (fun () -> Admission.max_load 0.0);
  raises (fun () -> Admission.queue_limit 0)

(* ---------- replay harness ---------- *)

let benes n = Benes.create n

(* a scripted request mix: calls (some with explicit endpoints, holds
   and timestamps), hangups (live, unknown and repeated), bad lines *)
let script ~calls =
  let b = Buffer.create (calls * 48) in
  for i = 0 to calls - 1 do
    let id = i mod 7 in
    if id = 5 then
      Buffer.add_string b
        (Printf.sprintf {|{"req":"hangup","id":"c%d"}|} (i - 3))
    else if id = 6 then Buffer.add_string b {|{"req":"oops"}|}
    else begin
      Buffer.add_string b
        (Printf.sprintf {|{"req":"call","id":"c%d","at":%.4f|} i
           (float_of_int i *. 0.05));
      if id = 1 then Buffer.add_string b {|,"hold":0.75|};
      if id = 2 then Buffer.add_string b {|,"in":1|};
      Buffer.add_string b "}"
    end;
    Buffer.add_char b '\n'
  done;
  Buffer.contents b

let with_script text f =
  let path = Filename.temp_file "ftcsn_serve" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc text;
      close_out oc;
      let ic = open_in path in
      Fun.protect ~finally:(fun () -> close_in ic) (fun () -> f ic))

(* run the full reactor stack over a script and return the response
   stream as one string plus the engine for post-hoc inspection *)
let run_replay ?(engine = `Bfs) ?(seed = 11) ?admission
    ?(mtbf = 40.0) ~calls net_gen =
  let net = net_gen () in
  let out = Buffer.create 4096 in
  let emit r =
    Buffer.add_string out (Proto.response_to_string r);
    Buffer.add_char out '\n'
  in
  let eng =
    Engine.create ~engine ~mtbf ~mttr:2.0 ~emit
      ~rng:(Rng.create ~seed) net
  in
  let admission = Option.value admission ~default:(Admission.combine []) in
  let reason =
    with_script (script ~calls) (fun ic ->
        Loop.replay ~engine:eng ~admission ~emit ic)
  in
  (Buffer.contents out, eng, reason)

let test_replay_deterministic () =
  (* byte-identical across runs of each routing engine; the engines may
     pick different equal-length paths, so cross-engine we pin only the
     verdict stream *)
  let net () = benes 64 in
  List.iter
    (fun engine ->
      let ref_out, _, _ = run_replay ~engine ~calls:600 net in
      let again, _, _ = run_replay ~engine ~calls:600 net in
      checks "identical across runs" ref_out again)
    [ `Bfs; `Staged; `Loop ];
  (* verdict (accept/block per call id) agrees across engines *)
  let verdicts out =
    String.split_on_char '\n' out
    |> List.filter_map (fun l ->
           if l = "" then None
           else
             match Proto.response_of_string l with
             | Ok (Proto.Accept { id; _ }) -> Some (id ^ ":a")
             | Ok (Proto.Block { id; _ }) -> Some (id ^ ":b")
             | _ -> None)
  in
  let bfs, _, _ = run_replay ~engine:`Bfs ~calls:600 net in
  let loop, _, _ = run_replay ~engine:`Loop ~calls:600 net in
  Alcotest.(check (list string))
    "engines agree on accept vs block" (verdicts bfs) (verdicts loop)

(* MD5 of the response stream per routing engine, recorded from the
   engine itself: the determinism pin above compares two runs of the
   same build, this one compares against a fixed past *)
let test_replay_goldens () =
  List.iter
    (fun (engine, name, md5) ->
      let out, _, _ = run_replay ~engine ~calls:600 (fun () -> benes 64) in
      checks (name ^ " stream MD5") md5 (Digest.to_hex (Digest.string out)))
    [
      (`Bfs, "bfs", "920cfe7a55c56c06f880b30d9efa83f4");
      (`Staged, "staged", "920cfe7a55c56c06f880b30d9efa83f4");
      (`Loop, "loop", "920cfe7a55c56c06f880b30d9efa83f4");
    ]

let test_conservation_and_metrics () =
  let out, eng, _ =
    run_replay ~engine:`Loop ~calls:1200
      ~admission:(Admission.max_load 0.25)
      (fun () -> benes 32)
  in
  let j = Engine.metrics_json eng in
  let geti k =
    match Option.bind (Json.member k j) Json.to_int with
    | Some v -> v
    | None -> Alcotest.failf "metrics field %s missing" k
  in
  let offered = geti "offered"
  and accepted = geti "accepted"
  and blocked = geti "blocked"
  and overload = geti "overload" in
  checki "offered = accepted + blocked + overload" offered
    (accepted + blocked + overload);
  checki "engine decisions = offered" (Engine.decisions eng) offered;
  checkb "admission actually shed" true (overload > 0);
  (* every response line in the stream is valid JSON and the accept
     count in the stream matches the counter *)
  let accepts = ref 0 in
  String.split_on_char '\n' out
  |> List.iter (fun l ->
         if l <> "" then
           match Proto.response_of_string l with
           | Ok (Proto.Accept _) -> incr accepts
           | Ok _ -> ()
           | Error e -> Alcotest.failf "unparseable response %S: %s" l e);
  checki "accept lines = accepted counter" accepted !accepts;
  (* releases/drops can't exceed what was ever placed *)
  checkb "released + dropped <= accepted" true
    (geti "released" + geti "dropped" <= accepted);
  (* the histogram saw every call decision that reached routing *)
  match Json.member "decision_latency_ns" j with
  | Some h ->
      let cnt = Option.bind (Json.member "count" h) Json.to_int in
      checkb "latency histogram populated" true (cnt <> None && cnt <> Some 0)
  | None -> Alcotest.fail "decision_latency_ns missing"

(* With no calls every event is a failure or a repair: the failure
   clock's discarded ticks (about one in six at this unavailability of
   1/6) must not count in the [events] metric. *)
let test_discarded_ticks_not_events () =
  let eng =
    Engine.create ~mtbf:5.0 ~mttr:1.0 ~emit:ignore ~rng:(Rng.create ~seed:13)
      (benes 16)
  in
  Engine.advance eng 50.0;
  let j = Engine.metrics_json eng in
  let geti k =
    match Option.bind (Json.member k j) Json.to_int with
    | Some v -> v
    | None -> Alcotest.failf "metrics field %s missing" k
  in
  checkb "failures happened" true (geti "failures" > 1000);
  checki "events = failures + repairs"
    (geti "failures" + geti "repairs")
    (geti "events")

let test_explicit_endpoints_and_hangups () =
  let net = benes 16 in
  let out = Buffer.create 256 in
  let emit r =
    Buffer.add_string out (Proto.response_to_string r);
    Buffer.add_char out '\n'
  in
  let eng = Engine.create ~emit ~rng:(Rng.create ~seed:3) net in
  let handle l =
    match Proto.parse_request l with
    | Ok r -> Engine.handle eng r
    | Error (_, m) -> Alcotest.failf "bad test line %S: %s" l m
  in
  handle {|{"req":"call","id":"a","in":0,"out":0}|};
  handle {|{"req":"call","id":"a","in":1,"out":1}|} (* duplicate id *);
  handle {|{"req":"call","id":"b","in":0,"out":1}|} (* input 0 busy *);
  handle {|{"req":"call","id":"c","in":99,"out":1}|} (* out of range *);
  handle {|{"req":"hangup","id":"a"}|};
  handle {|{"req":"hangup","id":"a"}|} (* now unknown *);
  handle {|{"req":"call","id":"b2","in":0,"out":1}|} (* 0 idle again *);
  let lines =
    String.split_on_char '\n' (Buffer.contents out)
    |> List.filter (fun l -> l <> "")
    |> List.map (fun l -> Result.get_ok (Proto.response_of_string l))
  in
  (match lines with
  | [
   Proto.Accept { id = "a"; _ };
   Proto.Error { id = Some "a"; _ };
   Proto.Block { id = "b"; reason = Proto.Full; _ };
   Proto.Error { id = Some "c"; _ };
   Proto.Released { id = "a"; _ };
   Proto.Error { id = Some "a"; _ };
   Proto.Accept { id = "b2"; _ };
  ] ->
      ()
  | _ ->
      Alcotest.failf "unexpected response sequence:\n%s" (Buffer.contents out));
  Alcotest.(check (option int)) "two live placements happened, one released" (Some 1)
    (Option.bind (Json.member "live" (Engine.metrics_json eng)) Json.to_int)

(* ---------- soak guard ---------- *)

(* minor words per decision must stay flat between the first and last
   10k-decision window of a --calls-bounded replay: the grow-once
   buffers and the hashtable reach steady state and nothing on the
   failure/repair path accumulates allocation *)
let test_soak_allocation_flat () =
  let net = benes 64 in
  let emit r = ignore (Proto.response_to_string r) in
  let eng =
    Engine.create ~engine:`Loop ~mtbf:20.0 ~mttr:1.0 ~emit
      ~rng:(Rng.create ~seed:9) net
  in
  let admission = Admission.combine [] in
  let window = 10_000 in
  let total = 40_000 in
  with_script (script ~calls:(total * 7 / 4)) (fun ic ->
      let words_for bound =
        let w0 = Gc.minor_words () in
        let _ = Loop.replay ~engine:eng ~admission ~emit ~max_calls:bound ic in
        Gc.minor_words () -. w0
      in
      let first = words_for window in
      let _middle = words_for (total - window) in
      let last = words_for total in
      checki "first window decided 10k" window (min window (Engine.decisions eng));
      let per_first = first /. float_of_int window
      and per_last = last /. float_of_int window in
      (* flat: the warm window can only be cheaper, plus headroom for
         GC noise; a leaking bookkeeping path shows up as a multiple *)
      checkb
        (Printf.sprintf
           "minor words/decision flat (first %.0f, last %.0f)" per_first
           per_last)
        true
        (per_last <= (per_first *. 1.25) +. 16.0))

(* ---------- runner ---------- *)

let () =
  Alcotest.run "ftcsn_serve"
    [
      ( "proto",
        List.map QCheck_alcotest.to_alcotest
          [
            qcheck_request_roundtrip;
            qcheck_response_roundtrip;
            qcheck_response_is_json;
            qcheck_writer_oracle;
            qcheck_parse_agrees;
            qcheck_parse_agrees_mutated;
            qcheck_parse_agrees_bytes;
            qcheck_decode_agrees;
            qcheck_decode_agrees_malformed;
          ]
        @ [
            Alcotest.test_case "malformed lines" `Quick test_malformed_lines;
            Alcotest.test_case "wire allocation per line" `Quick
              test_wire_allocation;
          ] );
      ( "admission",
        [ Alcotest.test_case "policies" `Quick test_admission ] );
      ( "engine",
        [
          Alcotest.test_case "replay determinism pin" `Quick
            test_replay_deterministic;
          Alcotest.test_case "replay stream goldens" `Quick
            test_replay_goldens;
          Alcotest.test_case "conservation + metrics" `Quick
            test_conservation_and_metrics;
          Alcotest.test_case "discarded ticks are no events" `Quick
            test_discarded_ticks_not_events;
          Alcotest.test_case "endpoints, duplicates, hangups" `Quick
            test_explicit_endpoints_and_hangups;
        ] );
      ( "soak",
        [
          Alcotest.test_case "allocation flat across windows" `Slow
            test_soak_allocation_flat;
        ] );
    ]
