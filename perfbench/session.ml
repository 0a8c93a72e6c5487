(* A closed-loop client of the serve controller, driven in-process along
   the `ftnet serve --replay` path: each request line is generated here
   from the client's seed, then parsed by [Proto.parse_request] and
   handled by [Engine.handle], whose [emit] serializes every response
   with [Proto.response_to_string].  The client reads its responses
   before sending the next request, so it only hangs up calls it knows
   are live.

   Every response is checked (it must round-trip through
   [Proto.response_of_string]; snapshots must conserve
   offered = accepted + blocked + overload) and folded into a digest, so
   two sessions with the same seeds can be compared. *)

open Ftcsn_serve
module Rng = Ftcsn_prng.Rng

type params = {
  rate : float;  (** Poisson calls per virtual time unit *)
  hangup_p : float;  (** chance a request hangs up a live call *)
  metrics_every : int;  (** every k-th request is a [metrics] request *)
}

(* Span names, interned once per recorder. *)
type names = {
  request : int;
  parse : int;
  advance : int;
  decide : int;
  serialize : int;
}

type tracer = {
  sp : Spans.t;
  nm : names;
  parse_ns : Util.Samples.t;
  advance_ns : Util.Samples.t;
  decide_ns : Util.Samples.t;
  serialize_ns : Util.Samples.t;
  mutable parse_words : float;
  mutable serialize_words : float;
  mutable engine_words : float;  (** advance + decide, serialization excluded *)
}

let tracer sp =
  let i = Spans.intern sp in
  {
    sp;
    nm =
      {
        request = i "serve.request";
        parse = i "proto.parse";
        advance = i "engine.advance";
        decide = i "engine.decide";
        serialize = i "proto.serialize";
      };
    parse_ns = Util.Samples.create ();
    advance_ns = Util.Samples.create ();
    decide_ns = Util.Samples.create ();
    serialize_ns = Util.Samples.create ();
    parse_words = 0.0;
    serialize_words = 0.0;
    engine_words = 0.0;
  }

type t = {
  engine : Engine.t;
  client : Rng.t;
  params : params;
  tr : tracer option;
  mutable now : float;  (** the client's virtual clock *)
  mutable sent : int;
  (* live call ids, for hangups: dense array plus index *)
  mutable live : string array;
  mutable nlive : int;
  pos : (string, int) Hashtbl.t;
  (* responses of the request in flight *)
  mutable out : string array;
  mutable nout : int;
  fold : Util.Fold.t;
  mutable responses : int;
  mutable errors : int;  (** [error] replies *)
  mutable bad : int;  (** responses that do not parse or round-trip *)
  mutable no_path : int;
  mutable dropped : int;
  mutable snapshots : int;
  mutable events : int;  (** engine events, from the last snapshot *)
  mutable failures : int;
  mutable rerouted : int;
  mutable problem : string option;  (** first failed check *)
}

let fail s msg = if s.problem = None then s.problem <- Some msg

let push_out s str =
  if s.nout = Array.length s.out then
    s.out <- Array.append s.out (Array.make s.nout "");
  s.out.(s.nout) <- str;
  s.nout <- s.nout + 1

let emit_of cell r =
  let s : t = Option.get !cell in
  match s.tr with
  | None -> push_out s (Proto.response_to_string r)
  | Some tr ->
      let w0 = Gc.minor_words () in
      let i = Spans.enter tr.sp tr.nm.serialize ~req:s.sent in
      let str = Proto.response_to_string r in
      Spans.leave tr.sp i;
      tr.serialize_words <- tr.serialize_words +. (Gc.minor_words () -. w0);
      Util.Samples.add tr.serialize_ns (float_of_int (Spans.duration tr.sp i));
      push_out s str

let create ?tracer ~engine_kind ~mtbf ~mttr ~engine_seed ~client_seed params
    net =
  let cell = ref None in
  let engine =
    Engine.create ~engine:engine_kind ~mtbf ~mttr ~emit:(emit_of cell)
      ~rng:(Rng.create ~seed:engine_seed)
      net
  in
  let s =
    {
      engine;
      client = Rng.create ~seed:client_seed;
      params;
      tr = tracer;
      now = 0.0;
      sent = 0;
      live = Array.make 1024 "";
      nlive = 0;
      pos = Hashtbl.create 4096;
      out = Array.make 16 "";
      nout = 0;
      fold = Util.Fold.create ();
      responses = 0;
      errors = 0;
      bad = 0;
      no_path = 0;
      dropped = 0;
      snapshots = 0;
      events = 0;
      failures = 0;
      rerouted = 0;
      problem = None;
    }
  in
  cell := Some s;
  s

let live_add s id =
  if s.nlive = Array.length s.live then
    s.live <- Array.append s.live (Array.make s.nlive "");
  s.live.(s.nlive) <- id;
  Hashtbl.replace s.pos id s.nlive;
  s.nlive <- s.nlive + 1

let live_remove s id =
  match Hashtbl.find_opt s.pos id with
  | None -> ()
  | Some i ->
      let last = s.live.(s.nlive - 1) in
      s.live.(i) <- last;
      Hashtbl.replace s.pos last i;
      Hashtbl.remove s.pos id;
      s.nlive <- s.nlive - 1

(* The next request line.  Calls arrive as a Poisson process; hangups
   and metrics requests are sent at the current virtual time, so they
   never advance the clock past a call's own release. *)
let next_line s =
  let k = s.sent in
  let p = s.params in
  let req =
    if k mod p.metrics_every = p.metrics_every - 1 then
      Proto.Metrics { at = Some s.now }
    else if s.nlive > 0 && Rng.float s.client < p.hangup_p then
      Proto.Hangup { id = s.live.(Rng.int s.client s.nlive); at = Some s.now }
    else begin
      s.now <- s.now +. Ftcsn_des.Dist.exponential s.client ~rate:p.rate;
      Proto.Call
        {
          id = "c" ^ string_of_int k;
          src = None;
          dst = None;
          hold = None;
          at = Some s.now;
        }
    end
  in
  Proto.request_to_string req

let int_field data k =
  match Ftcsn_obs.Json.member k data with
  | Some v -> Option.value (Ftcsn_obs.Json.to_int v) ~default:(-1)
  | None -> -1

(* Check, digest and book-keep the responses of one request. *)
let absorb s =
  for i = 0 to s.nout - 1 do
    let str = s.out.(i) in
    s.responses <- s.responses + 1;
    match Proto.response_of_string str with
    | Error e ->
        s.bad <- s.bad + 1;
        fail s ("response does not parse: " ^ e)
    | Ok r -> (
        if Proto.response_to_string r <> str then begin
          s.bad <- s.bad + 1;
          fail s ("response does not round-trip: " ^ str)
        end;
        match r with
        | Proto.Snapshot { t; data } ->
            (* the latency histogram is wall-clock data: digest only the
               deterministic counters *)
            let f = int_field data in
            let offered = f "offered" and accepted = f "accepted" in
            let blocked = f "blocked" and overload = f "overload" in
            if offered < 0 || offered <> accepted + blocked + overload then
              fail s "snapshot breaks offered = accepted + blocked + overload";
            s.snapshots <- s.snapshots + 1;
            s.events <- f "events";
            s.failures <- f "failures";
            s.rerouted <- f "rerouted";
            Util.Fold.add s.fold
              (Printf.sprintf "snapshot %s %d %d %d %d %d %d %d %d"
                 (Util.float_bits t) offered accepted blocked overload
                 (f "live") s.events s.failures s.rerouted)
        | r ->
            Util.Fold.add s.fold str;
            (match r with
            | Proto.Accept { id; _ } -> live_add s id
            | Proto.Block { reason = Proto.No_path; _ } ->
                s.no_path <- s.no_path + 1
            | Proto.Dropped { id; _ } ->
                s.dropped <- s.dropped + 1;
                live_remove s id
            | Proto.Released { id; _ } -> live_remove s id
            | Proto.Error _ -> s.errors <- s.errors + 1
            | _ -> ()))
  done;
  s.nout <- 0

let at_of = function
  | Proto.Call { at; _ } | Proto.Hangup { at; _ } | Proto.Metrics { at } -> at

(* One request, untraced: returns its wall time in ns (parse, handle and
   serialization of every response). *)
let step s =
  let line = next_line s in
  let t0 = Util.now_ns () in
  (match Proto.parse_request line with
  | Ok req -> Engine.handle s.engine req
  | Error (id, msg) -> push_out s (Proto.response_to_string (Proto.error_response ~id msg)));
  let dt = Util.now_ns () - t0 in
  s.sent <- s.sent + 1;
  absorb s;
  dt

(* One request with spans: parse, then advance to the parsed [at] (not
   the client's unrounded clock, which would change verdicts), then
   decide; serialization spans nest under whichever is running. *)
let step_traced s tr =
  let line = next_line s in
  let req = s.sent in
  let root = Spans.enter tr.sp tr.nm.request ~req in
  let w0 = Gc.minor_words () in
  let i = Spans.enter tr.sp tr.nm.parse ~req in
  let parsed = Proto.parse_request line in
  Spans.leave tr.sp i;
  let w1 = Gc.minor_words () in
  tr.parse_words <- tr.parse_words +. (w1 -. w0);
  Util.Samples.add tr.parse_ns (float_of_int (Spans.duration tr.sp i));
  (match parsed with
  | Error (id, msg) -> push_out s (Proto.response_to_string (Proto.error_response ~id msg))
  | Ok r ->
      let ser0 = tr.serialize_words in
      (match at_of r with
      | Some at ->
          let i = Spans.enter tr.sp tr.nm.advance ~req in
          Engine.advance s.engine at;
          Spans.leave tr.sp i;
          Util.Samples.add tr.advance_ns (float_of_int (Spans.duration tr.sp i))
      | None -> ());
      let i = Spans.enter tr.sp tr.nm.decide ~req in
      Engine.handle s.engine r;
      Spans.leave tr.sp i;
      Util.Samples.add tr.decide_ns (float_of_int (Spans.duration tr.sp i));
      tr.engine_words <-
        tr.engine_words
        +. (Gc.minor_words () -. w1)
        -. (tr.serialize_words -. ser0));
  Spans.leave tr.sp root;
  s.sent <- s.sent + 1;
  absorb s;
  Spans.duration tr.sp root

(* A final snapshot, outside any timed window, so the conservation law
   and the counters cover the whole session. *)
let finish s =
  (match Proto.parse_request (Proto.request_to_string (Proto.Metrics { at = Some s.now })) with
  | Ok req -> Engine.handle s.engine req
  | Error _ -> fail s "metrics request does not parse");
  absorb s;
  if s.errors > 0 then fail s (Printf.sprintf "%d error replies" s.errors)

(* Requests the controller mishandled.  A [block:no_path] or a [dropped]
   call is the network's own verdict on a rearrangeable (not strictly
   nonblocking) Beneš fabric, so those are counted apart, not as failed. *)
let failed_ops s = s.errors + s.bad

let digest s = Util.Fold.digest s.fold
