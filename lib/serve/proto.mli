(** The line-JSON wire protocol of [ftnet serve].

    One request per line in, one (or more) responses per line out; both
    directions use the zero-dependency {!Ftcsn_obs.Json} dialect, so the
    codec round-trips everything it produces.  Requests:

    {v
{"req":"call","id":"c1"}                   pick idle endpoints at random
{"req":"call","id":"c2","in":0,"out":5}    explicit terminal indices
{"req":"call","id":"c3","hold":2.5}        explicit holding time
{"req":"call","id":"c4","at":1.25}         virtual arrival time (replay)
{"req":"hangup","id":"c1"}                 tear the call down now
{"req":"metrics"}                          live counters snapshot
    v}

    Responses carry a ["resp"] tag: [accept]/[block]/[overload] answer a
    call request (with the call id and, on accept, the path length in
    switches); [rerouted]/[dropped]/[released] report asynchronous call
    fate under failure churn and hangups; [metrics] carries the snapshot;
    [error] is the normalized reply to a malformed line — the daemon never
    dies on bad input, it answers and keeps reading.  Fields print in a
    fixed order, e.g.

    {v
{"resp":"accept","id":"c1","t":0.25,"path_len":15}
{"resp":"error","id":"c9","message":"field \"hold\" must be finite and > 0"}
    v}

    The wire path builds no {!Ftcsn_obs.Json.t}.  Responses are written
    field by field into a buffer.  Both decoders read their line through
    {!Ftcsn_obs.Json.members}: a compact flat line, such as a call's
    response whose id needs no escape, is scanned in one pass; any other
    line (whitespace, escapes, unknown keys, nested values, trailing
    bytes) goes through {!Ftcsn_obs.Json.parse}, whose diagnostic a line
    that is not JSON gets.  Either way the fields meet one validation, so
    no reply depends on the path that read its line. *)

type request =
  | Call of {
      id : string;
      src : int option;  (** input terminal index; picked idle-uniform when absent *)
      dst : int option;  (** output terminal index; ditto *)
      hold : float option;
          (** holding time in virtual-time units; drawn from the daemon's
              holding distribution when absent *)
      at : float option;
          (** virtual arrival time; the engine advances (never rewinds)
              to it before deciding — the replay clock *)
    }
  | Hangup of { id : string; at : float option }
  | Metrics of { at : float option }

type reason =
  | Full  (** no idle endpoint pair (or the requested endpoint is busy) *)
  | No_path  (** endpoints idle but no idle fault-free path exists *)

type response =
  | Accept of { id : string; t : float; path_len : int }
      (** [path_len] counts switches (edges) crossed. *)
  | Block of { id : string; t : float; reason : reason }
  | Overload of { id : string; t : float }
      (** Shed by the admission policy before routing was attempted. *)
  | Rerouted of { id : string; t : float; path_len : int }
      (** A failure severed the call's path and it was re-placed. *)
  | Dropped of { id : string; t : float }
      (** A failure severed the call's path and no reroute existed. *)
  | Released of { id : string; t : float }
      (** The call ended (holding time expired or explicit hangup). *)
  | Catastrophe of { t : float }
      (** Closed failures fused two terminals (the paper's Lemma 7). *)
  | Snapshot of { t : float; data : Ftcsn_obs.Json.t }
  | Error of { id : string option; message : string }

val parse_request : string -> (request, string option * string) result
(** Decode one input line.  On failure the pair is [(id, message)]: the
    call id when one was recoverable from the line (so the error reply
    can echo it) and a normalized lowercase diagnostic.  Validation
    covers field types, [hold > 0], [at >= 0] and finiteness; terminal
    ranges are the engine's to check. *)

val request_to_string : request -> string
(** One line, no trailing newline.  [parse_request] inverts it. *)

val write_response : Buffer.t -> response -> unit
(** Append one response line, without its newline.  Ids, messages,
    times and a snapshot's [data] print by {!Ftcsn_obs.Json.to_string}'s
    rules, so the bytes are those of the equivalent field list printed
    whole. *)

val response_to_string : response -> string
(** One line, no trailing newline: {!write_response} into this domain's
    reused buffer. *)

val response_of_string : string -> (response, string) result
(** Decode a response line — the test/tooling direction; inverts
    {!response_to_string}. *)

val error_response : id:string option -> string -> response
(** The normalized error reply for a malformed line. *)
