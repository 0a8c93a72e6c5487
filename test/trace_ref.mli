(** The reader of [ftnet --trace] JSONL files — a test oracle.

    The library only writes traces ({!Ftcsn_obs.Trace.event_to_string});
    test_obs round-trips every event kind through this reader, and
    checks that it rejects malformed lines. *)

val event_of_string : string -> (int * Ftcsn_obs.Trace.event, string) result
(** Inverse of {!Ftcsn_obs.Trace.event_to_string}: recover
    [(ts_ns, event)].  Total on everything the writer produces (the
    round-trip is exact, including float fields); descriptive [Error]
    otherwise. *)
