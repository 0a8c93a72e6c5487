type stop_reason = Eof | Limit | Interrupted

(* one parsed line, admission-checked; the queue depth is what the
   policy sees, so in the synchronous replay path it is always 0 *)
let ingest ~engine ~admission ~emit ~queue_depth line k =
  if String.trim line <> "" then
    match Proto.parse_request line with
    | Error (id, msg) -> emit (Proto.error_response ~id msg)
    | Ok (Proto.Call { id; _ } as req) -> (
        match
          Admission.decide admission
            ~occupancy:(Engine.occupancy engine)
            ~queue_depth:(queue_depth ())
        with
        | Admission.Shed -> Engine.shed engine ~id
        | Admission.Admit -> k req)
    | Ok req -> k req

let replay ~engine ~admission ~emit ?(max_calls = max_int)
    ?(stop = fun () -> false) ic =
  let reason = ref Eof in
  (try
     while true do
       if stop () then begin
         reason := Interrupted;
         raise Exit
       end;
       if Engine.decisions engine >= max_calls then begin
         reason := Limit;
         raise Exit
       end;
       match In_channel.input_line ic with
       | None -> raise Exit
       | Some line ->
           ingest ~engine ~admission ~emit
             ~queue_depth:(fun () -> 0)
             line
             (Engine.handle engine)
     done
   with Exit -> ());
  !reason

let live ~engine ~admission ~emit ?(max_calls = max_int)
    ?(stop = fun () -> false) ?(speed = 1.0) ?(flush = fun () -> ()) fd =
  if not (speed > 0.0 && speed < infinity) then
    invalid_arg "Loop.live: speed must be finite and > 0";
  let t0 = Unix.gettimeofday () in
  let vnow () = (Unix.gettimeofday () -. t0) *. speed in
  let chunk = Bytes.create 65536 in
  let partial = Buffer.create 256 in
  let pending : Proto.request Queue.t = Queue.create () in
  let enqueue line =
    ingest ~engine ~admission ~emit
      ~queue_depth:(fun () -> Queue.length pending)
      line
      (fun req -> Queue.push req pending)
  in
  (* split a read into complete lines, buffering the trailing partial *)
  let feed k =
    Buffer.add_subbytes partial chunk 0 k;
    let s = Buffer.contents partial in
    Buffer.clear partial;
    let n = String.length s in
    let start = ref 0 in
    (try
       while !start < n do
         match String.index_from_opt s !start '\n' with
         | None ->
             Buffer.add_substring partial s !start (n - !start);
             raise Exit
         | Some nl ->
             enqueue (String.sub s !start (nl - !start));
             start := nl + 1
       done
     with Exit -> ())
  in
  let eof = ref false in
  let reason = ref Eof in
  (try
     while true do
       if stop () then begin
         reason := Interrupted;
         raise Exit
       end;
       Engine.advance engine (vnow ());
       (* drain the pending queue, re-syncing the clock per request *)
       while not (Queue.is_empty pending) do
         if stop () then begin
           reason := Interrupted;
           raise Exit
         end;
         if Engine.decisions engine >= max_calls then begin
           reason := Limit;
           raise Exit
         end;
         let req = Queue.pop pending in
         Engine.advance engine (vnow ());
         Engine.handle engine req
       done;
       flush ();
       if Engine.decisions engine >= max_calls then begin
         reason := Limit;
         raise Exit
       end;
       if !eof then raise Exit;
       (* sleep until input arrives or the next DES clock is due; wake
          at least every 200 ms to poll the stop flag *)
       let timeout =
         let next = Engine.next_event_time engine in
         if next = infinity then 0.2
         else
           Float.min 0.2
             (Float.max 0.0 (t0 +. (next /. speed) -. Unix.gettimeofday ()))
       in
       let readable, _, _ =
         try Unix.select [ fd ] [] [] timeout
         with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
       in
       if readable <> [] then begin
         match Unix.read fd chunk 0 (Bytes.length chunk) with
         | 0 ->
             (* a last line without its newline is still a request, as
                [In_channel.input_line] reads it in [replay] *)
             if Buffer.length partial > 0 then begin
               enqueue (Buffer.contents partial);
               Buffer.clear partial
             end;
             eof := true
         | k -> feed k
         | exception Unix.Unix_error ((Unix.EINTR | Unix.EAGAIN), _, _) -> ()
       end
     done
   with Exit -> ());
  flush ();
  !reason
