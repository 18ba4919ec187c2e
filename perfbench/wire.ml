(* Open-loop NDJSON client for an in-process [dbp serve] daemon.

   Event [i] is due at [t0 + i * gap_ns]; the client hands every due
   line to the socket without waiting for answers, so a slow daemon
   builds a queue instead of slowing the sender.  Latency of an
   arrival runs from its due time to the moment its placement line
   is read, so a stall is charged to every event due during it.  One
   domain, one connection: sends and reads share a select loop. *)

let now_ns = Tracer.now_ns

type result = {
  due0 : int;  (** Due time of event 0, ns. *)
  gap_ns : int;  (** Between consecutive due times. *)
  lag_ns : int array;  (** Per event: hand-off time minus due time. *)
  recv_ns : int array;  (** Per event: time its placement was read, 0 if none. *)
  placed : int array;  (** Per event: placement lines received. *)
  backlog_max : int;  (** Most arrivals sent and not yet answered. *)
  summary : string option;
  errors : string list;  (** Error lines and stray lines from the daemon. *)
  stray : int;  (** Placement lines naming no arrival of the stream. *)
  last_ns : int;  (** When the summary (or EOF) arrived. *)
}

let stall_ns = 30_000_000_000

let due r i = r.due0 + (i * r.gap_ns)

let place_prefix = {|{"kind":"place","seq":|}

let starts_with ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

(* The sequence number of the placement line at [b.[off .. off+len)],
   read at its fixed offset without copying the line; [None] if the
   line is not a placement. *)
let seq_of_place b off len =
  let p = String.length place_prefix in
  let rec prefix i = i = p || (Bytes.get b (off + i) = place_prefix.[i] && prefix (i + 1)) in
  let rec digits i v =
    if i < len && Bytes.get b (off + i) >= '0' && Bytes.get b (off + i) <= '9' then
      digits (i + 1) ((v * 10) + Char.code (Bytes.get b (off + i)) - 48)
    else if i = p then None
    else Some v
  in
  if len > p && prefix 0 then digits p 0 else None

let run ~fd ~(lines : string array) ~(is_arrival : bool array) ~gap_ns =
  Unix.set_nonblock fd;
  let n = Array.length lines in
  let lag = Array.make n 0 and recv = Array.make n 0 and placed = Array.make n 0 in
  (* The read and send paths allocate nothing per event: a placement
     line is decoded in place, and lines are written from the
     pre-rendered strings. *)
  let sent = ref 0 and sent_off = ref 0 in
  let inbuf = Bytes.create 65536 in
  let partial = Buffer.create 256 in
  let summary = ref None and errors = ref [] and stray = ref 0 in
  let next = ref 0 and outstanding = ref 0 and backlog_max = ref 0 in
  let shut = ref false and eof = ref false in
  let last = ref 0 and progress = ref (now_ns ()) in
  let due0 = now_ns () + 1_000_000 in
  let placement now s =
    if s >= 0 && s < n && is_arrival.(s) then begin
      if placed.(s) = 0 then begin
        recv.(s) <- now;
        decr outstanding
      end;
      placed.(s) <- placed.(s) + 1
    end
    else incr stray
  in
  let other_line now l =
    if l = "" then ()
    else if starts_with ~prefix:{|{"kind":"summary"|} l then begin
      summary := Some l;
      last := now
    end
    else errors := l :: !errors
  in
  let line now b off len =
    match seq_of_place b off len with
    | Some s -> placement now s
    | None ->
        let l = Bytes.sub_string b off len in
        if starts_with ~prefix:place_prefix l then incr stray else other_line now l
  in
  let consume now k =
    progress := now;
    let start = ref 0 in
    for j = 0 to k - 1 do
      if Bytes.get inbuf j = '\n' then begin
        if Buffer.length partial > 0 then begin
          Buffer.add_subbytes partial inbuf !start (j - !start);
          let l = Buffer.to_bytes partial in
          Buffer.clear partial;
          line now l 0 (Bytes.length l)
        end
        else line now inbuf !start (j - !start);
        start := j + 1
      end
    done;
    if !start < k then Buffer.add_subbytes partial inbuf !start (k - !start)
  in
  (* Writes due lines [!sent .. !next) until the socket would block. *)
  let flush () =
    let rec go () =
      if !sent < !next then begin
        let l = lines.(!sent) in
        match Unix.write_substring fd l !sent_off (String.length l - !sent_off) with
        | w ->
            sent_off := !sent_off + w;
            if !sent_off = String.length l then begin
              incr sent;
              sent_off := 0;
              go ()
            end
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
      end
    in
    go ()
  in
  while not !eof do
    let now = now_ns () in
    while !next < n && due0 + (!next * gap_ns) <= now do
      let i = !next in
      lag.(i) <- now - (due0 + (i * gap_ns));
      if is_arrival.(i) then begin
        incr outstanding;
        if !outstanding > !backlog_max then backlog_max := !outstanding
      end;
      incr next
    done;
    flush ();
    let pending = !sent < !next in
    if !next = n && (not pending) && not !shut then begin
      Unix.shutdown fd Unix.SHUTDOWN_SEND;
      shut := true
    end;
    let timeout =
      if !next < n then
        Float.max 0.0 (float_of_int (due0 + (!next * gap_ns) - now_ns ()) /. 1e9)
      else 1.0
    in
    match Unix.select [ fd ] (if pending then [ fd ] else []) [] timeout with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | [], _, _ ->
        (* A daemon that stops answering must not hang the run. *)
        if !shut && now_ns () - !progress > stall_ns then begin
          errors := "no answer from the daemon for 30 s" :: !errors;
          eof := true
        end
    | _ :: _, _, _ -> (
        match Unix.read fd inbuf 0 (Bytes.length inbuf) with
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
        | 0 ->
            other_line (now_ns ()) (Buffer.contents partial);
            if !last = 0 then last := now_ns ();
            eof := true
        | k -> consume (now_ns ()) k)
  done;
  {
    due0;
    gap_ns;
    lag_ns = lag;
    recv_ns = recv;
    placed;
    backlog_max = !backlog_max;
    summary = !summary;
    errors = List.rev !errors;
    stray = !stray;
    last_ns = !last;
  }
