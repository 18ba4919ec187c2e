(* Per-shard worker domains.  This module is (with
   lib/experiments/registry.ml) one of the two sanctioned homes for
   Domain/Atomic/Mutex/Condition — lint R5 and typed-lint T3 fence the
   primitives everywhere else.

   Memory discipline: [pending], [failure], [stopped], [wake] and the
   outbox are only touched under [olock] (the owner, which alone sets
   and clears [wake], may also read it without the lock); each mailbox
   only under its own [lock].  Shard state reached by [handler] is
   created before the domains spawn (the spawn edge publishes it) and touched by exactly
   one domain afterwards, so no further synchronisation is needed. *)

exception Stopped

type 'req box = {
  lock : Mutex.t;
  cond : Condition.t;  (* signalled on submit and on stop *)
  queue : 'req Queue.t;
  mutable stop : bool;
}

type ('req, 'resp) t = {
  boxes : 'req box array;
  handler : shard:int -> 'req -> 'resp list;
  olock : Mutex.t;
  ocond : Condition.t;  (* signalled when pending drops or a shard fails *)
  outbox : (int * 'resp) Queue.t;
  mutable pending : int;  (* submitted, not yet processed (or discarded) *)
  mutable failure : (exn * Printexc.raw_backtrace) option;
  mutable stopped : bool;
  mutable domains : unit Domain.t array;
  mutable wake : (Unix.file_descr * Unix.file_descr) option;
      (* the completion pipe (read end, write end), once [wake_fd] arms it *)
  wake_buf : Bytes.t;  (* the owner's buffer for emptying the pipe *)
}

let shards t = Array.length t.boxes

(* Under [olock], by a worker that has just made the outbox non-empty.
   A full pipe is already readable, so EAGAIN loses nothing. *)
let rec poke t =
  match t.wake with
  | None -> ()
  | Some (_, w) -> (
      match Unix.single_write_substring w "!" 0 1 with
      | _ -> ()
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> poke t)

(* One worker: wake, transfer the whole mailbox (the tick batch),
   process it, post the responses in one outbox append, and poke the
   completion pipe if that append made the outbox non-empty.  A handler
   exception kills the shard: its queued work is discarded (and
   accounted out of [pending] so quiesce still converges), the first
   pool-wide failure is parked for the owner to re-raise. *)
let worker t k () =
  let box = t.boxes.(k) in
  let batch = Queue.create () in
  let rec loop () =
    Mutex.lock box.lock;
    while Queue.is_empty box.queue && not box.stop do
      Condition.wait box.cond box.lock
    done;
    Queue.transfer box.queue batch;
    Mutex.unlock box.lock;
    let n = Queue.length batch in
    if n = 0 then () (* stop requested and mailbox drained *)
    else begin
      let out = ref [] in
      let outcome =
        match
          Queue.iter
            (fun req ->
              List.iter (fun r -> out := (k, r) :: !out) (t.handler ~shard:k req))
            batch
        with
        | () -> None
        | exception e -> Some (e, Printexc.get_raw_backtrace ())
      in
      Queue.clear batch;
      match outcome with
      | None ->
          Mutex.lock t.olock;
          (match !out with
          | [] -> ()
          | out ->
              let was_empty = Queue.is_empty t.outbox in
              List.iter (fun p -> Queue.add p t.outbox) (List.rev out);
              if was_empty then poke t);
          t.pending <- t.pending - n;
          Condition.broadcast t.ocond;
          Mutex.unlock t.olock;
          loop ()
      | Some f ->
          Mutex.lock box.lock;
          box.stop <- true;
          let leftover = Queue.length box.queue in
          Queue.clear box.queue;
          Mutex.unlock box.lock;
          Mutex.lock t.olock;
          if Option.is_none t.failure then t.failure <- Some f;
          t.pending <- t.pending - n - leftover;
          Condition.broadcast t.ocond;
          Mutex.unlock t.olock
    end
  in
  loop ()

let create ~shards ~handler =
  if shards < 1 then invalid_arg "Shard_pool.create: shards < 1";
  let boxes =
    Array.init shards (fun _ ->
        {
          lock = Mutex.create ();
          cond = Condition.create ();
          queue = Queue.create ();
          stop = false;
        })
  in
  let t =
    {
      boxes;
      handler;
      olock = Mutex.create ();
      ocond = Condition.create ();
      outbox = Queue.create ();
      pending = 0;
      failure = None;
      stopped = false;
      domains = [||];
      wake = None;
      wake_buf = Bytes.create 64;
    }
  in
  t.domains <- Array.init shards (fun k -> Domain.spawn (worker t k));
  t

let submit t ~shard req =
  if shard < 0 || shard >= Array.length t.boxes then
    invalid_arg "Shard_pool.submit: shard out of range";
  Mutex.lock t.olock;
  if t.stopped || Option.is_some t.failure then begin
    Mutex.unlock t.olock;
    raise Stopped
  end;
  (* Count the request before it is visible in any mailbox, so a
     concurrent [quiesce] can never observe pending = 0 mid-hand-off. *)
  t.pending <- t.pending + 1;
  Mutex.unlock t.olock;
  let box = t.boxes.(shard) in
  Mutex.lock box.lock;
  if box.stop then begin
    Mutex.unlock box.lock;
    Mutex.lock t.olock;
    t.pending <- t.pending - 1;
    Condition.broadcast t.ocond;
    Mutex.unlock t.olock;
    raise Stopped
  end;
  Queue.add req box.queue;
  Condition.signal box.cond;
  Mutex.unlock box.lock

let drain_outbox t =
  let out = ref [] in
  while not (Queue.is_empty t.outbox) do
    out := Queue.pop t.outbox :: !out
  done;
  List.rev !out

let wake_fd t =
  Mutex.protect t.olock (fun () ->
      if t.stopped then raise Stopped;
      match t.wake with
      | Some (r, _) -> r
      | None ->
          let r, w = Unix.pipe ~cloexec:true () in
          Unix.set_nonblock r;
          Unix.set_nonblock w;
          t.wake <- Some (r, w);
          (* Answers posted before the pipe existed poked nobody. *)
          if not (Queue.is_empty t.outbox) then poke t;
          r)

(* Empty the pipe before draining the outbox: a worker pokes only on an
   empty-to-non-empty append, and any append after the drain below
   finds the outbox empty and pokes a pipe already emptied, so no
   completion goes unsignalled.  A poke landing between the two steps
   leaves a stale byte: one spurious wake. *)
let clear_wake t =
  match t.wake with
  | None -> ()
  | Some (r, _) ->
      let rec go () =
        match Unix.read r t.wake_buf 0 (Bytes.length t.wake_buf) with
        | n when n = Bytes.length t.wake_buf -> go ()
        | _ -> ()
        | exception
            Unix.Unix_error
              ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
            ()
      in
      go ()

let poll t =
  clear_wake t;
  Mutex.lock t.olock;
  let out = drain_outbox t in
  Mutex.unlock t.olock;
  out

let quiesce t =
  Mutex.lock t.olock;
  while t.pending > 0 && Option.is_none t.failure do
    Condition.wait t.ocond t.olock
  done;
  let out = drain_outbox t in
  let f = t.failure in
  Mutex.unlock t.olock;
  match f with
  | Some (e, bt) -> Printexc.raise_with_backtrace e bt
  | None -> out

let shutdown t =
  Mutex.lock t.olock;
  let already = t.stopped in
  t.stopped <- true;
  Mutex.unlock t.olock;
  if already then []
  else begin
    Array.iter
      (fun box ->
        Mutex.lock box.lock;
        box.stop <- true;
        Condition.signal box.cond;
        Mutex.unlock box.lock)
      t.boxes;
    Array.iter Domain.join t.domains;
    Mutex.lock t.olock;
    (match t.wake with
    | None -> ()
    | Some (r, w) ->
        t.wake <- None;
        Unix.close r;
        Unix.close w);
    let out = drain_outbox t in
    let f = t.failure in
    Mutex.unlock t.olock;
    match f with
    | Some (e, bt) -> Printexc.raise_with_backtrace e bt
    | None -> out
  end

let spawn_background f =
  let d =
    Domain.spawn (fun () ->
        match f () with
        | v -> Ok v
        | exception e -> Error (e, Printexc.get_raw_backtrace ()))
  in
  fun () ->
    match Domain.join d with
    | Ok v -> v
    | Error (e, bt) -> Printexc.raise_with_backtrace e bt
