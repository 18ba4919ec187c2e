(* In-memory span recorder for the traced benchmark run.

   A span is (name, start, end, parent, event): times are monotonic
   nanoseconds, [parent] is the index of the enclosing span (-1 for a
   root) and [event] ties together the spans of one stream event (-1
   when the span is not about a single event).  Spans are recorded
   from the benchmark's own code, around calls into the library; the
   library itself is never instrumented.  The layer of a span is its
   name up to the first '.', named after the repo's modules. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

type t = {
  mutable n : int;
  mutable name : int array;
  mutable start : int array;
  mutable stop : int array;
  mutable parent : int array;
  mutable event : int array;
  names : (string, int) Hashtbl.t;
  mutable name_list : string list;  (* reversed: head = last interned *)
}

let create () =
  let cap = 1024 in
  {
    n = 0;
    name = Array.make cap 0;
    start = Array.make cap 0;
    stop = Array.make cap 0;
    parent = Array.make cap 0;
    event = Array.make cap 0;
    names = Hashtbl.create 16;
    name_list = [];
  }

let intern t s =
  match Hashtbl.find_opt t.names s with
  | Some i -> i
  | None ->
      let i = Hashtbl.length t.names in
      Hashtbl.replace t.names s i;
      t.name_list <- s :: t.name_list;
      i

let grow t =
  let cap = 2 * Array.length t.name in
  let ext a = Array.append a (Array.make (cap - Array.length a) 0) in
  t.name <- ext t.name;
  t.start <- ext t.start;
  t.stop <- ext t.stop;
  t.parent <- ext t.parent;
  t.event <- ext t.event

(* Records a finished span and returns its index. *)
let record t ~name ~parent ~event ~start ~stop =
  if t.n = Array.length t.name then grow t;
  let i = t.n in
  t.name.(i) <- intern t name;
  t.start.(i) <- start;
  t.stop.(i) <- stop;
  t.parent.(i) <- parent;
  t.event.(i) <- event;
  t.n <- i + 1;
  i

(* Opens a span whose children are recorded while it runs; [close]
   stamps its end. *)
let open_span t ~name ~parent =
  record t ~name ~parent ~event:(-1) ~start:(now_ns ()) ~stop:0

let close t i = t.stop.(i) <- now_ns ()

(* [record] at call sites whose tracing is optional. *)
let record_opt tr ~name ~parent ~event ~start ~stop =
  Option.iter (fun t -> ignore (record t ~name ~parent ~event ~start ~stop)) tr

let names t = Array.of_list (List.rev t.name_list)

let layer_of name =
  match String.index_opt name '.' with
  | Some i -> String.sub name 0 i
  | None -> name

(* Self time of every span: its duration minus the part of it that
   the union of its children covers.  Returns per-layer totals in
   seconds. *)
let self_by_layer t =
  let children = Array.make t.n [] in
  for i = t.n - 1 downto 0 do
    let p = t.parent.(i) in
    if p >= 0 then children.(p) <- i :: children.(p)
  done;
  let names = names t in
  let totals = Hashtbl.create 8 in
  for i = 0 to t.n - 1 do
    let s0 = t.start.(i) and s1 = t.stop.(i) in
    let kids =
      List.map
        (fun c -> (max s0 t.start.(c), min s1 t.stop.(c)))
        children.(i)
      |> List.filter (fun (a, b) -> b > a)
      |> List.sort compare
    in
    let covered, _ =
      List.fold_left
        (fun (acc, reach) (a, b) ->
          let a = max a reach in
          if b > a then (acc + (b - a), b) else (acc, reach))
        (0, min_int) kids
    in
    let layer = layer_of names.(t.name.(i)) in
    let prev = Option.value ~default:0 (Hashtbl.find_opt totals layer) in
    Hashtbl.replace totals layer (prev + (s1 - s0 - covered))
  done;
  fun layer ->
    float_of_int (Option.value ~default:0 (Hashtbl.find_opt totals layer))
    /. 1e9

let write t path =
  let names = names t in
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) @@ fun () ->
  for i = 0 to t.n - 1 do
    Printf.fprintf oc
      "{\"id\":%d,\"name\":\"%s\",\"start_ns\":%d,\"end_ns\":%d,\"parent\":%d,\"event\":%d}\n"
      i names.(t.name.(i)) t.start.(i) t.stop.(i) t.parent.(i) t.event.(i)
  done
