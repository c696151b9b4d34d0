(* Span recorder for traced runs. Spans stay in memory and are written as
   JSON lines when the run ends, so recording one costs two clock reads and
   an allocation. Every span is timed from the suite's side of a call into
   a library layer; spans of one query share its query id. *)

type span = {
  id : int;
  parent : int;  (* -1 for a root *)
  name : string;
  qid : int;  (* -1 outside any query *)
  start_ns : int64;
  end_ns : int64;
  attrs : (string * float) list;
}

type t = { lock : Mutex.t; mutable next_id : int; mutable spans : span list }

let create () = { lock = Mutex.create (); next_id = 0; spans = [] }

let now_ns () = Monotonic_clock.now ()

(* [span tr ~parent ~name ~qid f] runs [f id], where [id] is the parent id
   for nested spans, and records the span with [attrs] of the result. With
   no recorder it only runs [f (-1)]. *)
let span ?(attrs = fun _ -> []) tr ~parent ~name ~qid f =
  match tr with
  | None -> f (-1)
  | Some t ->
    let id =
      Mutex.protect t.lock (fun () ->
          let id = t.next_id in
          t.next_id <- id + 1;
          id)
    in
    let start_ns = now_ns () in
    let r = f id in
    let s = { id; parent; name; qid; start_ns; end_ns = now_ns (); attrs = attrs r } in
    Mutex.protect t.lock (fun () -> t.spans <- s :: t.spans);
    r

let write t path =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      List.iter
        (fun s ->
          Printf.fprintf oc
            "{\"id\":%d,\"parent\":%d,\"name\":%S,\"qid\":%d,\"start_ns\":%Ld,\"end_ns\":%Ld,\"attrs\":{%s}}\n"
            s.id s.parent s.name s.qid s.start_ns s.end_ns
            (String.concat ","
               (List.map (fun (k, v) -> Printf.sprintf "%S:%.17g" k v) s.attrs)))
        (List.rev t.spans))
