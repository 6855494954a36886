(* In-memory span recorder for the traced run.  Each span has a name,
   a start and end (monotonic ns), the span that caused it (or -1) and
   the id of the request it belongs to.  Nothing is written until
   [dump], after the measurement. *)

type t = {
  mutable names : string list;  (* id -> name, newest first *)
  mutable nnames : int;
  mutable name_id : int array;
  mutable start : int array;
  mutable stop : int array;
  mutable parent : int array;
  mutable req : int array;
  mutable len : int;
}

let create () =
  let c = 1 lsl 14 in
  {
    names = [];
    nnames = 0;
    name_id = Array.make c 0;
    start = Array.make c 0;
    stop = Array.make c 0;
    parent = Array.make c 0;
    req = Array.make c 0;
    len = 0;
  }

let name_of t id = List.nth t.names (t.nnames - 1 - id)

(* The id of a span name, registered on first use (before the measured
   loop, since registering allocates). *)
let name t s =
  let rec find id = function
    | [] -> None
    | x :: rest -> if x = s then Some id else find (id - 1) rest
  in
  match find (t.nnames - 1) t.names with
  | Some id -> id
  | None ->
      t.names <- s :: t.names;
      t.nnames <- t.nnames + 1;
      t.nnames - 1

let grow a = Array.append a (Array.make (Array.length a) 0)

let add t ~name ~parent ~req ~start ~stop =
  if t.len = Array.length t.start then begin
    t.name_id <- grow t.name_id;
    t.start <- grow t.start;
    t.stop <- grow t.stop;
    t.parent <- grow t.parent;
    t.req <- grow t.req
  end;
  let i = t.len in
  t.name_id.(i) <- name;
  t.start.(i) <- start;
  t.stop.(i) <- stop;
  t.parent.(i) <- parent;
  t.req.(i) <- req;
  t.len <- i + 1;
  i

let set_stop t i stop = t.stop.(i) <- stop
let count t = t.len

(* Per-name totals: number of spans, summed duration, and summed self
   time (a span's duration minus the part of it its children cover). *)
type totals = { n : int; total_ns : int; self_ns : int }

let totals t =
  let covered = Array.make t.len [] in
  for i = 0 to t.len - 1 do
    let p = t.parent.(i) in
    if p >= 0 then covered.(p) <- (t.start.(i), t.stop.(i)) :: covered.(p)
  done;
  let acc = Array.make t.nnames { n = 0; total_ns = 0; self_ns = 0 } in
  for i = 0 to t.len - 1 do
    let lo = t.start.(i) and hi = t.stop.(i) in
    let kids =
      List.sort compare
        (List.map (fun (a, b) -> (max a lo, min b hi)) covered.(i))
    in
    let cov, _ =
      List.fold_left
        (fun (cov, upto) (a, b) ->
          let a = max a upto in
          if b > a then (cov + (b - a), b) else (cov, upto))
        (0, lo) kids
    in
    let id = t.name_id.(i) in
    let x = acc.(id) in
    acc.(id) <-
      { n = x.n + 1; total_ns = x.total_ns + (hi - lo); self_ns = x.self_ns + (hi - lo - cov) }
  done;
  List.init t.nnames (fun id -> (name_of t id, acc.(id)))

let find_totals t s =
  match List.assoc_opt s (totals t) with
  | Some x -> x
  | None -> { n = 0; total_ns = 0; self_ns = 0 }

(* One JSON object per span, in recording order. *)
let dump t path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      let names = Array.init t.nnames (name_of t) in
      for i = 0 to t.len - 1 do
        Printf.fprintf oc
          "{\"id\":%d,\"name\":%S,\"start_ns\":%d,\"end_ns\":%d,\"parent\":%d,\"req\":%d}\n"
          i names.(t.name_id.(i)) t.start.(i) t.stop.(i) t.parent.(i) t.req.(i)
      done)

let set_bounds t i ~start ~stop =
  t.start.(i) <- start;
  t.stop.(i) <- stop
