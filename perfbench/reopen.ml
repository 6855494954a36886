(* reopen: restart after kill -9.  A file-backed 10k-key [Shard.Kv]
   image is bulk-loaded with [insert_many] in a child process, which
   SIGKILLs itself inside the next batch's file commit once the journal
   is committed but not applied ([Journal_committed]) -- the image
   [lib/crashtest/kill9.ml] leaves behind.  Each trial reopens a fresh
   copy of it with [Mod_core.Recovery.open_file]; copying is not timed.
   No request path runs: this is the only workload that exercises the
   backing open, journal replay, checksum and [Recovery_gc]. *)

let batch = 1000
let batches = Gen.keyspace / batch

type image = {
  path : string;
  acked : (string, string) Hashtbl.t;  (** every acknowledged pair *)
  inflight : (string * string) list;
      (** the killed batch's pairs that change a value: the batch is
          atomic, so the recovered map shows all of them or none *)
  user_bytes : int;
}

let copy_file src dst =
  let ic = open_in_bin src in
  let data =
    Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
        really_input_string ic (in_channel_length ic))
  in
  let oc = open_out_bin dst in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc data)

let remove_image path =
  List.iter (fun f -> if Sys.file_exists f then Sys.remove f) [ path; path ^ ".journal" ]

(* The batches a seed produces: every key once, in a seeded order,
   then the in-flight batch overwriting [batch] of them. *)
let batches_of ~seed =
  let rng = Random.State.make [| seed; 0x4e0 |] in
  let order = Array.copy Gen.keys in
  for i = Array.length order - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = order.(i) in
    order.(i) <- order.(j);
    order.(j) <- x
  done;
  let pool = Gen.value_pool ~seed:(seed + 2) in
  let value () = pool.(Random.State.int rng Gen.pool_size) in
  let loads =
    List.init batches (fun b ->
        List.init batch (fun i -> (order.((b * batch) + i), value ())))
  in
  let inflight =
    List.init batch (fun i -> (order.((i * 7) mod Gen.keyspace), value ()))
  in
  (loads, inflight)

let build ~seed ~path =
  let loads, inflight = batches_of ~seed in
  remove_image path;
  flush_all ();
  (match Unix.fork () with
  | 0 ->
      let code =
        try
          let heap = Pmalloc.Heap.create ~capacity_words:(1 lsl 16) ~file:path () in
          let kv =
            Shard.Kv.open_or_create ~persist:Pmalloc.Heap.Full heap ~slot:Shard.kv_slot
          in
          let armed = ref false in
          Pmem.Region.set_file_sync_hook (Pmalloc.Heap.region heap) (fun phase _ ->
              if !armed && phase = Pmem.Backing.Journal_committed then
                Unix.kill (Unix.getpid ()) Sys.sigkill);
          List.iter (Shard.Kv.insert_many kv) loads;
          armed := true;
          Shard.Kv.insert_many kv inflight;
          3
        with _ -> 4
      in
      Unix._exit code
  | pid -> (
      match Unix.waitpid [] pid with
      | _, Unix.WSIGNALED s when s = Sys.sigkill -> ()
      | _ -> failwith "reopen: the image builder was not killed inside its commit"));
  let acked = Hashtbl.create Gen.keyspace in
  List.iter (List.iter (fun (k, v) -> Hashtbl.replace acked k v)) loads;
  let changed = Hashtbl.create batch in
  List.iter (fun (k, v) -> if Hashtbl.find acked k <> v then Hashtbl.replace changed k v) inflight;
  {
    path;
    acked;
    inflight = List.of_seq (Hashtbl.to_seq changed);
    user_bytes = Hashtbl.length acked * Gen.pair_bytes;
  }

(* [None] when [pairs] hold every acknowledged pair and either all or
   none of the killed batch. *)
let check img pairs =
  let fresh = Hashtbl.create (List.length img.inflight) in
  List.iter (fun (k, v) -> Hashtbl.replace fresh k v) img.inflight;
  let n = ref 0 and applied = ref 0 and wrong = ref 0 in
  List.iter
    (fun (k, v) ->
      incr n;
      match Hashtbl.find_opt img.acked k with
      | Some v' when v = v' -> ()
      | _ -> if Hashtbl.find_opt fresh k = Some v then incr applied else incr wrong)
    pairs;
  if !wrong > 0 || !n <> Hashtbl.length img.acked then
    Some "recovered map lost an acknowledged pair or changed a value"
  else if !applied <> 0 && !applied <> List.length img.inflight then
    Some "recovered map holds part of the killed batch"
  else None

type trial = {
  wall_ns : int;
  image_open_ns : int;  (** traced trials only (else 0) *)
  gc_ns : int;  (** traced trials only (else the whole reopen) *)
  sim_ns : float;
  minor_words : float;
  written_bytes : int;
  replayed_lines : int;
  gc_report : Pmalloc.Recovery_gc.report option;
  failure : string option;
}

(* One reopen of a fresh copy.  Untraced trials time
   [Recovery.open_file]; traced trials time its two steps separately
   ([Heap.open_file], then [Recovery.recover]) so each gets a span. *)
let trial ?spans ?(inject_fault = false) img ~copy ~id =
  copy_file img.path copy;
  copy_file (img.path ^ ".journal") (copy ^ ".journal");
  let wb0 = Clock.written_bytes () in
  let mw0 = Gc.minor_words () in
  let t0 = Clock.now_ns () in
  let opened, t_open =
    match spans with
    | None ->
        let r = Mod_core.Recovery.open_file ~path:copy () in
        ( (match r with
          | Ok o -> Ok (o.Mod_core.Recovery.heap, o.journal, o.recovery)
          | Error e -> Error (Mod_core.Error.to_string e)),
          t0 )
    | Some _ -> (
        match Pmalloc.Heap.open_file ~path:copy () with
        | exception e -> (Error (Printexc.to_string e), Clock.now_ns ())
        | heap, journal -> (
            let t_open = Clock.now_ns () in
            match Mod_core.Recovery.recover heap with
            | Ok rep -> (Ok (heap, journal, rep), t_open)
            | Error e ->
                Pmalloc.Heap.close heap;
                (Error (Mod_core.Error.to_string e), t_open)))
  in
  let t1 = Clock.now_ns () in
  let mw1 = Gc.minor_words () in
  let written = Clock.written_bytes () - wb0 in
  (match spans with
  | Some sp ->
      let span name ~parent ~start ~stop =
        Spans.add sp ~name:(Spans.name sp name) ~parent ~req:id ~start ~stop
      in
      let p = span "reopen" ~parent:(-1) ~start:t0 ~stop:t1 in
      ignore (span "backing.image_open" ~parent:p ~start:t0 ~stop:t_open : int);
      ignore (span "pmalloc.gc" ~parent:p ~start:t_open ~stop:t1 : int)
  | None -> ());
  let base =
    {
      wall_ns = t1 - t0;
      image_open_ns = t_open - t0;
      gc_ns = t1 - t_open;
      sim_ns = 0.0;
      minor_words = mw1 -. mw0;
      written_bytes = written;
      replayed_lines = 0;
      gc_report = None;
      failure = None;
    }
  in
  let result =
    match opened with
    | Error e -> { base with failure = Some ("reopen failed: " ^ e) }
    | Ok (heap, journal, rep) ->
        let sim_ns = (Pmalloc.Heap.stats heap).Pmem.Stats.now_ns in
        if inject_fault then Kvloop.corrupt_heap heap;
        let replayed = match journal with `Replayed n -> n | `None | `Discarded -> 0 in
        let verdict =
          match
            let kv = Shard.Kv.open_or_create heap ~slot:Shard.kv_slot in
            Shard.Kv.fold kv (fun k v acc -> (k, v) :: acc) []
          with
          | pairs -> check img pairs
          | exception e -> Some ("reading the recovered map raised " ^ Printexc.to_string e)
        in
        Pmalloc.Heap.close heap;
        let failure =
          if replayed = 0 then Some "the committed journal was not replayed" else verdict
        in
        {
          base with
          sim_ns;
          replayed_lines = replayed;
          gc_report = Some rep.Mod_core.Recovery.gc;
          failure;
        }
  in
  remove_image copy;
  result

(* Reopen until [seconds] have passed and at least [min_trials] ran. *)
let run ?spans ?(inject_fault = false) img ~copy ~seconds ~min_trials =
  let deadline = Clock.now_ns () + int_of_float (seconds *. 1e9) in
  let rec go acc n =
    if n >= min_trials && Clock.now_ns () >= deadline then List.rev acc
    else
      let tr =
        trial ?spans ~inject_fault img ~copy ~id:n
      in
      go (tr :: acc) (n + 1)
  in
  go [] 0
