(* kv-mem and kv-durable: one client in a closed loop submits
   pre-generated requests through [Shard.submit] to two Inline shards,
   in memory or file-backed (one journaled batch per fence).  Only the
   [submit] call is timed; the output check and the bookkeeping run
   between timed calls. *)

let stream_len = 1 lsl 18

type config = {
  label : string;  (** workload name, prefixed to span names *)
  seed : int;
  seconds : float;
  file : string option;  (** base path: shard [i] is file-backed at [base.i] *)
  det_ops : int;
      (** deterministic prefix: the counted metrics cover exactly the
          first [det_ops] requests, so they repeat for a seed *)
  check_gets : bool;
  spans : Spans.t option;  (** traced run *)
  inject_fault : bool;  (** negative control: corrupt PM after the prefix *)
}

let setup ~seed ~file = Gen.shards ?file ~mode:Shard.Inline ~seed ()

(* Close the shards and delete their image and journal files. *)
let teardown t =
  let paths = List.filter_map (Shard.backing_path t) (List.init (Shard.nshards t) Fun.id) in
  Shard.close t;
  List.iter
    (fun p ->
      List.iter (fun f -> if Sys.file_exists f then Sys.remove f) [ p; p ^ ".journal" ])
    paths

(* Counted over the deterministic prefix. *)
type det = {
  d_ops : int;
  d_sets : int;
  d_sim_ns : float;  (** sum of the shards' [Stats.now_ns] deltas *)
  d_req_sim_ns : float;
      (** sum of each request's delta on its own shard: equals
          [d_sim_ns] when all simulated time is spent inside requests *)
  d_minor_words : float;  (** allocated inside the timed calls *)
  d_counters : Counters.t;
  d_written_bytes : int;
  d_live_user_bytes : int;
}

type outcome = {
  attempted : int;
  failed : int;
  first_failure : string option;
  ops : int;
  sets : int;
  gets : int;
  busy_ns : int;  (** summed duration of the timed calls *)
  set_lat : Sample.t;
  get_lat : Sample.t;
  all_lat : Sample.t;
  det : det;
  counters : Counters.t;  (** the whole loop *)
  set_loads : int;  (** traced run only: loads issued by sets / gets *)
  get_loads : int;
  set_alloc_words : int;
  set_allocs : int;
  gc : Gc.stat * Gc.stat;  (** before, after *)
  collectors : Telemetry.report list;
}

(* Corrupt words spread over each shard's allocated span: most land in
   a value blob, so gets and the final dump must report failures. *)
let corrupt_heap heap =
  let a = Pmalloc.Heap.allocator heap in
  let lo = Pmalloc.Allocator.heap_start a and hi = Pmalloc.Allocator.frontier a in
  for k = 1 to 32 do
    Pmem.Region.corrupt_word (Pmalloc.Heap.region heap) (lo + (k * (hi - lo) / 33))
  done

let corrupt_heaps t =
  for s = 0 to Shard.nshards t - 1 do
    corrupt_heap (Shard.heap t s)
  done

let run cfg t =
  let nsh = Shard.nshards t in
  let reqs = Gen.requests ~seed:cfg.seed ~n:stream_len in
  let owner =
    Array.map (fun r -> Shard.Router.shard_of_key ~nshards:nsh (Shard.key_of r)) reqs
  in
  let heaps = Array.init nsh (Shard.heap t) in
  let stats = Array.map Pmalloc.Heap.stats heaps in
  let allocators = Array.map Pmalloc.Heap.allocator heaps in
  let handles =
    Array.map (fun h -> Shard.Kv.open_or_create h ~slot:Shard.kv_slot) heaps
  in
  let model = Hashtbl.create Gen.keyspace in
  Array.iter (fun (k, v) -> Hashtbl.replace model k v) (Gen.prefill ~seed:cfg.seed);
  let attempted = ref 0 and failed = ref 0 and first_failure = ref None in
  let fail msg =
    incr failed;
    if !first_failure = None then first_failure := Some msg
  in
  (* a get's answer, read again between timed calls; the stats block is
     restored so the check adds nothing to the counted metrics *)
  let read_back s k =
    let st = stats.(s) in
    let saved = Pmem.Stats.copy st in
    let got =
      try Shard.Kv.find_in heaps.(s) (Mod_core.Handle.current handles.(s)) k
      with e -> Some ("<raised " ^ Printexc.to_string e ^ ">")
    in
    Pmem.Stats.assign ~into:st saved;
    got
  in
  (* traced run: request spans, with the file commit's phases as child
     spans taken from the public sync hook *)
  let cur_span = ref (-1) and cur_req = ref 0 in
  let names =
    match cfg.spans with
    | None -> None
    | Some sp ->
        let set = Spans.name sp (cfg.label ^ ".set") in
        let get = Spans.name sp (cfg.label ^ ".get") in
        let jfs = Spans.name sp "backing.journal_fsync" in
        let afs = Spans.name sp "backing.apply_fsync" in
        let tail = Spans.name sp "backing.truncate_tail" in
        let open_tail = ref (-1) and t_torn = ref 0 and t_committed = ref 0 in
        let close_tail now =
          if !open_tail >= 0 then Spans.set_stop sp !open_tail now;
          open_tail := -1
        in
        let hook phase _ordinal =
          let now = Clock.now_ns () in
          let child name start =
            Spans.add sp ~name ~parent:!cur_span ~req:!cur_req ~start ~stop:now
          in
          match phase with
          | Pmem.Backing.Journal_torn ->
              close_tail now;
              t_torn := now
          | Pmem.Backing.Journal_committed ->
              ignore (child jfs !t_torn : int);
              t_committed := now
          | Pmem.Backing.Mid_apply -> ()
          | Pmem.Backing.Applied ->
              ignore (child afs !t_committed : int);
              open_tail := child tail now
        in
        if cfg.file <> None then
          Array.iter
            (fun h -> Pmem.Region.set_file_sync_hook (Pmalloc.Heap.region h) hook)
            heaps;
        Some (sp, set, get, close_tail)
  in
  List.iter (fun h -> Option.iter Telemetry.reset (Pmalloc.Heap.telemetry h))
    (Array.to_list heaps);
  let set_lat = Sample.create () and get_lat = Sample.create () in
  let all_lat = Sample.create () in
  let sets = ref 0 and gets = ref 0 and busy = ref 0 in
  let set_loads = ref 0 and get_loads = ref 0 in
  let set_alloc_words = ref 0 and set_allocs = ref 0 in
  (* 0: minor words inside timed calls, 1: per-request simulated ns *)
  let acc = Float.Array.make 2 0.0 in
  let gc0 = Gc.quick_stat () in
  let c0 = Counters.of_heaps (Array.to_list heaps) in
  let w0_bytes = Clock.written_bytes () in
  let det = ref None in
  let finish_prefix () =
    let c = Counters.diff ~before:c0 ~after:(Counters.of_heaps (Array.to_list heaps)) in
    det :=
      Some
        {
          d_ops = !attempted;
          d_sets = !sets;
          d_sim_ns = c.Counters.sim_ns;
          d_req_sim_ns = Float.Array.get acc 1;
          d_minor_words = Float.Array.get acc 0;
          d_counters = c;
          d_written_bytes = Clock.written_bytes () - w0_bytes;
          d_live_user_bytes = Hashtbl.length model * Gen.pair_bytes;
        }
  in
  let deadline = Clock.now_ns () + int_of_float (cfg.seconds *. 1e9) in
  let running = ref true in
  while !running do
    let j = !attempted land (stream_len - 1) in
    let req = reqs.(j) and s = owner.(j) in
    let st = stats.(s) in
    let is_set = match req with Shard.Set _ -> true | Shard.Get _ -> false in
    let loads0 = st.Pmem.Stats.loads in
    let aw0 = Pmalloc.Allocator.alloc_words_total allocators.(s) in
    let al0 = Pmalloc.Allocator.allocations allocators.(s) in
    (match names with
    | Some (sp, set, get, _) ->
        cur_req := !attempted;
        cur_span :=
          Spans.add sp ~name:(if is_set then set else get) ~parent:(-1)
            ~req:!attempted ~start:0 ~stop:0
    | None -> ());
    let sim0 = st.Pmem.Stats.now_ns in
    let mw0 = Gc.minor_words () in
    let t0 = Clock.now_ns () in
    let raised = try Shard.submit t req; None with e -> Some e in
    let t1 = Clock.now_ns () in
    let mw1 = Gc.minor_words () in
    Float.Array.set acc 0 (Float.Array.get acc 0 +. (mw1 -. mw0));
    Float.Array.set acc 1 (Float.Array.get acc 1 +. (st.Pmem.Stats.now_ns -. sim0));
    (match names with
    | Some (sp, _, _, close_tail) ->
        Spans.set_bounds sp !cur_span ~start:t0 ~stop:t1;
        close_tail t1
    | None -> ());
    let dt = t1 - t0 in
    busy := !busy + dt;
    Sample.add all_lat dt;
    incr attempted;
    (match (req, raised) with
    | _, Some e -> fail ("request raised " ^ Printexc.to_string e)
    | Shard.Set (k, v), None ->
        Hashtbl.replace model k v;
        incr sets;
        Sample.add set_lat dt;
        set_loads := !set_loads + (st.Pmem.Stats.loads - loads0);
        set_alloc_words :=
          !set_alloc_words + (Pmalloc.Allocator.alloc_words_total allocators.(s) - aw0);
        set_allocs :=
          !set_allocs + (Pmalloc.Allocator.allocations allocators.(s) - al0)
    | Shard.Get k, None ->
        incr gets;
        Sample.add get_lat dt;
        get_loads := !get_loads + (st.Pmem.Stats.loads - loads0);
        if cfg.check_gets then begin
          let expected = Hashtbl.find_opt model k in
          let got = read_back s k in
          if got <> expected then fail ("get " ^ k ^ " returned a wrong value")
        end);
    if !attempted = cfg.det_ops then begin
      finish_prefix ();
      if cfg.inject_fault then corrupt_heaps t
    end;
    if !attempted >= cfg.det_ops && t1 >= deadline then running := false
  done;
  let gc1 = Gc.quick_stat () in
  (* the closing commits belong to no request *)
  if Option.is_some names && Option.is_some cfg.file then
    Array.iter
      (fun h -> Pmem.Region.set_file_sync_hook (Pmalloc.Heap.region h) (fun _ _ -> ()))
      heaps;
  let counters = Counters.diff ~before:c0 ~after:(Counters.of_heaps (Array.to_list heaps)) in
  let collectors =
    List.filter_map
      (fun h -> Option.map Telemetry.report (Pmalloc.Heap.telemetry h))
      (Array.to_list heaps)
  in
  (* the final state, checked against the model *)
  incr attempted;
  (match Shard.dump_all t with
  | d -> if d <> Gen.dump_table model then fail "dump_all differs from the model"
  | exception e -> fail ("dump_all raised " ^ Printexc.to_string e));
  {
    attempted = !attempted;
    failed = !failed;
    first_failure = !first_failure;
    ops = !attempted - 1;
    sets = !sets;
    gets = !gets;
    busy_ns = !busy;
    set_lat;
    get_lat;
    all_lat;
    det = Option.get !det;
    counters;
    set_loads = !set_loads;
    get_loads = !get_loads;
    set_alloc_words = !set_alloc_words;
    set_allocs = !set_allocs;
    gc = (gc0, gc1);
    collectors;
  }
