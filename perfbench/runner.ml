(* The four workloads, the end-to-end metrics of an untraced run and the
   per-layer metrics of a traced run.  Flush policy: [Full] on every
   heap (the paper's MOD protocol: every shadow node is flushed before
   the commit fence). *)

let workloads = [ "kv-mem"; "kv-durable"; "kv-domains"; "reopen" ]

type run = {
  correct : bool;
  attempted : int;
  failed : int;
  first_failure : string option;
  metrics : Metric.t list;  (** the result line *)
  report : Metric.t list;  (** printed above it, with sample counts *)
  notes : string list;
}

let us ns = ns /. 1e3
let fl = float_of_int

(* Requests in a deterministic prefix: long enough that the per-op
   averages barely move with the seed, short enough to finish well
   inside the run. *)
let det_ops = function "kv-durable" -> 5_000 | _ -> 20_000
let reopen_min_trials = 100
let domains_min_bursts = 5

(* Slices a kv run is cut into for its throughput. *)
let rate_windows = 20

(* Set up [times] times, keep the last; the first ones are torn down.
   Returns the median set-up time. *)
let timed_setups ~times ~setup ~teardown =
  let rec go k acc =
    let t0 = Clock.now_ns () in
    let x = setup k in
    let dt = fl (Clock.now_ns () - t0) /. 1e9 in
    if k = times - 1 then (x, Sample.median_float (dt :: acc))
    else begin
      teardown x;
      go (k + 1) (dt :: acc)
    end
  in
  go 0 []

let setups = 5

let failed_frac ~attempted ~failed =
  Metric.v "failed_ops_frac" "frac" (Metric.ratio (fl failed) (fl attempted)) ~samples:attempted

(* -- kv-mem / kv-durable ------------------------------------------------ *)

let kv_config ?spans ~inject_fault ~workload ~seed ~seconds ~dir () =
  let file = if workload = "kv-durable" then Some (Filename.concat dir "kv") else None in
  {
    Kvloop.label = workload;
    seed;
    seconds;
    file;
    det_ops = det_ops workload;
    check_gets = true;
    spans;
    inject_fault;
  }

let kv_setup ~seed ~file k =
  Kvloop.setup ~seed ~file:(Option.map (fun b -> Printf.sprintf "%s%d" b k) file)

let kv_e2e ~workload ~setup_s (o : Kvloop.outcome) =
  let d = o.Kvloop.det in
  let c = d.Kvloop.d_counters in
  let per_op x = x /. fl d.Kvloop.d_ops in
  let user_set_bytes = fl (d.Kvloop.d_sets * Gen.pair_bytes) in
  let durable_bytes =
    if workload = "kv-durable" then fl d.Kvloop.d_written_bytes
    else fl (c.Counters.clwbs * Pmem.Config.cacheline_bytes)
  in
  let metrics =
    [
      Metric.v "throughput_ops_s" "ops/s" (Sample.upper_quartile (Sample.window_rates o.Kvloop.all_lat ~windows:rate_windows)) ~samples:o.Kvloop.ops;
      Metric.v "sim_ns_per_op" "sim-ns" (per_op d.Kvloop.d_sim_ns) ~samples:d.Kvloop.d_ops;
      Metric.v "write_amp" "ratio" (durable_bytes /. user_set_bytes) ~samples:d.Kvloop.d_sets;
      Metric.v "space_amp" "ratio"
        (fl (c.Counters.live_words * Pmem.Config.word_bytes) /. fl d.Kvloop.d_live_user_bytes);
      Metric.v "minor_words_per_op" "words" (per_op d.Kvloop.d_minor_words) ~samples:d.Kvloop.d_ops;
      Metric.v "setup_s" "s" setup_s ~samples:setups;
    ]
  in
  let pct s q = us (Sample.percentile s q) in
  let sets = Sample.count o.Kvloop.set_lat and gets = Sample.count o.Kvloop.get_lat in
  let find name = List.find (fun m -> m.Metric.name = name) metrics in
  let report =
    [ find "throughput_ops_s";
      Metric.v "mean_throughput_ops_s" "ops/s" (fl o.Kvloop.ops /. (fl o.Kvloop.busy_ns /. 1e9));
      Metric.v "set_p50_us" "us" (pct o.Kvloop.set_lat 0.5) ~samples:sets;
      Metric.v "set_p99_us" "us" (pct o.Kvloop.set_lat 0.99) ~samples:sets ]
    @ (if workload = "kv-mem" then
         [ Metric.v "get_p50_us" "us" (pct o.Kvloop.get_lat 0.5) ~samples:gets;
           Metric.v "get_p99_us" "us" (pct o.Kvloop.get_lat 0.99) ~samples:gets ]
       else [])
    @ [ find "sim_ns_per_op" ]
    @ (if workload = "kv-durable" then
         [ Metric.v "fsyncs_per_op" "count" (per_op (fl c.Counters.file_fsyncs)) ~samples:d.Kvloop.d_ops;
           find "write_amp" ]
       else [ find "space_amp" ])
    @ [ find "minor_words_per_op"; find "setup_s";
        failed_frac ~attempted:o.Kvloop.attempted ~failed:o.Kvloop.failed ]
  in
  (metrics, report)

(* -- kv-domains --------------------------------------------------------- *)

let burst_rate (o : Domains.outcome) =
  Sample.upper_quartile
    (List.map (fun d -> fl Domains.burst_requests /. d) o.Domains.durations)

let domains_e2e (o : Domains.outcome) =
  let d = o.Domains.det in
  let per_req x = x /. fl Domains.burst_requests in
  let requests = o.Domains.bursts * Domains.burst_requests in
  let metrics =
    [
      Metric.v "throughput_ops_s" "ops/s" (burst_rate o) ~samples:requests;
      Metric.v "sim_ns_per_op" "sim-ns" (per_req d.Domains.sim_ns) ~samples:Domains.burst_requests;
      Metric.v "write_amp" "ratio"
        (fl (d.Domains.clwbs * Pmem.Config.cacheline_bytes) /. fl (d.Domains.sets * Gen.pair_bytes))
        ~samples:d.Domains.sets;
      Metric.v "space_amp" "ratio"
        (fl (d.Domains.live_words * Pmem.Config.word_bytes) /. fl (Gen.keyspace * Gen.pair_bytes));
      Metric.v "minor_words_per_op" "words" (per_req d.Domains.minor_words) ~samples:Domains.burst_requests;
      Metric.v "setup_s" "s" (Sample.median_float o.Domains.setups) ~samples:(List.length o.Domains.setups);
    ]
  in
  let find name = List.find (fun m -> m.Metric.name = name) metrics in
  let report =
    [ find "throughput_ops_s"; find "sim_ns_per_op"; find "setup_s";
      failed_frac ~attempted:o.Domains.attempted ~failed:o.Domains.failed ]
  in
  (metrics, report)

(* -- reopen ------------------------------------------------------------- *)

let reopen_e2e ~setup_s (img : Reopen.image) (trials : Reopen.trial list) =
  let lat = Sample.create () in
  List.iter (fun t -> Sample.add lat t.Reopen.wall_ns) trials;
  let sorted = Sample.sorted lat and n = List.length trials in
  (* every trial reopens an identical copy; the counted metrics are the
     first trial's *)
  let first = List.hd trials in
  let live_words =
    match first.Reopen.gc_report with Some r -> r.Pmalloc.Recovery_gc.live_words | None -> 0
  in
  let p q = Sample.percentile_of_sorted sorted q in
  let metrics =
    [
      Metric.v "throughput_ops_s" "ops/s" (Sample.upper_quartile (Sample.window_rates lat ~windows:(n / 10))) ~samples:n;
      Metric.v "sim_ns_per_op" "sim-ns" first.Reopen.sim_ns ~samples:1;
      Metric.v "write_amp" "ratio" (fl first.Reopen.written_bytes /. fl img.Reopen.user_bytes);
      Metric.v "space_amp" "ratio" (fl (live_words * Pmem.Config.word_bytes) /. fl img.Reopen.user_bytes);
      Metric.v "minor_words_per_op" "words" first.Reopen.minor_words ~samples:1;
      Metric.v "setup_s" "s" setup_s ~samples:setups;
    ]
  in
  let failed = List.length (List.filter (fun t -> t.Reopen.failure <> None) trials) in
  let report =
    [ Metric.v "reopen_p50_ms" "ms" (p 0.5 /. 1e6) ~samples:n;
      Metric.v "reopen_p90_ms" "ms" (p 0.9 /. 1e6) ~samples:n;
      List.find (fun m -> m.Metric.name = "setup_s") metrics;
      failed_frac ~attempted:n ~failed ]
  in
  (metrics, report, failed)

let first_reopen_failure trials =
  List.find_map (fun t -> t.Reopen.failure) trials

(* -- an untraced run ---------------------------------------------------- *)

let untraced ?(inject_fault = false) ~workload ~seed ~seconds ~dir () =
  match workload with
  | "kv-mem" | "kv-durable" ->
      let cfg = kv_config ~inject_fault ~workload ~seed ~seconds ~dir () in
      let t, setup_s =
        timed_setups ~times:setups
          ~setup:(kv_setup ~seed ~file:cfg.Kvloop.file)
          ~teardown:Kvloop.teardown
      in
      let o = Kvloop.run cfg t in
      Kvloop.teardown t;
      let metrics, report = kv_e2e ~workload ~setup_s o in
      let d = o.Kvloop.det in
      {
        correct = o.Kvloop.failed = 0;
        attempted = o.Kvloop.attempted;
        failed = o.Kvloop.failed;
        first_failure = o.Kvloop.first_failure;
        metrics;
        report;
        notes =
          [
            Printf.sprintf "cross-check: requests' sim ns %.0f, shards' Stats.now_ns deltas %.0f"
              d.Kvloop.d_req_sim_ns d.Kvloop.d_sim_ns;
          ];
      }
  | "kv-domains" ->
      let o = Domains.run ~seed ~seconds ~min_bursts:domains_min_bursts ~inject_fault in
      let metrics, report = domains_e2e o in
      {
        correct = o.Domains.failed = 0;
        attempted = o.Domains.attempted;
        failed = o.Domains.failed;
        first_failure = o.Domains.first_failure;
        metrics;
        report;
        notes =
          [
            Printf.sprintf
              "%d bursts of %d requests; 2 worker domains, one per shard and core"
              o.Domains.bursts Domains.burst_requests;
          ];
      }
  | "reopen" ->
      let img, setup_s =
        timed_setups ~times:setups
          ~setup:(fun k -> Reopen.build ~seed ~path:(Filename.concat dir (Printf.sprintf "image%d" k)))
          ~teardown:(fun img -> Reopen.remove_image img.Reopen.path)
      in
      let trials =
        Reopen.run ~inject_fault img ~copy:(Filename.concat dir "trial") ~seconds
          ~min_trials:reopen_min_trials
      in
      Reopen.remove_image img.Reopen.path;
      let metrics, report, failed = reopen_e2e ~setup_s img trials in
      {
        correct = failed = 0;
        attempted = List.length trials;
        failed;
        first_failure = first_reopen_failure trials;
        metrics;
        report;
        notes =
          [
            Printf.sprintf "journal lines replayed per reopen: %d"
              (List.hd trials).Reopen.replayed_lines;
          ];
      }
  | w -> invalid_arg ("unknown workload " ^ w)

(* -- the traced run ----------------------------------------------------- *)

let merged_p50 reports op =
  let h = Telemetry.Histogram.create () in
  List.iter
    (fun (r : Telemetry.report) ->
      List.iter
        (fun (row : Telemetry.row) ->
          if row.Telemetry.r_op = op then Telemetry.Histogram.merge ~into:h row.Telemetry.r_lat)
        r.Telemetry.rows)
    reports;
  Telemetry.Histogram.percentile h 0.5

let kv_layers (o : Kvloop.outcome) =
  let c = o.Kvloop.counters in
  let ops = fl o.Kvloop.ops and sets = fl o.Kvloop.sets and gets = fl o.Kvloop.gets in
  let r = Metric.ratio in
  let reports = o.Kvloop.collectors in
  let sum f = List.fold_left (fun acc x -> acc +. f x) 0.0 reports in
  let g0, g1 = o.Kvloop.gc in
  [
    Metric.v "core.fences_per_set" "count" (r (fl c.Counters.fences) sets);
    Metric.v "core.commits_per_set" "count" (r (fl c.Counters.commits) sets);
    Metric.v "core.set_sim_ns_p50" "sim-ns" (merged_p50 reports "insert");
    Metric.v "core.get_sim_ns_p50" "sim-ns" (merged_p50 reports "find");
    Metric.v "core.fence_stall_frac" "frac"
      (r (sum (fun x -> x.Telemetry.total_fence_stall_ns)) (sum (fun x -> x.Telemetry.total_ns)));
    Metric.v "pfds.loads_per_get" "count" (r (fl o.Kvloop.get_loads) gets);
    Metric.v "pfds.loads_per_set" "count" (r (fl o.Kvloop.set_loads) sets);
    Metric.v "pfds.fresh_words_per_set" "words" (r (fl o.Kvloop.set_alloc_words) sets);
    Metric.v "pmalloc.allocs_per_set" "count" (r (fl o.Kvloop.set_allocs) sets);
    Metric.v "pmalloc.live_words" "words" (fl c.Counters.live_words);
    Metric.v "pmalloc.high_water_words" "words" (fl c.Counters.high_water_words);
    Metric.v "pmem.loads_per_op" "count" (r (fl c.Counters.loads) ops);
    Metric.v "pmem.stores_per_op" "count" (r (fl c.Counters.stores) ops);
    Metric.v "pmem.clwbs_per_op" "count" (r (fl c.Counters.clwbs) ops);
    Metric.v "pmem.lines_drained_per_fence" "count" (r (fl c.Counters.lines_drained) (fl c.Counters.fences));
    Metric.v "pmem.l1_miss_ratio" "frac"
      (r (fl c.Counters.l1_misses) (fl (c.Counters.l1_hits + c.Counters.l1_misses)));
    Metric.v "pmem.flush_ns_frac" "frac" (r c.Counters.flush_ns c.Counters.sim_ns);
    Metric.v "gc.minor_collections_per_kop" "count"
      (1000.0 *. r (fl (g1.Gc.minor_collections - g0.Gc.minor_collections)) ops);
    Metric.v "gc.major_collections_per_kop" "count"
      (1000.0 *. r (fl (g1.Gc.major_collections - g0.Gc.major_collections)) ops);
    Metric.v "gc.promoted_words_per_op" "words"
      (r (g1.Gc.promoted_words -. g0.Gc.promoted_words) ops);
  ]

let durable_layers sp (o : Kvloop.outcome) =
  let c = o.Kvloop.counters in
  let ops = fl o.Kvloop.ops and sets = fl o.Kvloop.sets in
  let r = Metric.ratio in
  let per_set name = us (fl (Spans.find_totals sp name).Spans.total_ns) /. sets in
  [
    Metric.v "backing.commits_per_op" "count" (r (fl c.Counters.file_commits) ops);
    Metric.v "backing.lines_per_commit" "count" (r (fl c.Counters.file_lines) (fl c.Counters.file_commits));
    Metric.v "backing.fsyncs_per_op" "count" (r (fl c.Counters.file_fsyncs) ops);
    Metric.v "backing.journal_fsync_us" "us" (per_set "backing.journal_fsync");
    Metric.v "backing.apply_fsync_us" "us" (per_set "backing.apply_fsync");
    Metric.v "backing.truncate_tail_us" "us" (per_set "backing.truncate_tail");
    Metric.v "backing.request_self_us" "us" (us (fl (Spans.find_totals sp "kv-durable.set").Spans.self_ns) /. sets);
  ]

let reopen_layers (trials : Reopen.trial list) =
  let med f = Sample.median_float (List.map f trials) in
  let gc f = match (List.hd trials).Reopen.gc_report with Some g -> fl (f g) | None -> 0.0 in
  [
    Metric.v "pmalloc.gc_ms" "ms" (med (fun t -> fl t.Reopen.gc_ns /. 1e6)) ~samples:(List.length trials);
    Metric.v "pmalloc.gc_live_blocks" "count" (gc (fun g -> g.Pmalloc.Recovery_gc.live_blocks));
    Metric.v "pmalloc.gc_reclaimed_words" "words" (gc (fun g -> g.Pmalloc.Recovery_gc.reclaimed_words));
    Metric.v "backing.image_open_ms" "ms" (med (fun t -> fl t.Reopen.image_open_ns /. 1e6)) ~samples:(List.length trials);
    Metric.v "backing.journal_lines_replayed" "count" (fl (List.hd trials).Reopen.replayed_lines);
  ]

let domains_layers (o : Domains.outcome) =
  let total = Array.fold_left ( + ) 0 o.Domains.executed in
  let maxe = Array.fold_left max 0 o.Domains.executed in
  let mean = fl total /. fl (Array.length o.Domains.executed) in
  [
    Metric.v "shard.stolen_frac" "frac" (Metric.ratio (fl o.Domains.stolen) (fl total));
    Metric.v "shard.imbalance" "ratio" (Metric.ratio (fl maxe) mean);
  ]

(* Block sizes one set allocates: its value blob, then the rest of its
   measured words spread over its other allocations. *)
let set_mix (o : Kvloop.outcome) =
  let sets = fl (max 1 o.Kvloop.sets) in
  let allocs = max 1 (int_of_float (Float.round (fl o.Kvloop.set_allocs /. sets))) in
  let words = fl o.Kvloop.set_alloc_words /. sets in
  let value_words = 1 + ((Gen.value_bytes + 6) / 7) in
  if allocs = 1 then [ value_words ]
  else
    let rest = max 1 (int_of_float ((words -. fl value_words) /. fl (allocs - 1))) in
    value_words :: List.init (allocs - 1) (fun _ -> rest)

let prim_layers (p : Prims.result) =
  [
    Metric.v "shard.route_ns" "ns" p.Prims.route_ns;
    Metric.v "shard.queue_push_pop_ns" "ns" p.Prims.queue_push_pop_ns;
    Metric.v "core.insert_ns" "ns" p.Prims.insert_ns;
    Metric.v "core.find_ns" "ns" p.Prims.find_ns;
    Metric.v "pmalloc.alloc_release_ns" "ns" p.Prims.alloc_release_ns;
    Metric.v "pmem.load_ns" "ns" p.Prims.load.Prims.ns;
    Metric.v "pmem.store_ns" "ns" p.Prims.store.Prims.ns;
    Metric.v "pmem.clwb_ns" "ns" p.Prims.clwb.Prims.ns;
    Metric.v "pmem.sfence_ns" "ns" p.Prims.sfence_ns;
    Metric.v "pmem.load_minor_words" "words" p.Prims.load.Prims.words;
    Metric.v "pmem.store_minor_words" "words" p.Prims.store.Prims.words;
  ]

(* One segment of a traced run: a workload run for a fifth of the
   seconds, with its client throughput (mean over the segment). *)
type segment = {
  thr : float;
  attempted : int;
  failed : int;
  failure : string option;
  kv : Kvloop.outcome option;
  trials : Reopen.trial list;
  dom : Domains.outcome option;
}

let segment ?spans ~workload ~seed ~seconds ~dir ~image () =
  match workload with
  | "kv-mem" | "kv-durable" ->
      let cfg = kv_config ?spans ~inject_fault:false ~workload ~seed ~seconds ~dir () in
      let cfg = { cfg with Kvloop.det_ops = min cfg.Kvloop.det_ops 1_000 } in
      let t = kv_setup ~seed ~file:cfg.Kvloop.file 9 in
      let o = Kvloop.run cfg t in
      Kvloop.teardown t;
      {
        thr = fl o.Kvloop.ops /. (fl o.Kvloop.busy_ns /. 1e9);
        attempted = o.Kvloop.attempted;
        failed = o.Kvloop.failed;
        failure = o.Kvloop.first_failure;
        kv = Some o;
        trials = [];
        dom = None;
      }
  | "kv-domains" ->
      let o = Domains.run ~seed ~seconds ~min_bursts:1 ~inject_fault:false in
      {
        thr = burst_rate o;
        attempted = o.Domains.attempted;
        failed = o.Domains.failed;
        failure = o.Domains.first_failure;
        kv = None;
        trials = [];
        dom = Some o;
      }
  | "reopen" ->
      let trials =
        Reopen.run ?spans image ~copy:(Filename.concat dir "trial") ~seconds ~min_trials:5
      in
      let busy = List.fold_left (fun acc t -> acc + t.Reopen.wall_ns) 0 trials in
      let failed = List.length (List.filter (fun t -> t.Reopen.failure <> None) trials) in
      {
        thr = fl (List.length trials) /. (fl busy /. 1e9);
        attempted = List.length trials;
        failed;
        failure = first_reopen_failure trials;
        kv = None;
        trials;
        dom = None;
      }
  | w -> invalid_arg ("unknown workload " ^ w)

(* One traced pass over every workload (each for a fifth of [seconds]),
   then the primitives pass.  The run's own workload also runs once
   untraced, for the overhead of tracing. *)
let traced ~workload ~seed ~seconds ~dir ~spans_path =
  if not (List.mem workload workloads) then invalid_arg ("unknown workload " ^ workload);
  let seg = seconds /. 5.0 in
  let sp = Spans.create () in
  (* built first: the builder forks, which OCaml forbids once a domain
     has been spawned *)
  let image = Reopen.build ~seed ~path:(Filename.concat dir "image") in
  let untraced = segment ~workload ~seed ~seconds:seg ~dir ~image () in
  let order = [ "kv-mem"; "kv-durable"; "reopen"; "kv-domains" ] in
  let segs =
    List.map
      (fun w -> (w, segment ~spans:sp ~workload:w ~seed ~seconds:seg ~dir ~image ()))
      order
  in
  Reopen.remove_image image.Reopen.path;
  let get w = List.assoc w segs in
  let mem = Option.get (get "kv-mem").kv and dur = Option.get (get "kv-durable").kv in
  let prims = Prims.run ~seed ~set_mix:(set_mix mem) in
  Spans.dump sp spans_path;
  let metrics =
    kv_layers mem @ durable_layers sp dur
    @ reopen_layers (get "reopen").trials
    @ domains_layers (Option.get (get "kv-domains").dom)
    @ prim_layers prims
    @ [ Metric.v "trace.overhead_frac" "frac" ((untraced.thr /. (get workload).thr) -. 1.0) ]
  in
  let all = untraced :: List.map snd segs in
  let attempted = List.fold_left (fun a s -> a + s.attempted) 0 all in
  let failed = List.fold_left (fun a s -> a + s.failed) 0 all in
  let self =
    List.map
      (fun (name, (t : Spans.totals)) ->
        Metric.v ("self." ^ name ^ "_ms") "ms" (fl t.Spans.self_ns /. 1e6) ~samples:t.Spans.n)
      (Spans.totals sp)
  in
  {
    correct = failed = 0;
    attempted;
    failed;
    first_failure = List.find_map (fun s -> s.failure) all;
    metrics;
    report = self;
    notes = [ Printf.sprintf "%d spans written to %s" (Spans.count sp) spans_path ];
  }
