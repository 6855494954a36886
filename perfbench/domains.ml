(* kv-domains: the kv-mem request shape driven through [Shard.run_load]
   on two shards in Domains mode, one worker domain per shard.

   Why 2 worker domains: the benchmark is sized for a 2-core host, and
   [run_load] spawns exactly one worker per shard while the calling
   domain only enqueues (blocking while a queue is full).  Two shards
   give one worker per core; more shards would oversubscribe the cores
   and measure the OS scheduler instead of queueing, stealing and the
   stop-the-world minor collections every domain shares.  The ROADMAP's
   "Domains >= Inline at 2 shards" check compares this workload's
   throughput_ops_s with kv-mem's.

   [run_load] is the only public entry point that starts worker
   domains, and it closes the shard queues when it returns, so the
   client runs bursts: each burst is one [run_load] call of
   [burst_requests] requests on a freshly loaded shard set, whose
   set-up is timed as this workload's set-up.  Every burst replays the
   run's seeded stream from the same state, so each must end in the
   state one Inline run of that stream ends in, and every burst counts
   the same simulated work.  [run_load] draws its requests from its
   own seeded generator, inside the timed call: it is the only public
   way to start the workers. *)

let burst_requests = 12_000

(* Sets a burst executed, from the shards' collectors (which [run_load]
   resets when its measured loop starts). *)
let sets_of (lr : Shard.load_result) =
  List.fold_left
    (fun acc (m : Shard.shard_metrics) ->
      List.fold_left
        (fun acc (r : Telemetry.row) ->
          if r.Telemetry.r_op = "insert" then acc + r.Telemetry.r_ops else acc)
        acc m.Shard.m_report.Telemetry.rows)
    0 lr.Shard.lr_shards

let load t ~seed =
  Shard.run_load ~theta:Gen.theta ~get_pct:Gen.get_pct ~seed ~keyspace:Gen.keyspace t
    ~requests:burst_requests ()

(* Counted on the first burst (every burst counts the same). *)
type det = {
  sets : int;
  sim_ns : float;
  minor_words : float;  (** all domains, inside the [run_load] call *)
  clwbs : int;
  live_words : int;
}

type outcome = {
  attempted : int;
  failed : int;
  first_failure : string option;
  bursts : int;
  durations : float list;  (** each burst's, s *)
  setups : float list;  (** each burst's set-up, s *)
  det : det;
  executed : int array;  (** per shard, all bursts *)
  stolen : int;
}

(* Bursts until [seconds] have passed and at least [min_bursts] ran. *)
let run ~seed ~seconds ~min_bursts ~inject_fault =
  let expected =
    let reference = Gen.shards ~mode:Shard.Inline ~seed () in
    ignore (load reference ~seed : Shard.load_result);
    Shard.dump_all reference
  in
  let durations = ref [] and setups = ref [] in
  let executed = Array.make Gen.nshards 0 and stolen = ref 0 in
  let failed = ref 0 and first_failure = ref None and det = ref None in
  let deadline = Clock.now_ns () + int_of_float (seconds *. 1e9) in
  let bursts = ref 0 in
  while !bursts < min_bursts || Clock.now_ns () < deadline do
    let t0 = Clock.now_ns () in
    let t = Gen.shards ~mode:Shard.Domains ~seed () in
    let t1 = Clock.now_ns () in
    let mw0 = Clock.minor_words_all_domains () in
    let t2 = Clock.now_ns () in
    let lr = load t ~seed in
    let t3 = Clock.now_ns () in
    let mw1 = Clock.minor_words_all_domains () in
    setups := (float_of_int (t1 - t0) /. 1e9) :: !setups;
    durations := (float_of_int (t3 - t2) /. 1e9) :: !durations;
    incr bursts;
    List.iter
      (fun (m : Shard.shard_metrics) ->
        executed.(m.Shard.m_id) <- executed.(m.Shard.m_id) + m.Shard.m_executed;
        stolen := !stolen + m.Shard.m_stolen)
      lr.Shard.lr_shards;
    if !det = None then begin
      let c = Counters.of_shards t in
      det :=
        Some
          {
            sets = sets_of lr;
            sim_ns = lr.Shard.lr_sim_total_ns;
            minor_words = mw1 -. mw0;
            clwbs = c.Counters.clwbs;
            live_words = c.Counters.live_words;
          }
    end;
    if inject_fault then Kvloop.corrupt_heaps t;
    (match Shard.dump_all t with
    | d ->
        if d <> expected then begin
          incr failed;
          if !first_failure = None then
            first_failure := Some "dump_all differs from the Inline run of the same stream"
        end
    | exception e ->
        incr failed;
        if !first_failure = None then
          first_failure := Some ("dump_all raised " ^ Printexc.to_string e));
    Shard.close t
  done;
  {
    attempted = !bursts * (burst_requests + 1);
    failed = !failed;
    first_failure = !first_failure;
    bursts = !bursts;
    durations = !durations;
    setups = !setups;
    det = Option.get !det;
    executed;
    stolen = !stolen;
  }
