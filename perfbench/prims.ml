(* Primitives pass of the traced run: each layer's public entry point
   timed on its own, in wall ns and minor words per call, after a
   warm-up of the same loop. *)

type cost = { ns : float; words : float }

(* [f i] for i in [0, n), after n/10 warm-up calls. *)
let time_calls n f =
  for i = 0 to (n / 10) - 1 do
    f i
  done;
  let mw0 = Gc.minor_words () in
  let t0 = Clock.now_ns () in
  for i = 0 to n - 1 do
    f i
  done;
  let t1 = Clock.now_ns () in
  let mw1 = Gc.minor_words () in
  { ns = float_of_int (t1 - t0) /. float_of_int n; words = (mw1 -. mw0) /. float_of_int n }

(* Offsets that mix L1 hits and misses: a fixed scatter over 32k words. *)
let scatter base i = base + ((i * 2_654_435_761) land 0x7fff)

type result = {
  load : cost;
  store : cost;
  clwb : cost;
  sfence_ns : float;
  alloc_release_ns : float;
  route_ns : float;
  queue_push_pop_ns : float;
  insert_ns : float;
  find_ns : float;
}

(* [set_mix]: block sizes (words) one set allocates, measured on the
   traced kv-mem segment. *)
let run ~seed ~set_mix =
  let heap = Pmalloc.Heap.create () in
  let region = Pmalloc.Heap.region heap in
  let base = Pmalloc.Heap.heap_start_words in
  Pmem.Region.ensure_capacity region (base + 0x8000 + 8);
  let n = 200_000 in
  let load = time_calls n (fun i -> ignore (Pmem.Region.load region (scatter base i) : Pmem.Word.t)) in
  let store =
    time_calls n (fun i -> Pmem.Region.store region (scatter base i) (Pmem.Word.of_int i))
  in
  let clwb = time_calls n (fun i -> Pmem.Region.clwb region (scatter base i)) in
  (* sfence draining a set's worth of lines, each call timed alone *)
  let clock = Clock.overhead_ns () in
  let lines = 16 and fences = 20_000 in
  let fence_ns = ref 0 in
  for r = 0 to fences + (fences / 10) - 1 do
    for l = 0 to lines - 1 do
      let off = scatter base ((r * lines) + l) in
      Pmem.Region.store region off (Pmem.Word.of_int r);
      Pmem.Region.clwb region off
    done;
    let t0 = Clock.now_ns () in
    Pmem.Region.sfence region;
    let t1 = Clock.now_ns () in
    if r >= fences / 10 then fence_ns := !fence_ns + (t1 - t0)
  done;
  let sfence_ns = (float_of_int !fence_ns /. float_of_int fences) -. clock in
  (* alloc + release at a set's size mix; the fence that recycles the
     epoch-deferred frees is not timed *)
  let mix = Array.of_list set_mix in
  let bodies = Array.make (Array.length mix) 0 in
  let rounds = 20_000 in
  let ar_ns = ref 0 in
  for r = 0 to rounds + (rounds / 10) - 1 do
    let t0 = Clock.now_ns () in
    Array.iteri
      (fun i words -> bodies.(i) <- Pmalloc.Heap.alloc heap ~kind:Pmalloc.Block.Raw ~words)
      mix;
    Array.iter (Pmalloc.Heap.release heap) bodies;
    let t1 = Clock.now_ns () in
    if r >= rounds / 10 then ar_ns := !ar_ns + (t1 - t0);
    Pmalloc.Heap.sfence heap
  done;
  let alloc_release_ns =
    float_of_int !ar_ns /. float_of_int (rounds * max 1 (Array.length mix))
  in
  let route =
    time_calls 1_000_000 (fun i ->
        ignore (Shard.Router.shard_of_key ~nshards:Gen.nshards Gen.keys.(i mod Gen.keyspace) : int))
  in
  let q = Shard.Queue.create ~capacity:1024 () in
  let req = Shard.Get Gen.keys.(0) in
  let queue =
    time_calls 1_000_000 (fun _ ->
        Shard.Queue.push q req;
        ignore (Shard.Queue.try_pop q : Shard.request option))
  in
  (* the served structure on its own heap, holding every key *)
  let kv_heap = Pmalloc.Heap.create ~capacity_words:(1 lsl 21) () in
  ignore (Pmalloc.Heap.attach_telemetry kv_heap : Telemetry.t);
  let kv = Shard.Kv.open_or_create ~persist:Pmalloc.Heap.Full kv_heap ~slot:Shard.kv_slot in
  Shard.Kv.insert_many kv (Array.to_list (Gen.prefill ~seed));
  let reqs = Gen.requests ~seed ~n:20_000 in
  let key i = Shard.key_of reqs.(i) in
  let value = (Gen.prefill ~seed:(seed + 5)).(0) |> snd in
  let find = time_calls 20_000 (fun i -> ignore (Shard.Kv.find kv (key i) : string option)) in
  let insert = time_calls 5_000 (fun i -> Shard.Kv.insert kv (key i) value) in
  {
    load;
    store;
    clwb;
    sfence_ns;
    alloc_release_ns;
    route_ns = route.ns;
    queue_push_pop_ns = queue.ns;
    insert_ns = insert.ns;
    find_ns = find.ns;
  }
