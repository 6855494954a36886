(* Public counters of every layer under a set of heaps, summed, so a
   measured interval is the difference of two readings. *)

type t = {
  sim_ns : float;
  flush_ns : float;
  loads : int;
  stores : int;
  l1_hits : int;
  l1_misses : int;
  clwbs : int;
  fences : int;
  lines_drained : int;
  commits : int;
  file_commits : int;
  file_lines : int;
  file_fsyncs : int;
  alloc_words : int;  (* Allocator.alloc_words_total *)
  allocs : int;
  live_words : int;
  high_water_words : int;
}

let zero =
  {
    sim_ns = 0.0;
    flush_ns = 0.0;
    loads = 0;
    stores = 0;
    l1_hits = 0;
    l1_misses = 0;
    clwbs = 0;
    fences = 0;
    lines_drained = 0;
    commits = 0;
    file_commits = 0;
    file_lines = 0;
    file_fsyncs = 0;
    alloc_words = 0;
    allocs = 0;
    live_words = 0;
    high_water_words = 0;
  }

let add acc heap =
  let s = Pmalloc.Heap.stats heap and a = Pmalloc.Heap.allocator heap in
  Pmem.Stats.
    {
      sim_ns = acc.sim_ns +. s.now_ns;
      flush_ns = acc.flush_ns +. s.ns_flush;
      loads = acc.loads + s.loads;
      stores = acc.stores + s.stores;
      l1_hits = acc.l1_hits + s.l1_hits;
      l1_misses = acc.l1_misses + s.l1_misses;
      clwbs = acc.clwbs + s.clwbs;
      fences = acc.fences + s.fences;
      lines_drained = acc.lines_drained + s.lines_drained;
      commits = acc.commits + s.commits;
      file_commits = acc.file_commits + s.file_commits;
      file_lines = acc.file_lines + s.file_lines;
      file_fsyncs = acc.file_fsyncs + s.file_fsyncs;
      alloc_words = acc.alloc_words + Pmalloc.Allocator.alloc_words_total a;
      allocs = acc.allocs + Pmalloc.Allocator.allocations a;
      live_words = acc.live_words + Pmalloc.Allocator.live_words a;
      high_water_words =
        acc.high_water_words + Pmalloc.Allocator.high_water_words a;
    }

let of_heaps heaps = List.fold_left add zero heaps
let of_shards t = of_heaps (List.init (Shard.nshards t) (Shard.heap t))

(* [after - before] for the flow counters; gauges keep [after]'s value. *)
let diff ~before ~after =
  {
    after with
    sim_ns = after.sim_ns -. before.sim_ns;
    flush_ns = after.flush_ns -. before.flush_ns;
    loads = after.loads - before.loads;
    stores = after.stores - before.stores;
    l1_hits = after.l1_hits - before.l1_hits;
    l1_misses = after.l1_misses - before.l1_misses;
    clwbs = after.clwbs - before.clwbs;
    fences = after.fences - before.fences;
    lines_drained = after.lines_drained - before.lines_drained;
    commits = after.commits - before.commits;
    file_commits = after.file_commits - before.file_commits;
    file_lines = after.file_lines - before.file_lines;
    file_fsyncs = after.file_fsyncs - before.file_fsyncs;
    alloc_words = after.alloc_words - before.alloc_words;
    allocs = after.allocs - before.allocs;
  }
