(* Seeded inputs, generated before any timing starts: the memcached
   shape the paper uses (16 B keys, 512 B values, zipfian theta = 0.99
   over 10,000 keys, 95% sets / 5% gets). *)

let keyspace = 10_000
let value_bytes = 512
let theta = 0.99
let get_pct = 5
let nshards = 2

(* Bytes of user data one live pair holds. *)
let pair_bytes = 16 + value_bytes

let keys = Array.init keyspace Shard.Router.key_of_index

(* A stale value matches the expected one with probability 1/pool_size,
   so a get that returns an old version is caught almost surely. *)
let pool_size = 1024

let value_pool ~seed =
  let rng = Random.State.make [| seed; 0x7a1 |] in
  Array.init pool_size (fun _ ->
      String.init value_bytes (fun _ -> Char.chr (33 + Random.State.int rng 94)))

(* [n] requests; the closed loop wraps around the array when a run
   outlasts it. *)
let requests ~seed ~n =
  let pool = value_pool ~seed in
  let z = Shard.Router.zipf ~theta ~seed ~n:keyspace () in
  let mix = Random.State.make [| seed; 0x5e7 |] in
  Array.init n (fun _ ->
      let k = keys.(Shard.Router.next z) in
      if Random.State.int mix 100 < get_pct then Shard.Get k
      else Shard.Set (k, pool.(Random.State.int mix pool_size)))

(* Every key's initial value, so each get hits and the map's size is
   steady from the first timed request. *)
let prefill ~seed =
  let pool = value_pool ~seed:(seed + 1) in
  Array.mapi (fun i k -> (k, pool.(i mod pool_size))) keys

(* Bulk-load [pairs] into a shard set through one [insert_many] per
   shard (one commit, hence one file batch, per shard). *)
let load_shards t pairs =
  let n = Shard.nshards t in
  let per = Array.make n [] in
  Array.iter
    (fun ((k, _) as kv) ->
      let s = Shard.Router.shard_of_key ~nshards:n k in
      per.(s) <- kv :: per.(s))
    pairs;
  Array.iteri
    (fun s kvs ->
      let h = Shard.Kv.open_or_create (Shard.heap t s) ~slot:Shard.kv_slot in
      Shard.Kv.insert_many h (List.rev kvs))
    per

(* A shard set holding every key: the set-up the kv workloads time. *)
let shards ?file ~mode ~seed () =
  let t = Shard.create ~mode ~persist:Pmalloc.Heap.Full ?file ~nshards () in
  load_shards t (prefill ~seed);
  t

let dump_pairs pairs =
  List.sort (fun (a, _) (b, _) -> String.compare a b) pairs
  |> List.map (fun (k, v) -> k ^ "=" ^ v)
  |> String.concat ";"

let dump_table tbl = dump_pairs (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])
