(* The benchmark's own tests: the counted metrics repeat exactly for a
   seed, the simulated-time identity holds, the output checks pass on
   the program as it is and fire on a corrupted one (negative
   controls). *)

open Perfbench

let work =
  let d = "selftest_work" in
  if not (Sys.file_exists d) then Sys.mkdir d 0o755;
  d

let kv_cfg ?(check_gets = true) ?(inject_fault = false) ~file ~det_ops seed =
  {
    Kvloop.label = "kv";
    seed;
    seconds = 0.0;
    file;
    det_ops;
    check_gets;
    spans = None;
    inject_fault;
  }

let kv_run ?check_gets ?inject_fault ?file ~det_ops seed =
  let t = Kvloop.setup ~seed ~file in
  let o = Kvloop.run (kv_cfg ?check_gets ?inject_fault ~file ~det_ops seed) t in
  Kvloop.teardown t;
  o

let det_key (o : Kvloop.outcome) =
  let d = o.Kvloop.det in
  let c = d.Kvloop.d_counters in
  ( d.Kvloop.d_sim_ns,
    d.Kvloop.d_minor_words,
    c.Counters.clwbs,
    c.Counters.file_fsyncs,
    d.Kvloop.d_written_bytes,
    c.Counters.live_words )

let test_kv_mem_repeats () =
  let a = kv_run ~det_ops:600 7 and b = kv_run ~det_ops:600 7 in
  Alcotest.(check bool) "same counted metrics" true (det_key a = det_key b);
  Alcotest.(check int) "no failed op" 0 (a.Kvloop.failed + b.Kvloop.failed)

let test_kv_durable_repeats () =
  let file = Filename.concat work "kv" in
  let a = kv_run ~file ~det_ops:150 7 and b = kv_run ~file ~det_ops:150 7 in
  Alcotest.(check bool) "same counted metrics" true (det_key a = det_key b);
  let _, _, _, fsyncs, written, _ = det_key a in
  Alcotest.(check bool) "fsyncs and file bytes counted" true (fsyncs > 0 && written > 0);
  Alcotest.(check int) "no failed op" 0 (a.Kvloop.failed + b.Kvloop.failed)

(* All simulated time is spent inside requests: the per-request deltas
   add up to the shards' clock deltas, and reading a get's answer back
   for the check leaves the clocks untouched. *)
let test_sim_identity () =
  let o = kv_run ~det_ops:600 11 in
  let d = o.Kvloop.det in
  Alcotest.(check (float 0.0)) "requests' sim ns = shards' now_ns deltas"
    d.Kvloop.d_sim_ns d.Kvloop.d_req_sim_ns;
  let unchecked = kv_run ~check_gets:false ~det_ops:600 11 in
  Alcotest.(check bool) "the get check does not move the counted metrics" true
    (det_key o = det_key unchecked)

let test_kv_negative_control () =
  let o = kv_run ~inject_fault:true ~det_ops:300 5 in
  Alcotest.(check bool) "corrupted words are reported as failed ops" true
    (o.Kvloop.failed > 0)

let test_domains () =
  let run ~inject_fault = Domains.run ~seed:3 ~seconds:0.0 ~min_bursts:2 ~inject_fault in
  let o = run ~inject_fault:false in
  Alcotest.(check int) "every burst matches the Inline run" 0 o.Domains.failed;
  let d = o.Domains.det and d' = (run ~inject_fault:false).Domains.det in
  Alcotest.(check bool) "same sim ns, clwbs and live words" true
    ((d.Domains.sim_ns, d.Domains.clwbs, d.Domains.live_words)
    = (d'.Domains.sim_ns, d'.Domains.clwbs, d'.Domains.live_words));
  let c = run ~inject_fault:true in
  Alcotest.(check bool) "negative control fires" true (c.Domains.failed > 0)

let test_reopen () =
  let img = Reopen.build ~seed:9 ~path:(Filename.concat work "image") in
  let copy = Filename.concat work "trial" in
  let a = Reopen.trial img ~copy ~id:0 and b = Reopen.trial img ~copy ~id:1 in
  Alcotest.(check (option string)) "trial recovers every acknowledged pair" None
    a.Reopen.failure;
  Alcotest.(check bool) "the committed journal was replayed" true (a.Reopen.replayed_lines > 0);
  Alcotest.(check bool) "same sim ns and bytes written" true
    ((a.Reopen.sim_ns, a.Reopen.written_bytes) = (b.Reopen.sim_ns, b.Reopen.written_bytes));
  let bad = Reopen.trial ~inject_fault:true img ~copy ~id:2 in
  Alcotest.(check bool) "corrupting the reopened copy fails the check" true
    (bad.Reopen.failure <> None);
  Reopen.remove_image img.Reopen.path

let () =
  Alcotest.run "perfbench"
    [
      ( "counted metrics",
        [
          Alcotest.test_case "kv-mem repeats for a seed" `Quick test_kv_mem_repeats;
          Alcotest.test_case "kv-durable repeats for a seed" `Quick test_kv_durable_repeats;
          Alcotest.test_case "sim ns identity" `Quick test_sim_identity;
        ] );
      ( "output checks",
        [
          Alcotest.test_case "kv-mem negative control" `Quick test_kv_negative_control;
          (* before kv-domains: the image builder forks, which OCaml
             forbids once a domain has been spawned *)
          Alcotest.test_case "reopen" `Quick test_reopen;
          Alcotest.test_case "kv-domains" `Quick test_domains;
        ] );
    ]
