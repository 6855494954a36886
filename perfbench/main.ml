(* Command line of the benchmark: one workload, one seed, one run.
   Prints a report, then the result line (JSON) as the last line. *)

open Perfbench

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let dir = ref "" and spans = ref "" and inject = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " " ^ String.concat "|" Runner.workloads);
      ("--seed", Arg.Set_int seed, " input seed");
      ("--seconds", Arg.Set_float seconds, " measured time");
      ("--trace", Arg.Set_int trace, " 0: end-to-end metrics, 1: traced per-layer run");
      ("--dir", Arg.Set_string dir, " scratch directory for image files");
      ("--spans", Arg.Set_string spans, " where the traced run writes its spans (JSON lines)");
      ("--inject-fault", Arg.Set inject, " negative control: corrupt PM words mid-run");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload W --seed N --seconds S --trace 0|1 --dir D";
  if not (List.mem !workload Runner.workloads) then begin
    prerr_endline ("unknown workload: " ^ !workload);
    exit 2
  end;
  if !dir = "" || not (Sys.file_exists !dir) then begin
    prerr_endline "--dir must name an existing directory";
    exit 2
  end;
  let r =
    if !trace = 1 then
      Runner.traced ~workload:!workload ~seed:!seed ~seconds:!seconds ~dir:!dir
        ~spans_path:(if !spans = "" then Filename.concat !dir "spans.jsonl" else !spans)
    else
      Runner.untraced ~inject_fault:!inject ~workload:!workload ~seed:!seed
        ~seconds:!seconds ~dir:!dir ()
  in
  Printf.printf "workload %s, seed %d, flush policy Full, %d shards, trace %d\n"
    !workload !seed Gen.nshards !trace;
  List.iter (Metric.pp_row stdout) r.Runner.report;
  List.iter (Printf.printf "  %s\n") r.Runner.notes;
  Option.iter (Printf.printf "  first failure: %s\n") r.Runner.first_failure;
  print_endline
    (Metric.result_line ~correct:r.Runner.correct ~attempted:r.Runner.attempted
       ~failed:r.Runner.failed r.Runner.metrics)
