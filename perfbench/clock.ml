(* Wall clock and process counters read from outside the measured
   program. *)

external now_ns : unit -> int = "perfbench_now_ns" [@@noalloc]
(** Monotonic clock, nanoseconds. *)

(* Clock-read cost, subtracted from per-call primitive timings that
   bracket one call with two reads. *)
let overhead_ns () =
  let n = 20_000 in
  let best = ref max_int in
  for _ = 1 to 5 do
    let t0 = now_ns () in
    for _ = 1 to n do
      ignore (now_ns () : int)
    done;
    best := min !best (now_ns () - t0)
  done;
  float_of_int !best /. float_of_int n

(* Bytes this process has passed to write(2) and friends ([wchar] of
   /proc/self/io): the backing file's journal and image writes, counted
   without looking inside the backend. *)
let written_bytes () =
  let ic = open_in "/proc/self/io" in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec scan () =
        match input_line ic with
        | line when String.length line > 7 && String.sub line 0 7 = "wchar: " ->
            int_of_string (String.trim (String.sub line 7 (String.length line - 7)))
        | _ -> scan ()
        | exception End_of_file -> failwith "/proc/self/io has no wchar line"
      in
      scan ())

let minor_words_all_domains () = (Gc.quick_stat ()).Gc.minor_words
