(* A measured value with its unit, and the sample count behind it
   (0 where the value is a ratio of counters rather than an order
   statistic). *)

type t = { name : string; unit_ : string; value : float; samples : int }

let v ?(samples = 0) name unit_ value = { name; unit_; value; samples }

(* Ratio of two counts; 0 when nothing was counted. *)
let ratio a b = if b = 0.0 then 0.0 else a /. b

let json_number x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else Printf.sprintf "%.17g" x

let pp_row oc m =
  Printf.fprintf oc "  %-30s %14.6g %-6s%s\n" m.name m.value m.unit_
    (if m.samples > 0 then Printf.sprintf " (n=%d)" m.samples else "")

(* The result line: the last line of stdout, one JSON object. *)
let result_line ~correct ~attempted ~failed metrics =
  let body =
    List.map
      (fun m ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name
          (json_number m.value) m.unit_)
      metrics
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed (String.concat ", " body)
