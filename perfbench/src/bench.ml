(* The repository benchmark's runner: one workload per process.

   bench.exe --workload NAME --seed N --seconds S --trace 0|1

   The last line of standard output is one JSON object:
   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}. *)

(* A metric can only be non-finite when operations failed (no unit ever
   completed); the result then says so through "correct" and "failed". *)
let json_number ~failed name v =
  if Float.is_finite v then Printf.sprintf "%.17g" v
  else if failed > 0 then "0"
  else failwith (Printf.sprintf "metric %s is not finite" name)

let () =
  let workload = ref "" and seed = ref Perfbench.Workloads.default_seed in
  let seconds = ref 10. and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed (default 42)");
      ("--seconds", Arg.Set_float seconds, "S measuring time");
      ("--trace", Arg.Set_int trace, "0|1 per-layer traced run");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload NAME --seed N --seconds S --trace 0|1";
  let open Perfbench in
  if not (List.mem !workload Workloads.names) then
    raise (Arg.Bad ("--workload must be one of " ^ String.concat ", " Workloads.names));
  if !trace <> 0 && !trace <> 1 then raise (Arg.Bad "--trace must be 0 or 1");
  let traced = !trace = 1 in
  let o =
    Workloads.run ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace:traced
  in
  List.iter print_endline o.notes;
  let manifest = if traced then Names.per_layer else Names.end_to_end in
  List.iter
    (fun (m : Names.metric) ->
      Printf.printf "  %-42s %14.6g %s\n" m.name (List.assoc m.name o.metrics) m.unit_)
    manifest;
  let metrics =
    List.map
      (fun (m : Names.metric) ->
        Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" m.name
          (json_number ~failed:o.failed m.name (List.assoc m.name o.metrics))
          m.unit_)
      manifest
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (o.failed = 0 && o.attempted > 0)
    o.attempted o.failed (String.concat ", " metrics)
