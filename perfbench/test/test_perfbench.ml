open Perfbench
open Smbm_sim

(* One operation of each workload with the default seed, untraced then
   traced: every digest must equal the pinned one, so this checks the pins
   and probe transparency on the real run path at once. *)
let pinned_and_transparent workload () =
  let o = Workloads.run ~workload ~seed:Workloads.default_seed ~seconds:0. ~trace:true in
  List.iter print_endline o.notes;
  Alcotest.(check bool) "ran operations" true (o.attempted >= 2);
  Alcotest.(check int) "failed operations" 0 o.failed

let pins_cover_every_workload () =
  List.iter
    (fun w ->
      Alcotest.(check bool) (w ^ " has pins") true
        (List.exists (fun ((w', _), _) -> w = w') Pinned.table))
    Workloads.names

(* Wrapped and unwrapped instances give bit-identical metrics on a short
   run of each model. *)
let wrapper_transparent model () =
  let base = Workloads.base ~seed:7 ~slots:3_000 in
  let plain = Workloads.sweep_point_digest ~model ~base ~traced:false in
  let traced = Workloads.sweep_point_digest ~model ~base ~traced:true in
  Alcotest.(check string) "digest" plain traced

let paper_scale () =
  let b = Workloads.base ~seed:1 ~slots:10 in
  Alcotest.(check (list int)) "k, B, C, sources, flush"
    [ 16; 64; 1; 500; 2_500 ]
    [ b.k; b.buffer; b.speedup; b.mmpp.sources; Option.get b.flush_every ];
  Alcotest.(check (float 0.)) "load" 2.0 b.load

let names_and_caps () =
  let all = Names.end_to_end @ Names.per_layer in
  List.iter
    (fun (m : Names.metric) ->
      Alcotest.(check bool) ("valid name " ^ m.name) true (Names.valid_name m.name))
    all;
  Alcotest.(check bool) "end-to-end cap" true (List.length Names.end_to_end <= 16);
  Alcotest.(check bool) "per-layer cap" true (List.length Names.per_layer <= 128);
  let names = List.map (fun (m : Names.metric) -> m.name) all in
  Alcotest.(check int) "unique" (List.length names)
    (List.length (List.sort_uniq compare names));
  Alcotest.(check bool) "setup_s present" true (List.mem "setup_s" names);
  Alcotest.(check bool) "rejects bad names" false
    (List.exists Names.valid_name [ ""; "_x"; "a b"; "a/b"; String.make 65 'a' ])

let () =
  Alcotest.run "perfbench"
    [
      ( "digests",
        List.map
          (fun w -> Alcotest.test_case w `Slow (pinned_and_transparent w))
          Workloads.names
        @ [ Alcotest.test_case "pins cover every workload" `Quick pins_cover_every_workload ] );
      ( "probes",
        [
          Alcotest.test_case "proc wrapper transparent" `Quick (wrapper_transparent Sweep.Proc);
          Alcotest.test_case "value-uniform wrapper transparent" `Quick
            (wrapper_transparent Sweep.Value_uniform);
          Alcotest.test_case "value-port wrapper transparent" `Quick
            (wrapper_transparent Sweep.Value_port);
        ] );
      ( "manifest",
        [
          Alcotest.test_case "paper scale" `Quick paper_scale;
          Alcotest.test_case "names and caps" `Quick names_and_caps;
        ] );
    ]
