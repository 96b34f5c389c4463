open Smbm_prelude
open Smbm_core
open Smbm_traffic

(* --- MMPP --- *)

let test_mmpp_off_emits_nothing () =
  let rng = Rng.create ~seed:1 in
  let m =
    Mmpp.create ~rng ~p_on_to_off:0.0 ~p_off_to_on:0.0 ~rate_on:5.0
      ~start_on:false ()
  in
  for _ = 1 to 50 do
    Alcotest.(check int) "silent when off" 0 (Mmpp.step m)
  done

let test_mmpp_always_on_rate () =
  let rng = Rng.create ~seed:2 in
  let m =
    Mmpp.create ~rng ~p_on_to_off:0.0 ~p_off_to_on:1.0 ~rate_on:3.0
      ~start_on:true ()
  in
  let total = ref 0 in
  let slots = 20_000 in
  for _ = 1 to slots do
    total := !total + Mmpp.step m
  done;
  let mean = float_of_int !total /. float_of_int slots in
  Alcotest.(check bool) "mean close to rate" true (abs_float (mean -. 3.0) < 0.1)

let test_mmpp_duty_cycle () =
  let rng = Rng.create ~seed:3 in
  let m = Mmpp.create ~rng ~p_on_to_off:0.1 ~p_off_to_on:0.3 ~rate_on:1.0 () in
  Alcotest.(check (float 1e-9)) "stationary on-probability" 0.75
    (Mmpp.duty_cycle m);
  Alcotest.(check (float 1e-9)) "mean rate" 0.75 (Mmpp.mean_rate m);
  (* Empirical duty cycle over a long run. *)
  let on = ref 0 in
  let slots = 50_000 in
  for _ = 1 to slots do
    ignore (Mmpp.step m);
    if Mmpp.is_on m then incr on
  done;
  let freq = float_of_int !on /. float_of_int slots in
  Alcotest.(check bool) "empirical duty cycle" true (abs_float (freq -. 0.75) < 0.02)

let test_mmpp_validation () =
  let rng = Rng.create ~seed:4 in
  (match Mmpp.create ~rng ~p_on_to_off:1.5 ~p_off_to_on:0.1 ~rate_on:1.0 () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "bad probability accepted");
  match Mmpp.create ~rng ~p_on_to_off:0.1 ~p_off_to_on:0.1 ~rate_on:(-1.0) () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative rate accepted"

(* NaN slips through [p < 0 || p > 1], and a NaN, infinite or huge rate
   used to reach the Poisson draw, which returned 0 or a negative count. *)
let test_mmpp_rejects_non_finite () =
  let rng = Rng.create ~seed:4 in
  let rejects what f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s accepted" what
  in
  let create ?(p_on_to_off = 0.1) ?(p_off_to_on = 0.1) ?(rate_on = 1.0) () =
    ignore (Mmpp.create ~rng ~p_on_to_off ~p_off_to_on ~rate_on ())
  in
  rejects "NaN p_on_to_off" (create ~p_on_to_off:Float.nan);
  rejects "NaN p_off_to_on" (create ~p_off_to_on:Float.nan);
  List.iter
    (fun rate_on -> rejects (Printf.sprintf "rate_on %g" rate_on) (create ~rate_on))
    [ Float.nan; Float.infinity; 1e300 ];
  let batch ?(p_on_to_off = 0.1) ?(mean = 1.0) () =
    ignore
      (Mmpp.create_batch ~rng ~p_on_to_off ~p_off_to_on:0.1
         ~sample:(fun _ -> 1) ~mean ())
  in
  rejects "batch NaN p_on_to_off" (batch ~p_on_to_off:Float.nan);
  rejects "batch NaN mean" (batch ~mean:Float.nan);
  rejects "batch infinite mean" (batch ~mean:Float.infinity)

(* The precomputed Knuth limit changes nothing: an on-slot draws exactly
   what [Rng.poisson] draws from the same stream. *)
let test_mmpp_stream_matches_poisson () =
  List.iter
    (fun rate_on ->
      let m =
        Mmpp.create ~rng:(Rng.create ~seed:9) ~p_on_to_off:0.3 ~p_off_to_on:0.4
          ~rate_on ~start_on:true ()
      in
      let rng = Rng.create ~seed:9 and on = ref true in
      for _ = 1 to 2_000 do
        let p = if !on then 0.3 else 0.4 in
        if Rng.bernoulli rng ~p then on := not !on;
        let want = if !on then Rng.poisson rng ~lambda:rate_on else 0 in
        Alcotest.(check int) (Printf.sprintf "rate %g" rate_on) want (Mmpp.step m)
      done)
    [ 0.7; 12.0; 45.0 ]

(* --- Labels --- *)

(* One label drawn through the batch path, read back as an arrival. *)
let draw label rng =
  let b = Arrival_batch.create ~capacity:1 () in
  Label.push label rng b;
  Arrival.make ~dest:(Arrival_batch.dest b 0) ~value:(Arrival_batch.value b 0) ()

let test_uniform_port_label () =
  let rng = Rng.create ~seed:5 in
  let label = Label.uniform_port ~n:4 in
  let seen = Array.make 4 false in
  for _ = 1 to 500 do
    let a = draw label rng in
    Alcotest.(check int) "unit value" 1 a.Arrival.value;
    seen.(a.Arrival.dest) <- true
  done;
  Alcotest.(check bool) "all ports seen" true (Array.for_all Fun.id seen)

let test_value_equals_port_label () =
  let rng = Rng.create ~seed:6 in
  let label = Label.value_equals_port ~n:5 in
  for _ = 1 to 200 do
    let a = draw label rng in
    Alcotest.(check int) "value is port + 1" (a.Arrival.dest + 1)
      a.Arrival.value
  done

let test_uniform_port_and_value_label () =
  let rng = Rng.create ~seed:7 in
  let label = Label.uniform_port_and_value ~n:3 ~k:6 in
  for _ = 1 to 200 do
    let a = draw label rng in
    if a.Arrival.dest < 0 || a.Arrival.dest >= 3 then Alcotest.fail "bad dest";
    if a.Arrival.value < 1 || a.Arrival.value > 6 then Alcotest.fail "bad value"
  done

(* Labels are written straight into the batch; the draws are the ones the
   former [Rng.t -> Arrival.t] closures made, destination before value. *)
let test_label_draw_order () =
  let check name label reference =
    let a = Rng.create ~seed:12 and b = Rng.create ~seed:12 in
    let batch = Arrival_batch.create () in
    for _ = 1 to 500 do
      Label.push label a batch
    done;
    for i = 0 to 499 do
      let dest, value = reference b in
      Alcotest.(check (pair int int))
        (Printf.sprintf "%s #%d" name i)
        (dest, value)
        (Arrival_batch.dest batch i, Arrival_batch.value batch i)
    done
  in
  check "uniform port" (Label.uniform_port ~n:5) (fun r -> (Rng.int r 5, 1));
  check "uniform port and value" (Label.uniform_port_and_value ~n:5 ~k:9)
    (fun r ->
      let dest = Rng.int r 5 in
      (dest, Rng.int_in r 1 9));
  check "value equals port" (Label.value_equals_port ~n:7) (fun r ->
      let dest = Rng.int r 7 in
      (dest, dest + 1));
  check "fixed port" (Label.fixed_port ~dest:3 ~value:4 ()) (fun _ -> (3, 4));
  check "weighted port"
    (Label.weighted_port ~weights:[| 1.0; 0.0; 2.0 |]
       ~value_of_port:(fun i -> 10 + i) ())
    (fun r ->
      let dest = Rng.weighted r [| 1.0; 0.0; 2.0 |] ~total:3.0 in
      (dest, 10 + dest))

let test_label_rejects_bad_values () =
  (match Label.fixed_port ~dest:0 ~value:0 () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "fixed value 0 accepted");
  let label = Label.weighted_port ~weights:[| 1.0 |] ~value_of_port:(fun _ -> 0) () in
  match draw label (Rng.create ~seed:1) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "weighted value 0 accepted"

let test_weighted_port_label () =
  let rng = Rng.create ~seed:8 in
  let label = Label.weighted_port ~weights:[| 0.0; 1.0; 3.0 |] () in
  let counts = Array.make 3 0 in
  for _ = 1 to 8_000 do
    let a = draw label rng in
    counts.(a.Arrival.dest) <- counts.(a.Arrival.dest) + 1
  done;
  Alcotest.(check int) "zero-weight port unused" 0 counts.(0);
  let frac = float_of_int counts.(2) /. 8000.0 in
  Alcotest.(check bool) "weights respected" true (abs_float (frac -. 0.75) < 0.03);
  match Label.weighted_port ~weights:[| 0.0 |] () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "all-zero weights accepted"

(* --- Workload --- *)

let test_workload_of_slots () =
  let a0 = Arrival.make ~dest:0 () and a1 = Arrival.make ~dest:1 () in
  let w = Workload.of_slots [| [ a0 ]; []; [ a1; a0 ] |] in
  Alcotest.(check int) "slot 0 size" 1 (List.length (Workload.next w));
  Alcotest.(check int) "slot 1 empty" 0 (List.length (Workload.next w));
  Alcotest.(check int) "slot 2 size" 2 (List.length (Workload.next w));
  Alcotest.(check int) "beyond end" 0 (List.length (Workload.next w));
  Alcotest.(check int) "slot counter" 4 (Workload.slot w)

let test_workload_of_fun () =
  let w =
    Workload.of_fun (fun slot -> List.init slot (fun _ -> Arrival.make ~dest:0 ()))
  in
  Alcotest.(check int) "slot 0" 0 (List.length (Workload.next w));
  Alcotest.(check int) "slot 1" 1 (List.length (Workload.next w));
  Alcotest.(check int) "slot 2" 2 (List.length (Workload.next w))

let test_workload_of_sources_deterministic () =
  let build seed =
    let rng = Rng.create ~seed in
    Scenario.sources
      ~mmpp:{ Scenario.sources = 10; p_on_to_off = 0.2; p_off_to_on = 0.2 }
      ~label:(Label.uniform_port ~n:3) ~rate_per_source:0.5 ~rng
    |> Workload.of_sources
  in
  let w1 = build 99 and w2 = build 99 in
  for _ = 1 to 200 do
    let a1 = Workload.next w1 and a2 = Workload.next w2 in
    if not (List.equal Arrival.equal a1 a2) then
      Alcotest.fail "same seed produced different traffic"
  done

let test_workload_merge () =
  let a = Workload.of_slots [| [ Arrival.make ~dest:0 () ]; [] |] in
  let b =
    Workload.of_fun (fun _ -> [ Arrival.make ~dest:1 (); Arrival.make ~dest:2 () ])
  in
  let m = Workload.merge [ a; b ] in
  let slot0 = Workload.next m in
  Alcotest.(check (list int)) "superposition, order preserved" [ 0; 1; 2 ]
    (List.map (fun (x : Arrival.t) -> x.dest) slot0);
  Alcotest.(check int) "second slot" 2 (List.length (Workload.next m));
  Alcotest.(check bool) "rate unknown when a component's is" true
    (Workload.mean_rate m = None)

let test_workload_merge_rates () =
  let mk rate =
    let rng = Rng.create ~seed:1 in
    Scenario.sources
      ~mmpp:{ Scenario.sources = 4; p_on_to_off = 0.0; p_off_to_on = 1.0 }
      ~label:(Label.uniform_port ~n:2) ~rate_per_source:rate ~rng
    |> Workload.of_sources
  in
  match Workload.mean_rate (Workload.merge [ mk 0.5; mk 0.25 ]) with
  | Some r -> Alcotest.(check (float 1e-9)) "rates add" 3.0 r
  | None -> Alcotest.fail "merged rate lost"

let test_workload_map_and_take () =
  let w =
    Workload.of_fun (fun _ -> [ Arrival.make ~dest:0 ~value:1 () ])
    |> Workload.map (fun (a : Arrival.t) ->
           Arrival.make ~dest:(a.dest + 1) ~value:(a.value * 5) ())
    |> Workload.take 2
  in
  let slot0 = Workload.next w in
  (match slot0 with
  | [ a ] ->
    Alcotest.(check int) "dest remapped" 1 a.Arrival.dest;
    Alcotest.(check int) "value rescaled" 5 a.Arrival.value
  | _ -> Alcotest.fail "unexpected arrivals");
  ignore (Workload.next w);
  Alcotest.(check int) "empty after take" 0 (List.length (Workload.next w))

(* --- Trace --- *)

let test_trace_record_replay () =
  let w =
    Workload.of_fun (fun slot ->
        if slot mod 2 = 0 then [ Arrival.make ~dest:(slot mod 3) ~value:2 () ]
        else [])
  in
  let trace = Trace.record w ~slots:10 in
  Alcotest.(check int) "slots" 10 (Trace.slots trace);
  Alcotest.(check int) "arrivals" 5 (Trace.arrivals trace);
  let replay = Trace.to_workload trace in
  for slot = 0 to 9 do
    let expected = Trace.get trace slot in
    if not (List.equal Arrival.equal expected (Workload.next replay)) then
      Alcotest.fail "replay diverged"
  done;
  Alcotest.(check int) "replay beyond end" 0 (List.length (Workload.next replay))

let test_trace_save_load_roundtrip () =
  let trace =
    Trace.of_slots
      [|
        [ Arrival.make ~dest:0 ~value:3 (); Arrival.make ~dest:2 () ];
        [];
        [ Arrival.make ~dest:1 ~value:7 () ];
      |]
  in
  let path = Filename.temp_file "smbm_trace" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      Trace.save trace oc;
      close_out oc;
      let ic = open_in path in
      let loaded = Trace.load ic in
      close_in ic;
      Alcotest.(check bool) "roundtrip" true (Trace.equal trace loaded))

let test_trace_load_rejects_garbage () =
  let path = Filename.temp_file "smbm_trace" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc "0:1 junk\n";
      close_out oc;
      let ic = open_in path in
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () ->
          match Trace.load ic with
          | exception Failure _ -> ()
          | _ -> Alcotest.fail "garbage accepted"))

(* --- Scenario --- *)

let test_scenario_rate_calibration () =
  (* A proc workload built for a given load must deliver approximately
     load * n * C / mean_work packets per slot in the long run. *)
  let config = Proc_config.contiguous ~k:8 ~buffer:32 () in
  let w =
    Scenario.proc_workload
      ~mmpp:{ Scenario.default_mmpp with sources = 100 }
      ~config ~load:2.0 ~seed:7 ()
  in
  let expected = 2.0 *. 8.0 /. 4.5 in
  (match Workload.mean_rate w with
  | Some r -> Alcotest.(check (float 1e-6)) "declared mean rate" expected r
  | None -> Alcotest.fail "source workload must know its rate");
  let slots = 30_000 in
  let total = ref 0 in
  for _ = 1 to slots do
    total := !total + List.length (Workload.next w)
  done;
  let mean = float_of_int !total /. float_of_int slots in
  Alcotest.(check bool) "empirical rate near declared" true
    (abs_float (mean -. expected) /. expected < 0.1)

let test_scenario_value_port_labels () =
  let config = Value_config.make ~ports:6 ~max_value:6 ~buffer:24 () in
  let w = Scenario.value_port_workload ~config ~load:1.0 ~seed:3 () in
  for _ = 1 to 500 do
    List.iter
      (fun (a : Arrival.t) ->
        if a.value <> a.dest + 1 then Alcotest.fail "value must equal port + 1")
      (Workload.next w)
  done

let test_scenario_value_port_requires_n_le_k () =
  let config = Value_config.make ~ports:6 ~max_value:3 ~buffer:24 () in
  match Scenario.value_port_workload ~config ~load:1.0 ~seed:3 () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "n > k accepted"

(* The paper's 500-source proc point: after warm-up a slot of live
   generation allocates nothing (the batch only grows when a slot beats
   every earlier one). *)
let test_generation_allocation_free () =
  let config = Proc_config.contiguous ~k:16 ~buffer:64 () in
  let w = Scenario.proc_workload ~config ~load:2.0 ~seed:9 () in
  let batch = Arrival_batch.create () in
  for _ = 1 to 2_000 do
    Workload.next_into w batch
  done;
  let slots = 5_000 in
  let words = Alloc.words_per_call ~n:slots (fun () -> Workload.next_into w batch) in
  Alcotest.(check bool)
    (Printf.sprintf "%.3f minor words per slot" words)
    true (words <= 1.0)

let test_port_values () =
  let config = Value_config.make ~ports:4 ~max_value:4 ~buffer:8 () in
  Alcotest.(check (list int)) "identity assignment" [ 1; 2; 3; 4 ]
    (Array.to_list (Scenario.port_values config))

let suite =
  [
    Alcotest.test_case "MMPP off emits nothing" `Quick test_mmpp_off_emits_nothing;
    Alcotest.test_case "MMPP always-on rate" `Quick test_mmpp_always_on_rate;
    Alcotest.test_case "MMPP duty cycle" `Quick test_mmpp_duty_cycle;
    Alcotest.test_case "MMPP validation" `Quick test_mmpp_validation;
    Alcotest.test_case "MMPP rejects non-finite parameters" `Quick
      test_mmpp_rejects_non_finite;
    Alcotest.test_case "MMPP stream matches Rng.poisson" `Quick
      test_mmpp_stream_matches_poisson;
    Alcotest.test_case "label draw order" `Quick test_label_draw_order;
    Alcotest.test_case "label rejects bad values" `Quick
      test_label_rejects_bad_values;
    Alcotest.test_case "uniform port label" `Quick test_uniform_port_label;
    Alcotest.test_case "value-equals-port label" `Quick
      test_value_equals_port_label;
    Alcotest.test_case "uniform port and value label" `Quick
      test_uniform_port_and_value_label;
    Alcotest.test_case "weighted port label" `Quick test_weighted_port_label;
    Alcotest.test_case "workload of slots" `Quick test_workload_of_slots;
    Alcotest.test_case "workload of function" `Quick test_workload_of_fun;
    Alcotest.test_case "source workload determinism" `Quick
      test_workload_of_sources_deterministic;
    Alcotest.test_case "workload merge" `Quick test_workload_merge;
    Alcotest.test_case "merged rates add" `Quick test_workload_merge_rates;
    Alcotest.test_case "workload map and take" `Quick
      test_workload_map_and_take;
    Alcotest.test_case "trace record and replay" `Quick test_trace_record_replay;
    Alcotest.test_case "trace save/load roundtrip" `Quick
      test_trace_save_load_roundtrip;
    Alcotest.test_case "trace load rejects garbage" `Quick
      test_trace_load_rejects_garbage;
    Alcotest.test_case "scenario rate calibration" `Quick
      test_scenario_rate_calibration;
    Alcotest.test_case "value-port scenario labels" `Quick
      test_scenario_value_port_labels;
    Alcotest.test_case "value-port scenario validation" `Quick
      test_scenario_value_port_requires_n_le_k;
    Alcotest.test_case "generation allocation-free" `Quick
      test_generation_allocation_free;
    Alcotest.test_case "port values" `Quick test_port_values;
  ]
