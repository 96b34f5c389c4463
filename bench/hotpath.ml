(* Admission hot-path throughput: arrivals/sec per push-out policy with the
   buffer held at capacity — every arrival exercises victim selection — for
   three arms:

   - [scan]: the policy's [~impl:`Scan] oracle, the original O(n) rescans,
     through the per-packet [admit] loop;
   - [flat]: the production policy (O(log n) incremental indexes over the
     switch's struct-of-arrays columns) through the same per-packet loop;
   - [fused]: the production policy's [admit_batch] kernel over
     1024-arrival batches — the whole-batch path the engines take for
     untraced runs.

     dune exec bench/hotpath.exe -- [--arrivals N] [--repeats R] [--out FILE]

   Emits one gauge per (model, policy, n, arm) plus three ratios —
   flat/scan under .../speedup, fused/flat under .../fused/speedup (the
   marginal value of batch fusion alone) and fused/scan under
   .../fused/total (the whole production stack against the scan oracle) —
   all auto-gated by bench-diff, as JSONL (Smbm_obs.Registry) to FILE.  The
   committed repo-root BENCH_hotpath.json is this file at the default
   scale; CI regenerates it at reduced scale and diffs the ratios with
   `smbm_cli bench-diff` (ratios, unlike raw arrivals/sec, transfer
   between machines).

   All arms see the identical arrival stream (a private LCG, fixed seed)
   and make bit-identical decisions — the oracle and lockstep suites prove
   that — so the ratios isolate selection cost.  The admission loop runs
   through the policy layer, whose decision arithmetic is shared by all
   arms, so these are diluted end-to-end numbers. *)

open Smbm_core

let arrivals = ref 100_000
let repeats = ref 5
let out = ref "BENCH_hotpath.json"

let () =
  Arg.parse
    [
      ("--arrivals", Arg.Set_int arrivals, "N  admissions per timed batch");
      ( "--repeats",
        Arg.Set_int repeats,
        "R  timed batches per cell (the best rate is kept)" );
      ("--out", Arg.Set_string out, "FILE  JSONL output path");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "hotpath [--arrivals N] [--repeats R] [--out FILE]"

let sizes = [ 16; 64; 256 ]

(* Deterministic per-run arrival stream; both impls replay the same one. *)
let lcg seed =
  let s = ref seed in
  fun bound ->
    s := ((!s * 1103515245) + 12345) land 0x3FFFFFFF;
    !s mod bound

(* --- processing model --- *)

(* Compact the heap, warm up untimed, then time [!repeats] batches of
   [!arrivals] admissions and keep the best rate — the compaction gives
   every cell the same heap shape regardless of which cells ran before it,
   and best-of filters GC pauses and scheduler noise out of the short, fast
   cells.  Together they make the emitted speedup ratios stable enough to
   gate CI on. *)
let best_of ~batch =
  Gc.compact ();
  batch ~count:(!arrivals / 10);
  let best = ref 0.0 in
  for _ = 1 to !repeats do
    let _, span =
      Smbm_obs.Span.timed "batch" (fun () -> batch ~count:!arrivals)
    in
    let rate = float_of_int !arrivals /. span.Smbm_obs.Span.wall in
    if rate > !best then best := rate
  done;
  !best

let run_proc ~n ~impl mk =
  let config = Proc_config.contiguous ~k:n ~buffer:(4 * n) () in
  let policy = mk impl config in
  let sw = Proc_switch.create config in
  let next = lcg 0x5eed in
  let fill () =
    while not (Proc_switch.is_full sw) do
      Proc_switch.accept_unit sw ~dest:(next n)
    done
  in
  fill ();
  best_of ~batch:(fun ~count ->
      for i = 1 to count do
        let dest = next n in
        (match Proc_policy.admit policy sw ~dest with
        | Decision.Accept -> Proc_switch.accept_unit sw ~dest
        | Decision.Push_out { victim } ->
          Proc_switch.push_out_unit sw ~victim;
          Proc_switch.accept_unit sw ~dest
        | Decision.Drop -> ());
        if i land 1023 = 0 then begin
          ignore
            (Proc_switch.transmit_phase_fields sw
               ~on_transmit:(fun ~dest:_ ~arrival:_ -> ()));
          fill ()
        end
      done)

(* Fused arm: the same full-buffer admission load, but offered as whole
   [Arrival_batch]es through the policy's [admit_batch]
   kernel — the path the engines take for untraced runs.  Batch assembly
   (LCG draw + column write per arrival) is inside the timed region, so the
   fused/flat ratio is an honest end-to-end comparison against the
   per-packet loop above. *)
let batch_len = 1024

let run_proc_fused ~n mk =
  let config = Proc_config.contiguous ~k:n ~buffer:(4 * n) () in
  let policy = mk None config in
  match Proc_policy.admit_batch policy with
  | None -> nan
  | Some kernel ->
    let sw = Proc_switch.create config in
    let next = lcg 0x5eed in
    let fill () =
      while not (Proc_switch.is_full sw) do
        Proc_switch.accept_unit sw ~dest:(next n)
      done
    in
    fill ();
    let batch = Arrival_batch.create ~capacity:batch_len () in
    let counters = Admission.counters () in
    best_of ~batch:(fun ~count ->
        let remaining = ref count in
        while !remaining > 0 do
          let len = min batch_len !remaining in
          Arrival_batch.clear batch;
          for _ = 1 to len do
            Arrival_batch.push batch ~dest:(next n) ~value:1
          done;
          Admission.reset counters;
          kernel sw batch counters;
          ignore
            (Proc_switch.transmit_phase_fields sw
               ~on_transmit:(fun ~dest:_ ~arrival:_ -> ()));
          fill ();
          remaining := !remaining - len
        done)

(* --- value model --- *)

let run_value ~n ~impl mk =
  let config = Value_config.make ~ports:n ~max_value:16 ~buffer:(4 * n) () in
  let policy = mk impl config in
  let sw = Value_switch.create config in
  let next = lcg 0x5eed in
  let fill () =
    while not (Value_switch.is_full sw) do
      Value_switch.accept_unit sw ~dest:(next n) ~value:(next 16 + 1)
    done
  in
  fill ();
  best_of ~batch:(fun ~count ->
      for i = 1 to count do
        let dest = next n and value = next 16 + 1 in
        (match Value_policy.admit policy sw ~dest ~value with
        | Decision.Accept -> Value_switch.accept_unit sw ~dest ~value
        | Decision.Push_out { victim } ->
          ignore (Value_switch.push_out_lost sw ~victim : int);
          Value_switch.accept_unit sw ~dest ~value
        | Decision.Drop -> ());
        if i land 1023 = 0 then begin
          ignore
            (Value_switch.transmit_phase_fields sw
               ~on_transmit:(fun ~dest:_ ~value:_ ~arrival:_ -> ()));
          fill ()
        end
      done)

let run_value_fused ~n mk =
  let config = Value_config.make ~ports:n ~max_value:16 ~buffer:(4 * n) () in
  let policy = mk None config in
  match Value_policy.admit_batch policy with
  | None -> nan
  | Some kernel ->
    let sw = Value_switch.create config in
    let next = lcg 0x5eed in
    let fill () =
      while not (Value_switch.is_full sw) do
        Value_switch.accept_unit sw ~dest:(next n) ~value:(next 16 + 1)
      done
    in
    fill ();
    let batch = Arrival_batch.create ~capacity:batch_len () in
    let counters = Admission.counters () in
    best_of ~batch:(fun ~count ->
        let remaining = ref count in
        while !remaining > 0 do
          let len = min batch_len !remaining in
          Arrival_batch.clear batch;
          for _ = 1 to len do
            Arrival_batch.push batch ~dest:(next n) ~value:(next 16 + 1)
          done;
          Admission.reset counters;
          kernel sw batch counters;
          ignore
            (Value_switch.transmit_phase_fields sw
               ~on_transmit:(fun ~dest:_ ~value:_ ~arrival:_ -> ()));
          fill ();
          remaining := !remaining - len
        done)

let proc_policies =
  [
    ("LQD", fun impl c -> P_lqd.make ?impl c);
    ("LWD", fun impl c -> P_lwd.make ?impl c);
    ("BPD", fun impl c -> P_bpd.make ?impl c);
    ("RSV2", fun impl c -> P_reserved.make ~reserve:2 ?impl c);
  ]

let value_policies =
  [
    ("LQD", fun impl c -> V_lqd.make ?impl c);
    ("MVD", fun impl c -> V_mvd.make ?impl c);
    ("MRD", fun impl c -> V_mrd.make ?impl c);
  ]

let () =
  let reg = Smbm_obs.Registry.create () in
  let record ~model ~name ~n ~rate_scan ~rate_flat ~rate_fused =
    let base = Printf.sprintf "hotpath/%s/%s/n%d" model name n in
    let gauge suffix v =
      Smbm_obs.Registry.set (Smbm_obs.Registry.gauge reg (base ^ suffix)) v
    in
    gauge "/scan" rate_scan;
    gauge "/flat" rate_flat;
    gauge "/fused" rate_fused;
    gauge "/speedup" (rate_flat /. rate_scan);
    gauge "/fused/speedup" (rate_fused /. rate_flat);
    gauge "/fused/total" (rate_fused /. rate_scan);
    Printf.printf
      "%-28s scan %10.0f/s   flat %10.0f/s (%.2fx)   fused %10.0f/s (%.2fx, \
       total %.2fx)\n\
       %!"
      base rate_scan rate_flat
      (rate_flat /. rate_scan)
      rate_fused
      (rate_fused /. rate_flat)
      (rate_fused /. rate_scan)
  in
  List.iter
    (fun n ->
      List.iter
        (fun (name, mk) ->
          let rate_scan = run_proc ~n ~impl:(Some `Scan) mk in
          let rate_flat = run_proc ~n ~impl:None mk in
          let rate_fused = run_proc_fused ~n mk in
          record ~model:"proc" ~name ~n ~rate_scan ~rate_flat ~rate_fused)
        proc_policies;
      List.iter
        (fun (name, mk) ->
          let rate_scan = run_value ~n ~impl:(Some `Scan) mk in
          let rate_flat = run_value ~n ~impl:None mk in
          let rate_fused = run_value_fused ~n mk in
          record ~model:"value" ~name ~n ~rate_scan ~rate_flat ~rate_fused)
        value_policies)
    sizes;
  let oc = open_out !out in
  List.iter
    (fun line -> output_string oc (line ^ "\n"))
    (Smbm_obs.Registry.to_jsonl
       ~labels:[ ("arrivals", string_of_int !arrivals) ]
       reg);
  close_out oc;
  Printf.printf "wrote %s\n" !out
