(* Minor-heap words allocated per call of [f], averaged over [n] calls
   after one warm-up call.  The tests compile in the dev profile, where
   every library is opaque to its callers, so a zero here holds without
   any cross-module inlining. *)
let words_per_call ?(n = 10_000) f =
  f ();
  let w0 = Gc.minor_words () in
  for _ = 1 to n do
    f ()
  done;
  (Gc.minor_words () -. w0) /. float_of_int n

(* Below 0.01 word per call: anything that allocates per call reads >= 1. *)
let check_free name f =
  let w = words_per_call f in
  Alcotest.(check bool)
    (Printf.sprintf "%s allocates nothing (%.3f words/call)" name w)
    true (w < 0.01)

(* ----- the admission hot path allocates nothing ----- *)

open Smbm_core

(* Deterministic private arrival stream. *)
let lcg seed =
  let s = ref seed in
  fun bound ->
    s := ((!s * 1103515245) + 12345) land 0x3FFFFFFF;
    !s mod bound

(* One step on a warmed, full switch: a transmission phase, a refill back
   to full, then an 8-arrival batch through the policy's fused kernel — the
   path the engines take for untraced runs.  Every step keeps the buffer
   full, so the batch exercises victim selection and push-outs; the test
   also checks that push-outs actually happened. *)
let proc_push_out (name, mk) () =
  let config = Proc_config.contiguous ~k:4 ~buffer:16 () in
  let policy : Proc_policy.t = mk config in
  let kernel = Option.get (Proc_policy.admit_batch policy) in
  let sw = Proc_switch.create config in
  let next = lcg 0x5eed in
  let refill () =
    while not (Proc_switch.is_full sw) do
      Proc_switch.accept_unit sw ~dest:(next 4)
    done
  in
  refill ();
  let batch = Arrival_batch.create () in
  let counters = Admission.counters () in
  let pushed = ref 0 in
  check_free (name ^ " push-out") (fun () ->
      ignore
        (Proc_switch.transmit_phase_fields sw
           ~on_transmit:(fun ~dest:_ ~arrival:_ -> ()));
      Proc_switch.advance_slot sw;
      refill ();
      Arrival_batch.clear batch;
      for _ = 1 to 8 do
        Arrival_batch.push batch ~dest:(next 4) ~value:1
      done;
      Admission.reset counters;
      kernel sw batch counters;
      pushed := !pushed + counters.Admission.pushed_out);
  Alcotest.(check bool) (name ^ " pushed out") true (!pushed > 0);
  Proc_switch.check_invariants sw

let value_push_out (name, mk) () =
  let k = 8 in
  let config = Value_config.make ~ports:4 ~max_value:k ~buffer:16 () in
  let policy : Value_policy.t = mk config in
  let kernel = Option.get (Value_policy.admit_batch policy) in
  let sw = Value_switch.create config in
  let next = lcg 0x5eed in
  let refill () =
    while not (Value_switch.is_full sw) do
      Value_switch.accept_unit sw ~dest:(next 4) ~value:(next k + 1)
    done
  in
  refill ();
  let batch = Arrival_batch.create () in
  let counters = Admission.counters () in
  let pushed = ref 0 in
  check_free (name ^ " push-out") (fun () ->
      ignore
        (Value_switch.transmit_phase_fields sw
           ~on_transmit:(fun ~dest:_ ~value:_ ~arrival:_ -> ()));
      Value_switch.advance_slot sw;
      refill ();
      Arrival_batch.clear batch;
      for _ = 1 to 8 do
        Arrival_batch.push batch ~dest:(next 4) ~value:(next k + 1)
      done;
      Admission.reset counters;
      kernel sw batch counters;
      pushed := !pushed + counters.Admission.pushed_out);
  Alcotest.(check bool) (name ^ " pushed out") true (!pushed > 0);
  Value_switch.check_invariants sw

(* NHDT's per-arrival threshold test, on a half-full switch (a full one
   drops before the test runs) whose one long queue is over its
   threshold, so both answers come up. *)
let nhdt_decision () =
  let config = Proc_config.contiguous ~k:8 ~buffer:32 () in
  let policy = P_nhdt.make config in
  let sw = Proc_switch.create config in
  for _ = 1 to 16 do
    Proc_switch.accept_unit sw ~dest:1
  done;
  let next = lcg 7 in
  let accepts = ref 0 in
  check_free "NHDT admit" (fun () ->
      match Proc_policy.admit policy sw ~dest:(next 8) with
      | Decision.Accept -> incr accepts
      | Decision.Push_out _ | Decision.Drop -> ());
  (* [check_free] runs the step 10_001 times, warm-up included. *)
  Alcotest.(check bool) "NHDT both answers seen" true
    (!accepts > 0 && !accepts < 10_001)

(* The OPT reference: arrivals into a full bag (push-outs and drops), one
   transmission and one slot end per step. *)
let opt_ref name (inst : Smbm_sim.Instance.t) ~dests ~values () =
  let next = lcg 11 in
  for _ = 1 to 64 do
    inst.arrive_dv ~dest:(next dests) ~value:(next values + 1)
  done;
  check_free (name ^ " arrive + transmit") (fun () ->
      for _ = 1 to 4 do
        inst.arrive_dv ~dest:(next dests) ~value:(next values + 1)
      done;
      inst.transmit ();
      inst.end_slot ());
  Alcotest.(check bool) (name ^ " pushed out") true
    (Smbm_sim.Metrics.pushed_out inst.metrics > 0);
  inst.check ()

let suite =
  List.map
    (fun ((name, _) as p) ->
      Alcotest.test_case ("proc " ^ name ^ " push-out") `Quick (proc_push_out p))
    [
      ("LQD", fun c -> P_lqd.make c);
      ("BPD", fun c -> P_bpd.make c);
      ("BPD1", fun c -> P_bpd.make ~protect_last:true c);
      ("LWD", fun c -> P_lwd.make c);
    ]
  @ List.map
      (fun ((name, _) as p) ->
        Alcotest.test_case ("value " ^ name ^ " push-out") `Quick
          (value_push_out p))
      [
        ("LQD", fun c -> V_lqd.make c);
        ("MVD", fun c -> V_mvd.make c);
        ("MVD1", fun c -> V_mvd.make ~protect_last:true c);
        ("MRD", fun c -> V_mrd.make c);
      ]
  @ [
      Alcotest.test_case "NHDT admission decision" `Quick nhdt_decision;
      Alcotest.test_case "OPT reference, proc" `Quick
        (opt_ref "proc OPT"
           (Smbm_sim.Opt_ref.proc_instance
              (Proc_config.contiguous ~k:4 ~buffer:16 ()))
           ~dests:4 ~values:1);
      Alcotest.test_case "OPT reference, value" `Quick
        (opt_ref "value OPT"
           (Smbm_sim.Opt_ref.value_instance
              (Value_config.make ~ports:4 ~max_value:8 ~buffer:16 ()))
           ~dests:4 ~values:8);
    ]
