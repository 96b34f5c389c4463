(* Differential oracle for the incremental victim-selection indexes: every
   push-out policy built two ways — [~impl:`Scan] (the original O(n)
   rescans) and the default (the O(log n) switch indexes) — driven in
   lockstep on twin switches under fuzzed traffic (including mid-run
   [set_buffer] resizes), asserting bit-identical decisions at every arrival
   and bit-identical transmitted packets (ids included) at every
   transmission phase.  Plus pinned tie-break regressions, raising-hook
   invariant checks, and the intra-bucket order contract the switch shares
   with the Value_queue reference model. *)

open Smbm_core

(* --- lockstep drivers --- *)

let impls = [ None; Some `Scan ]

let run_proc_lockstep ~works ~buffer ~speedup ~ops ~mk =
  let config = Proc_config.make ~works ~buffer ~speedup () in
  let arm impl =
    (mk impl config, Proc_switch.create config)
  in
  let arms = List.map arm impls in
  let ok = ref true in
  let all_equal = function
    | [] -> true
    | x0 :: rest -> List.for_all (( = ) x0) rest
  in
  let apply sw d ~dest =
    match d with
    | Decision.Accept -> Proc_switch.accept_unit sw ~dest
    | Decision.Push_out { victim } ->
      Proc_switch.push_out_unit sw ~victim;
      Proc_switch.accept_unit sw ~dest
    | Decision.Drop -> ()
  in
  List.iter
    (fun op ->
      (match op with
      | `Arrival dest ->
        let ds =
          List.map (fun (p, sw) -> Proc_policy.admit p sw ~dest) arms
        in
        (match ds with
        | d0 :: rest ->
          if not (List.for_all (Decision.equal d0) rest) then ok := false
        | [] -> ());
        List.iter2 (fun (_, sw) d -> apply sw d ~dest) arms ds
      | `Transmit ->
        (* Transmitted packets must agree field-for-field — ids included —
           across both arms. *)
        let sent =
          List.map
            (fun (_, sw) ->
              let acc = ref [] in
              ignore
                (Proc_switch.transmit_phase sw
                   ~on_transmit:(fun (p : Packet.Proc.t) ->
                     acc := (p.id, p.dest, p.work, p.arrival) :: !acc));
              List.rev !acc)
            arms
        in
        if not (all_equal sent) then ok := false
      | `Set_buffer b ->
        (* Same clamp on every arm: occupancies are lockstep-identical, so
           the effective bound is too (shrinking below occupancy is
           refused by contract). *)
        let occ = Proc_switch.occupancy (snd (List.hd arms)) in
        let b = max 1 (max occ b) in
        List.iter (fun (_, sw) -> Proc_switch.set_buffer sw b) arms
      | `Flush ->
        if
          not
            (all_equal (List.map (fun (_, sw) -> Proc_switch.flush sw) arms))
        then ok := false);
      List.iter (fun (_, sw) -> Proc_switch.check_invariants sw) arms;
      match arms with
      | [] -> ()
      | (_, sw0) :: rest ->
        List.iter
          (fun (_, sw) ->
            if Proc_switch.occupancy sw <> Proc_switch.occupancy sw0 then
              ok := false;
            if Proc_switch.buffer sw <> Proc_switch.buffer sw0 then
              ok := false;
            if
              Proc_switch.total_occupied_work sw
              <> Proc_switch.total_occupied_work sw0
            then ok := false;
            for j = 0 to Proc_switch.n sw0 - 1 do
              if
                Proc_switch.queue_length sw j
                <> Proc_switch.queue_length sw0 j
                || Proc_switch.queue_work sw j <> Proc_switch.queue_work sw0 j
              then ok := false
            done)
          rest)
    ops;
  !ok

let run_value_lockstep ~ports ~max_value ~buffer ~speedup ~ops ~mk =
  let config = Value_config.make ~ports ~max_value ~buffer ~speedup () in
  let arm impl =
    (mk impl config, Value_switch.create config)
  in
  let arms = List.map arm impls in
  let ok = ref true in
  let all_equal = function
    | [] -> true
    | x0 :: rest -> List.for_all (( = ) x0) rest
  in
  let apply sw d ~dest ~value =
    match d with
    | Decision.Accept -> Value_switch.accept_unit sw ~dest ~value
    | Decision.Push_out { victim } ->
      ignore (Value_switch.push_out_lost sw ~victim : int);
      Value_switch.accept_unit sw ~dest ~value
    | Decision.Drop -> ()
  in
  List.iter
    (fun op ->
      (match op with
      | `Arrival (dest, value) ->
        let ds =
          List.map (fun (p, sw) -> Value_policy.admit p sw ~dest ~value) arms
        in
        (match ds with
        | d0 :: rest ->
          if not (List.for_all (Decision.equal d0) rest) then ok := false
        | [] -> ());
        List.iter2 (fun (_, sw) d -> apply sw d ~dest ~value) arms ds
      | `Transmit ->
        let sent =
          List.map
            (fun (_, sw) ->
              let acc = ref [] in
              ignore
                (Value_switch.transmit_phase sw
                   ~on_transmit:(fun (p : Packet.Value.t) ->
                     acc := (p.id, p.dest, p.value, p.arrival) :: !acc));
              List.rev !acc)
            arms
        in
        if not (all_equal sent) then ok := false
      | `Set_buffer b ->
        let occ = Value_switch.occupancy (snd (List.hd arms)) in
        let b = max 1 (max occ b) in
        List.iter (fun (_, sw) -> Value_switch.set_buffer sw b) arms
      | `Flush ->
        if
          not
            (all_equal (List.map (fun (_, sw) -> Value_switch.flush sw) arms))
        then ok := false);
      List.iter (fun (_, sw) -> Value_switch.check_invariants sw) arms;
      match arms with
      | [] -> ()
      | (_, sw0) :: rest ->
        List.iter
          (fun (_, sw) ->
            if Value_switch.occupancy sw <> Value_switch.occupancy sw0 then
              ok := false;
            if Value_switch.buffer sw <> Value_switch.buffer sw0 then
              ok := false;
            if Value_switch.min_value sw <> Value_switch.min_value sw0 then
              ok := false;
            if
              Value_switch.min_value_port sw
              <> Value_switch.min_value_port sw0
            then ok := false;
            for j = 0 to Value_switch.n sw0 - 1 do
              if
                Value_switch.queue_length sw j
                <> Value_switch.queue_length sw0 j
                || Value_switch.queue_total_value sw j
                   <> Value_switch.queue_total_value sw0 j
                || Value_switch.queue_min_value sw j
                   <> Value_switch.queue_min_value sw0 j
              then ok := false
            done)
          rest)
    ops;
  !ok

(* --- every push-out policy, all three implementations, fuzzed traffic --- *)

let proc_policies ~buffer ~n =
  [
    ("LQD", fun impl c -> P_lqd.make ?impl c);
    ("LWD", fun impl c -> P_lwd.make ?impl c);
    ("LWD1", fun impl c -> P_lwd.make ~protect_last:true ?impl c);
    ( "LWD/tie=small-work",
      fun impl c -> P_lwd.make ~tie:P_lwd.Smallest_work ?impl c );
    ( "LWD/tie=long-queue",
      fun impl c -> P_lwd.make ~tie:P_lwd.Longest_queue ?impl c );
    ("BPD", fun impl c -> P_bpd.make ?impl c);
    ("BPD1", fun impl c -> P_bpd.make ~protect_last:true ?impl c);
    ("RSV(0)", fun impl c -> P_reserved.make ~reserve:0 ?impl c);
    ( Printf.sprintf "RSV(%d)" (buffer / n),
      fun impl c -> P_reserved.make ~reserve:(buffer / n) ?impl c );
  ]

let value_policies =
  [
    ("LQD", fun impl c -> V_lqd.make ?impl c);
    ("MVD", fun impl c -> V_mvd.make ?impl c);
    ("MVD1", fun impl c -> V_mvd.make ~protect_last:true ?impl c);
    ("MRD", fun impl c -> V_mrd.make ?impl c);
    ("MRD1", fun impl c -> V_mrd.make ~protect_last:true ?impl c);
  ]

let proc_ops_gen n =
  QCheck2.Gen.(
    list_size (int_range 20 80)
      (frequency
         [
           (6, map (fun d -> `Arrival d) (int_range 0 (n - 1)));
           (2, pure `Transmit);
           (1, map (fun b -> `Set_buffer b) (int_range 1 12));
           (1, pure `Flush);
         ]))

let prop_proc_policies_lockstep =
  QCheck2.Test.make
    ~name:"proc push-out policies: scan = indexed lockstep" ~count:150
    QCheck2.Gen.(
      let* n = int_range 1 6 in
      let* works = array_size (pure n) (int_range 1 4) in
      let* buffer = int_range 1 8 in
      let* speedup = int_range 1 2 in
      let* ops = proc_ops_gen n in
      pure (works, buffer, speedup, ops))
    (fun (works, buffer, speedup, ops) ->
      let n = Array.length works in
      List.for_all
        (fun (_name, mk) -> run_proc_lockstep ~works ~buffer ~speedup ~ops ~mk)
        (proc_policies ~buffer ~n))

let prop_value_policies_lockstep =
  QCheck2.Test.make
    ~name:"value push-out policies: scan = indexed lockstep" ~count:150
    QCheck2.Gen.(
      let* ports = int_range 1 6 in
      let* max_value = int_range 1 8 in
      let* buffer = int_range 1 8 in
      let* speedup = int_range 1 2 in
      let* ops =
        list_size (int_range 20 80)
          (frequency
             [
               ( 6,
                 map2
                   (fun d v -> `Arrival (d, v))
                   (int_range 0 (ports - 1))
                   (int_range 1 max_value) );
               (2, pure `Transmit);
               (1, map (fun b -> `Set_buffer b) (int_range 1 12));
               (1, pure `Flush);
             ])
      in
      pure (ports, max_value, buffer, speedup, ops))
    (fun (ports, max_value, buffer, speedup, ops) ->
      List.for_all
        (fun (_name, mk) ->
          run_value_lockstep ~ports ~max_value ~buffer ~speedup ~ops ~mk)
        value_policies)

(* Deterministic soak with k = 130: min/max values cross the 63-bit word
   boundary of the switch's occupancy bitsets, which the small fuzzed
   configurations above never reach.  Periodic resizes exercise slab
   growth at width. *)
let test_value_soak_wide_k () =
  let ports = 4 and max_value = 130 and buffer = 32 in
  let ops =
    List.init 2000 (fun i ->
        if i mod 97 = 96 then `Set_buffer (16 + (i mod 48))
        else if i mod 16 = 15 then `Transmit
        else `Arrival (i mod ports, (i * 37 mod max_value) + 1))
  in
  List.iter
    (fun (name, mk) ->
      Alcotest.(check bool)
        (name ^ " lockstep, k = 130")
        true
        (run_value_lockstep ~ports ~max_value ~buffer ~speedup:1 ~ops ~mk))
    value_policies

(* --- fused batch kernels = per-packet fold --- *)

(* The fused [admit_batch] kernels must be decision-identical to folding
   [admit] packet-by-packet: same victims, same admission counters, same
   switch state and transmitted packets — including across mid-run
   [set_buffer] resizes.  Two switches run in lockstep, one
   through the kernel, one through the per-packet reference fold. *)

let run_proc_batch_lockstep ~works ~buffer ~speedup ~ops ~mk =
  let config = Proc_config.make ~works ~buffer ~speedup () in
  let policy : Proc_policy.t = mk None config in
  match Proc_policy.admit_batch policy with
  | None -> false (* every flat-impl push-out policy must provide a kernel *)
  | Some kernel ->
    let sw_k = Proc_switch.create config in
    let sw_r = Proc_switch.create config in
    let counters = Admission.counters () in
    let batch = Arrival_batch.create () in
    let ok = ref true in
    List.iter
      (fun op ->
        (match op with
        | `Batch dests ->
          Arrival_batch.clear batch;
          List.iter
            (fun d -> Arrival_batch.push batch ~dest:d ~value:1)
            dests;
          Admission.reset counters;
          kernel sw_k batch counters;
          let accepted = ref 0 and pushed = ref 0 and dropped = ref 0 in
          List.iter
            (fun dest ->
              match Proc_policy.admit policy sw_r ~dest with
              | Decision.Accept ->
                Proc_switch.accept_unit sw_r ~dest;
                incr accepted
              | Decision.Push_out { victim } ->
                Proc_switch.push_out_unit sw_r ~victim;
                Proc_switch.accept_unit sw_r ~dest;
                incr pushed;
                incr accepted
              | Decision.Drop -> incr dropped)
            dests;
          if
            counters.Admission.accepted <> !accepted
            || counters.Admission.pushed_out <> !pushed
            || counters.Admission.dropped <> !dropped
          then ok := false
        | `Transmit ->
          let sent sw =
            let acc = ref [] in
            ignore
              (Proc_switch.transmit_phase sw
                 ~on_transmit:(fun (p : Packet.Proc.t) ->
                   acc := (p.id, p.dest, p.work, p.arrival) :: !acc));
            List.rev !acc
          in
          if sent sw_k <> sent sw_r then ok := false
        | `Set_buffer b ->
          let b = max 1 (max (Proc_switch.occupancy sw_r) b) in
          Proc_switch.set_buffer sw_k b;
          Proc_switch.set_buffer sw_r b
        | `Flush ->
          if Proc_switch.flush sw_k <> Proc_switch.flush sw_r then ok := false);
        Proc_switch.check_invariants sw_k;
        Proc_switch.check_invariants sw_r;
        if
          Proc_switch.occupancy sw_k <> Proc_switch.occupancy sw_r
          || Proc_switch.buffer sw_k <> Proc_switch.buffer sw_r
        then ok := false;
        for j = 0 to Proc_switch.n sw_r - 1 do
          if
            Proc_switch.queue_length sw_k j <> Proc_switch.queue_length sw_r j
            || Proc_switch.queue_work sw_k j <> Proc_switch.queue_work sw_r j
          then ok := false
        done)
      ops;
    !ok

let run_value_batch_lockstep ~ports ~max_value ~buffer ~speedup ~ops ~mk =
  let config = Value_config.make ~ports ~max_value ~buffer ~speedup () in
  let policy : Value_policy.t = mk None config in
  match Value_policy.admit_batch policy with
  | None -> false
  | Some kernel ->
    let sw_k = Value_switch.create config in
    let sw_r = Value_switch.create config in
    let counters = Admission.counters () in
    let batch = Arrival_batch.create () in
    let ok = ref true in
    List.iter
      (fun op ->
        (match op with
        | `Batch arrivals ->
          Arrival_batch.clear batch;
          List.iter
            (fun (d, v) -> Arrival_batch.push batch ~dest:d ~value:v)
            arrivals;
          Admission.reset counters;
          kernel sw_k batch counters;
          let accepted = ref 0 and pushed = ref 0 and dropped = ref 0 in
          List.iter
            (fun (dest, value) ->
              match Value_policy.admit policy sw_r ~dest ~value with
              | Decision.Accept ->
                Value_switch.accept_unit sw_r ~dest ~value;
                incr accepted
              | Decision.Push_out { victim } ->
                ignore (Value_switch.push_out_lost sw_r ~victim : int);
                Value_switch.accept_unit sw_r ~dest ~value;
                incr pushed;
                incr accepted
              | Decision.Drop -> incr dropped)
            arrivals;
          if
            counters.Admission.accepted <> !accepted
            || counters.Admission.pushed_out <> !pushed
            || counters.Admission.dropped <> !dropped
          then ok := false
        | `Transmit ->
          let sent sw =
            let acc = ref [] in
            ignore
              (Value_switch.transmit_phase sw
                 ~on_transmit:(fun (p : Packet.Value.t) ->
                   acc := (p.id, p.dest, p.value, p.arrival) :: !acc));
            List.rev !acc
          in
          if sent sw_k <> sent sw_r then ok := false
        | `Set_buffer b ->
          let b = max 1 (max (Value_switch.occupancy sw_r) b) in
          Value_switch.set_buffer sw_k b;
          Value_switch.set_buffer sw_r b
        | `Flush ->
          if Value_switch.flush sw_k <> Value_switch.flush sw_r then
            ok := false);
        Value_switch.check_invariants sw_k;
        Value_switch.check_invariants sw_r;
        if
          Value_switch.occupancy sw_k <> Value_switch.occupancy sw_r
          || Value_switch.buffer sw_k <> Value_switch.buffer sw_r
          || Value_switch.min_value sw_k <> Value_switch.min_value sw_r
        then ok := false;
        for j = 0 to Value_switch.n sw_r - 1 do
          if
            Value_switch.queue_length sw_k j <> Value_switch.queue_length sw_r j
            || Value_switch.queue_total_value sw_k j
               <> Value_switch.queue_total_value sw_r j
            || Value_switch.queue_min_value sw_k j
               <> Value_switch.queue_min_value sw_r j
          then ok := false
        done)
      ops;
    !ok

let prop_proc_batch_lockstep =
  QCheck2.Test.make
    ~name:"proc admit_batch kernels = per-packet fold lockstep" ~count:120
    QCheck2.Gen.(
      let* n = int_range 1 6 in
      let* works = array_size (pure n) (int_range 1 4) in
      let* buffer = int_range 1 8 in
      let* speedup = int_range 1 2 in
      let* ops =
        list_size (int_range 10 40)
          (frequency
             [
               ( 6,
                 map
                   (fun ds -> `Batch ds)
                   (list_size (int_range 0 12) (int_range 0 (n - 1))) );
               (2, pure `Transmit);
               (1, map (fun b -> `Set_buffer b) (int_range 1 12));
               (1, pure `Flush);
             ])
      in
      pure (works, buffer, speedup, ops))
    (fun (works, buffer, speedup, ops) ->
      let n = Array.length works in
      List.for_all
        (fun (_name, mk) ->
          run_proc_batch_lockstep ~works ~buffer ~speedup ~ops ~mk)
        (proc_policies ~buffer ~n))

let prop_value_batch_lockstep =
  QCheck2.Test.make
    ~name:"value admit_batch kernels = per-packet fold lockstep" ~count:120
    QCheck2.Gen.(
      let* ports = int_range 1 6 in
      let* max_value = int_range 1 8 in
      let* buffer = int_range 1 8 in
      let* speedup = int_range 1 2 in
      let* ops =
        list_size (int_range 10 40)
          (frequency
             [
               ( 6,
                 map
                   (fun a -> `Batch a)
                   (list_size (int_range 0 12)
                      (pair (int_range 0 (ports - 1)) (int_range 1 max_value)))
               );
               (2, pure `Transmit);
               (1, map (fun b -> `Set_buffer b) (int_range 1 12));
               (1, pure `Flush);
             ])
      in
      pure (ports, max_value, buffer, speedup, ops))
    (fun (ports, max_value, buffer, speedup, ops) ->
      List.for_all
        (fun (_name, mk) ->
          run_value_batch_lockstep ~ports ~max_value ~buffer ~speedup ~ops ~mk)
        value_policies)

(* --- packed trace slabs = owning columns --- *)

(* [Trace.Compact.pack] only changes memory topology (zero-copy windows of
   one shared off-heap slab per column); content, [equal] and [signature]
   must be invariant, and a heap round-trip through [to_trace]/[of_trace]
   (int arrays and lists) must reproduce the same signature. *)
let prop_compact_pack_signature =
  QCheck2.Test.make
    ~name:"Trace.Compact: packed slab windows = owning columns" ~count:100
    QCheck2.Gen.(
      let arrival =
        map2
          (fun d v -> Arrival.make ~dest:d ~value:v ())
          (int_range 0 5) (int_range 1 9)
      in
      let slot = list_size (int_range 0 5) arrival in
      let trace = map Array.of_list (list_size (int_range 0 12) slot) in
      list_size (int_range 0 5) trace)
    (fun traces ->
      let module C = Smbm_traffic.Trace.Compact in
      let compacts =
        List.map
          (fun t -> C.of_trace (Smbm_traffic.Trace.of_slots t))
          traces
      in
      let packed = C.pack compacts in
      List.length packed = List.length compacts
      && List.for_all2
           (fun own win ->
             C.equal own win
             && String.equal (C.signature own) (C.signature win)
             && String.equal (C.signature own)
                  (C.signature (C.of_trace (C.to_trace win))))
           compacts packed)

(* --- pinned tie-break regressions --- *)

let proc_switch ?speedup ~works ~buffer ~lengths () =
  let config = Proc_config.make ~works ~buffer ?speedup () in
  let sw = Proc_switch.create config in
  Array.iteri
    (fun j l ->
      for _ = 1 to l do
        Proc_switch.accept_unit sw ~dest:j
      done)
    lengths;
  sw

let test_lqd_tie_largest_index () =
  (* Equal virtual lengths and equal port works: the >=-scan keeps the
     largest index; the indexed path must agree. *)
  let sw = proc_switch ~works:[| 1; 1 |] ~buffer:3 ~lengths:[| 2; 1 |] () in
  Alcotest.(check int) "scan" 1 (P_lqd.select_victim_scan sw ~dest:1);
  Alcotest.(check int) "indexed" 1 (P_lqd.select_victim sw ~dest:1);
  (* Virtual add dominates: dest 0 at virtual length 3 wins outright. *)
  Alcotest.(check int) "scan dest 0" 0 (P_lqd.select_victim_scan sw ~dest:0);
  Alcotest.(check int) "indexed dest 0" 0 (P_lqd.select_victim sw ~dest:0)

let test_lwd_tie_largest_index () =
  (* works [|1;1|], lengths [|1;2|], arrival at 0: virtual totals tie at 2,
     per-packet works tie at 1, so the largest index (queue 1) is evicted —
     not the destination. *)
  let sw = proc_switch ~works:[| 1; 1 |] ~buffer:3 ~lengths:[| 1; 2 |] () in
  Alcotest.(check int) "scan" 1 (P_lwd.select_victim_scan sw ~dest:0);
  Alcotest.(check int) "indexed" 1 (P_lwd.select_victim sw ~dest:0)

let value_switch ~ports ~max_value ~buffer ~queues () =
  let config = Value_config.make ~ports ~max_value ~buffer () in
  let sw = Value_switch.create config in
  Array.iteri
    (fun j values ->
      List.iter (fun v -> Value_switch.accept_unit sw ~dest:j ~value:v) values)
    queues;
  sw

let test_mrd_tie_smaller_min_then_largest_index () =
  (* Equal ratios (both length 2, sum 4): the queue with the smaller minimum
     value wins. *)
  let sw =
    value_switch ~ports:2 ~max_value:4 ~buffer:4
      ~queues:[| [ 3; 1 ]; [ 2; 2 ] |] ()
  in
  Alcotest.(check int) "scan" 0 (V_mrd.select_victim_scan sw);
  Alcotest.(check int) "indexed" 0 (V_mrd.select_victim sw);
  (* Equal ratios and equal minima: the largest index wins. *)
  let sw =
    value_switch ~ports:2 ~max_value:4 ~buffer:4
      ~queues:[| [ 2; 2 ]; [ 2; 2 ] |] ()
  in
  Alcotest.(check int) "scan tie" 1 (V_mrd.select_victim_scan sw);
  Alcotest.(check int) "indexed tie" 1 (V_mrd.select_victim sw)

let test_min_value_port_pinned_tie () =
  (* Several queues hold the buffer minimum: the longest one wins, then the
     smallest port index — and the reported port always holds the reported
     minimum. *)
  let sw =
    value_switch ~ports:3 ~max_value:9 ~buffer:6
      ~queues:[| [ 1 ]; [ 9; 1 ]; [ 1 ] |] ()
  in
  Alcotest.(check (option int)) "min value" (Some 1) (Value_switch.min_value sw);
  Alcotest.(check (option int))
    "longest min-holder wins" (Some 1)
    (Value_switch.min_value_port sw);
  Alcotest.(check (option int))
    "port holds the minimum" (Some 1)
    (Value_switch.queue_min_value sw 1);
  (* Equal lengths: the smallest index wins. *)
  let sw =
    value_switch ~ports:3 ~max_value:9 ~buffer:6
      ~queues:[| [ 1 ]; [ 1 ]; [ 1 ] |] ()
  in
  Alcotest.(check (option int))
    "smallest index among equals" (Some 0)
    (Value_switch.min_value_port sw);
  (* Empty switch: no port. *)
  let sw =
    value_switch ~ports:2 ~max_value:4 ~buffer:4 ~queues:[| []; [] |] ()
  in
  Alcotest.(check (option int)) "empty" None (Value_switch.min_value_port sw)

(* --- raising hooks leave invariants intact --- *)

let test_work_queue_raising_hook () =
  let q = Work_queue.create ~work:2 in
  let mk id = Packet.Proc.make ~id ~dest:0 ~work:2 ~arrival:0 in
  Work_queue.push q (mk 0);
  Work_queue.push q (mk 1);
  (try
     ignore
       (Work_queue.process q ~cycles:4 ~on_transmit:(fun _ -> raise Exit));
     Alcotest.fail "hook exception swallowed"
   with Exit -> ());
  (* The transmitted packet is fully accounted: one packet left, its
     residual backing the cached total. *)
  Alcotest.(check int) "length" 1 (Work_queue.length q);
  let recomputed =
    List.fold_left
      (fun acc (p : Packet.Proc.t) -> acc + p.residual)
      0 (Work_queue.to_list q)
  in
  Alcotest.(check int) "total work" recomputed (Work_queue.total_work q);
  (* Processing resumes normally afterwards. *)
  let sent = Work_queue.process q ~cycles:4 ~on_transmit:ignore in
  Alcotest.(check int) "resumed" 1 sent;
  Alcotest.(check int) "drained" 0 (Work_queue.total_work q)

let test_proc_switch_raising_hook () =
  let sw =
    proc_switch ~speedup:2 ~works:[| 2; 3 |] ~buffer:4
      ~lengths:[| 2; 2 |] ()
  in
  (try
     ignore
       (Proc_switch.transmit_phase sw ~on_transmit:(fun _ -> raise Exit));
     Alcotest.fail "hook exception swallowed"
   with Exit -> ());
  Proc_switch.check_invariants sw;
  Alcotest.(check int) "occupancy" 3 (Proc_switch.occupancy sw);
  (* Victim selection still answers correctly off the re-validated index. *)
  Alcotest.(check int) "post-raise victim" 1 (P_lqd.select_victim sw ~dest:1);
  (* And draining the rest keeps everything consistent. *)
  let rec drain () =
    if Proc_switch.occupancy sw > 0 then begin
      ignore (Proc_switch.transmit_phase sw ~on_transmit:ignore);
      Proc_switch.check_invariants sw;
      drain ()
    end
  in
  drain ();
  Alcotest.(check int) "all work drained" 0 (Proc_switch.total_occupied_work sw)

let test_value_switch_raising_hook () =
  let sw =
    value_switch ~ports:2 ~max_value:4 ~buffer:6
      ~queues:[| [ 4; 2 ]; [ 3; 1 ] |] ()
  in
  (try
     ignore
       (Value_switch.transmit_phase sw ~on_transmit:(fun _ -> raise Exit));
     Alcotest.fail "hook exception swallowed"
   with Exit -> ());
  Value_switch.check_invariants sw;
  Alcotest.(check int) "occupancy" 3 (Value_switch.occupancy sw);
  (* The minimum tracker survived the interrupted phase. *)
  Alcotest.(check (option int)) "min value" (Some 1) (Value_switch.min_value sw);
  Alcotest.(check (option int)) "min port" (Some 1) (Value_switch.min_value_port sw)

(* --- intra-bucket order contract, reference model and switch --- *)

let test_value_queue_intra_bucket_order () =
  let q = Value_queue.create ~k:5 in
  let mk id value = Packet.Value.make ~id ~dest:0 ~value ~arrival:0 in
  (* Three packets of equal value, pushed in id order 0, 1, 2. *)
  List.iter (Value_queue.push q) [ mk 0 3; mk 1 3; mk 2 3 ];
  (* pop_min evicts the *youngest* of the minimum bucket (Deque.pop_back):
     push-out prefers discarding the most recent arrival. *)
  Alcotest.(check int) "pop_min youngest" 2 (Value_queue.pop_min q).Packet.Value.id;
  (* pop_max transmits the *oldest* of the maximum bucket (Deque.pop_front):
     FIFO order among equal values on the wire. *)
  Alcotest.(check int) "pop_max oldest" 0 (Value_queue.pop_max q).Packet.Value.id;
  Alcotest.(check int) "one left" 1 (Value_queue.length q);
  Alcotest.(check int) "middle remains" 1 (Value_queue.pop_max q).Packet.Value.id;
  (* Mixed values: min/max pick the right buckets and keep per-bucket FIFO. *)
  List.iter (Value_queue.push q) [ mk 10 2; mk 11 5; mk 12 2; mk 13 5 ];
  Alcotest.(check int) "min bucket youngest" 12
    (Value_queue.pop_min q).Packet.Value.id;
  Alcotest.(check int) "max bucket oldest" 11
    (Value_queue.pop_max q).Packet.Value.id;
  (* The switch keeps the same order: push-out takes the youngest of the
     minimum bucket, transmission the oldest of the maximum bucket. *)
  let sw =
    value_switch ~ports:1 ~max_value:5 ~buffer:8 ~queues:[| [ 3; 3; 3 ] |] ()
  in
  Alcotest.(check int) "switch push-out youngest" 2
    (Value_switch.push_out sw ~victim:0).Packet.Value.id;
  let ids = ref [] in
  ignore
    (Value_switch.transmit_phase sw ~on_transmit:(fun p ->
         ids := p.Packet.Value.id :: !ids));
  Alcotest.(check (list int)) "switch transmits oldest" [ 0 ] !ids;
  Value_switch.iter_port sw 0 ~f:(fun ~value:_ ~arrival:_ ~id ->
      Alcotest.(check int) "middle remains" 1 id)

let suite =
  [
    Qc.to_alcotest prop_proc_policies_lockstep;
    Qc.to_alcotest prop_value_policies_lockstep;
    Qc.to_alcotest prop_proc_batch_lockstep;
    Qc.to_alcotest prop_value_batch_lockstep;
    Qc.to_alcotest prop_compact_pack_signature;
    Alcotest.test_case "value soak, k crosses bitset word" `Slow
      test_value_soak_wide_k;
    Alcotest.test_case "LQD tie keeps largest index" `Quick
      test_lqd_tie_largest_index;
    Alcotest.test_case "LWD tie keeps largest index" `Quick
      test_lwd_tie_largest_index;
    Alcotest.test_case "MRD equal-ratio ties" `Quick
      test_mrd_tie_smaller_min_then_largest_index;
    Alcotest.test_case "min_value_port pinned tie" `Quick
      test_min_value_port_pinned_tie;
    Alcotest.test_case "Work_queue raising hook" `Quick
      test_work_queue_raising_hook;
    Alcotest.test_case "Proc_switch raising hook (flat)" `Quick
      test_proc_switch_raising_hook;
    Alcotest.test_case "Value_switch raising hook (flat)" `Quick
      test_value_switch_raising_hook;
    Alcotest.test_case "Value_queue intra-bucket order" `Quick
      test_value_queue_intra_bucket_order;
  ]
