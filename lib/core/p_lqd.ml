(* argmax over queues of (virtual length, work, index); the virtual length
   counts the arriving packet as already added to [dest].

   The left-to-right scan with replacement on [key >= best] — which keeps
   the largest index among full ties — is the decision contract.  The
   policy answers the same argmax in O(log n) from the switch's
   incremental index; [select_victim_scan] keeps the original O(n) scan as
   the reference oracle the differential tests compare against.  All key
   comparisons are explicit integer comparisons (no tuple allocation on the
   hot path). *)

let select_victim_scan sw ~dest =
  let best = ref 0 and best_len = ref min_int and best_work = ref min_int in
  for j = 0 to Proc_switch.n sw - 1 do
    let len = Proc_switch.queue_length sw j + if j = dest then 1 else 0 in
    let work = Proc_switch.port_work sw j in
    (* >= on equal keys keeps the largest index among full ties. *)
    if len > !best_len || (len = !best_len && work >= !best_work) then begin
      best := j;
      best_len := len;
      best_work := work
    end
  done;
  !best

(* The order as a keyed lexicographic tree over the switch's own (queue
   length, port work) aggregate columns — no closure, no refresh (both keys
   alias live state). *)
let index sw =
  let v = Proc_switch.view sw in
  Proc_switch.find_index_with sw ~key:"lqd" (fun ~n ->
      Agg_index.create_lex ~n ~k1:v.Proc_switch.view_qlen
        ~k2:v.Proc_switch.view_works ~refresh:ignore ())

let select_victim_indexed idx sw ~dest =
  let c = Agg_index.top_excluding idx dest in
  if c < 0 then dest
  else begin
    let dlen = Proc_switch.queue_length sw dest + 1 in
    let clen = Proc_switch.queue_length sw c in
    if clen > dlen then c
    else if clen < dlen then dest
    else begin
      let cw = Proc_switch.port_work sw c
      and dw = Proc_switch.port_work sw dest in
      if cw > dw || (cw = dw && c > dest) then c else dest
    end
  end

let select_victim sw ~dest = select_victim_indexed (index sw) sw ~dest

let make ?impl _config =
  let index = Proc_policy.per_switch index in
  let select =
    match impl with
    | Some `Scan -> fun sw ~dest -> select_victim_scan sw ~dest
    | None -> fun sw ~dest -> select_victim_indexed (index sw) sw ~dest
  in
  (* Fused batch kernel: admit a whole slot's arrivals in one pass,
     resolving the victim index once per batch instead of once per packet.
     Decision-identical to the per-packet [admit] + engine application
     below — the lockstep fuzz proves it. *)
  let admit_batch =
    match impl with
    | Some `Scan -> None
    | None ->
      Some
        (fun sw batch (c : Admission.counters) ->
          let idx = index sw in
          for i = 0 to Arrival_batch.length batch - 1 do
            let dest = Arrival_batch.unsafe_dest batch i in
            if not (Proc_switch.is_full sw) then begin
              Proc_switch.accept_unit sw ~dest;
              c.Admission.accepted <- c.Admission.accepted + 1
            end
            else begin
              let victim = select_victim_indexed idx sw ~dest in
              if victim <> dest then begin
                Proc_switch.push_out_unit sw ~victim;
                Proc_switch.accept_unit sw ~dest;
                c.Admission.pushed_out <- c.Admission.pushed_out + 1;
                c.Admission.accepted <- c.Admission.accepted + 1
              end
              else c.Admission.dropped <- c.Admission.dropped + 1
            end
          done)
  in
  Proc_policy.make ?admit_batch ~name:"LQD" ~push_out:true
    (fun sw ~dest ->
      match Proc_policy.greedy_accept sw with
      | Some d -> d
      | None ->
        let victim = select sw ~dest in
        if victim <> dest then Decision.Push_out { victim } else Decision.Drop)
