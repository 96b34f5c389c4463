(* argmax over queues of virtual length; ties towards the smaller minimum
   value, then the larger index — lexicographic (length, -min_value, index),
   with the arriving packet counted as already added to [dest].  The scan's
   replacement on [key >= best] keeps the largest index among full ties; the
   indexed path answers the same argmax in O(log n) from the switch's
   incremental index.  All comparisons are explicit integer comparisons
   (minimum values come off the switch's per-port bitsets). *)

let min_of sw j = Value_switch.queue_min_value_or sw j ~default:max_int

let select_victim_scan sw ~dest =
  let best = ref 0 and best_len = ref min_int and best_min = ref min_int in
  (* [best_min] holds the *negated* minimum so that larger is better. *)
  for j = 0 to Value_switch.n sw - 1 do
    let len = Value_switch.queue_length sw j + if j = dest then 1 else 0 in
    let neg_min = -min_of sw j in
    if len > !best_len || (len = !best_len && neg_min >= !best_min) then begin
      best := j;
      best_len := len;
      best_min := neg_min
    end
  done;
  !best

(* Keyed lexicographic tree over (queue length, negated per-port minimum)
   — the length column aliases the live aggregate, the negated minimum is
   a derived key refreshed per invalidation off the occupancy bitsets
   ("smaller minimum wins the tie" becomes "larger negated minimum
   wins"). *)
let index sw =
  let v = Value_switch.view sw in
  Value_switch.find_index_with sw ~key:"lqd" (fun ~n ->
      let negmin = Array.make n (-max_int) in
      Agg_index.create_lex ~n ~k1:v.Value_switch.view_qlen ~k2:negmin
        ~refresh:(fun j ->
          negmin.(j) <- -(Value_switch.view_min_value_or v j ~default:max_int))
        ())

let select_victim_indexed idx sw ~dest =
  let c = Agg_index.top_excluding idx dest in
  if c < 0 then dest
  else begin
    let dlen = Value_switch.queue_length sw dest + 1
    and clen = Value_switch.queue_length sw c in
    if clen > dlen then c
    else if clen < dlen then dest
    else begin
      let cm = min_of sw c and dm = min_of sw dest in
      if cm < dm || (cm = dm && c > dest) then c else dest
    end
  end

let select_victim sw ~dest = select_victim_indexed (index sw) sw ~dest

(* The victim after the destination's own gate: when LQD names [dest], the
   arrival still displaces [dest]'s least valuable packet if that is
   worth less than the arrival.  [-1] means drop. *)
let gate sw ~dest ~value victim =
  if victim <> dest then victim
  else if Value_switch.queue_min_value_or sw dest ~default:max_int < value
  then dest
  else -1

let make ?impl _config =
  let index = Value_policy.per_switch index in
  let select =
    match impl with
    | Some `Scan -> fun sw ~dest -> select_victim_scan sw ~dest
    | None -> fun sw ~dest -> select_victim_indexed (index sw) sw ~dest
  in
  let admit_batch =
    match impl with
    | Some `Scan -> None
    | None ->
      Some
        (fun sw batch (c : Admission.counters) ->
          let idx = index sw in
          for i = 0 to Arrival_batch.length batch - 1 do
            let dest = Arrival_batch.unsafe_dest batch i
            and value = Arrival_batch.unsafe_value batch i in
            if not (Value_switch.is_full sw) then begin
              Value_switch.accept_unit sw ~dest ~value;
              c.Admission.accepted <- c.Admission.accepted + 1
            end
            else begin
              let victim =
                gate sw ~dest ~value (select_victim_indexed idx sw ~dest)
              in
              if victim >= 0 then begin
                ignore (Value_switch.push_out_lost sw ~victim : int);
                Value_switch.accept_unit sw ~dest ~value;
                c.Admission.pushed_out <- c.Admission.pushed_out + 1;
                c.Admission.accepted <- c.Admission.accepted + 1
              end
              else c.Admission.dropped <- c.Admission.dropped + 1
            end
          done)
  in
  Value_policy.make ?admit_batch ~name:"LQD" ~push_out:true
    (fun sw ~dest ~value ->
      match Value_policy.greedy_accept sw with
      | Some d -> d
      | None ->
        let victim = gate sw ~dest ~value (select sw ~dest) in
        if victim >= 0 then Decision.Push_out { victim } else Decision.Drop)
