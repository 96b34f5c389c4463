(* argmin over eligible queues of (minimum value, -length, -index): the
   cheapest admitted packet, ties towards the longer queue, then the larger
   port index.  The scan's replacement on [key <= best] keeps the largest
   index among full ties; the indexed path reads the same argmin in
   O(log n) from the switch's incremental index.  Victims are plain ints,
   -1 meaning none, and the victim's minimum is read back off the switch,
   so a selection allocates nothing. *)

let select_victim_scan ~protect_last sw =
  let min_len = if protect_last then 2 else 1 in
  let best = ref (-1) in
  let best_min = ref max_int and best_len = ref min_int in
  for j = 0 to Value_switch.n sw - 1 do
    let len = Value_switch.queue_length sw j in
    if len >= min_len then begin
      let v = Value_switch.queue_min_value_or sw j ~default:max_int in
      if v < !best_min || (v = !best_min && len >= !best_len) then begin
        best := j;
        best_min := v;
        best_len := len
      end
    end
  done;
  !best

(* Keyed lexicographic tree with ineligibility encoded as (min_int, 0); an
   eligible queue carries (negated minimum, length), and a non-empty
   queue's minimum is in [1, k] so its negation stays above min_int.  Both
   keys are derived, refreshed per invalidation off the live aggregates and
   occupancy bitsets. *)
let index ~protect_last sw =
  let min_len = if protect_last then 2 else 1 in
  let key = if protect_last then "mvd:protect" else "mvd" in
  let v = Value_switch.view sw in
  Value_switch.find_index_with sw ~key (fun ~n ->
      let k1 = Array.make n 0 and k2 = Array.make n 0 in
      Agg_index.create_lex ~n ~k1 ~k2
        ~refresh:(fun j ->
          if v.Value_switch.view_qlen.(j) >= min_len then begin
            k1.(j) <- -(Value_switch.view_min_value_or v j ~default:max_int);
            k2.(j) <- v.Value_switch.view_qlen.(j)
          end
          else begin
            k1.(j) <- min_int;
            k2.(j) <- 0
          end)
        ())

let select_victim_indexed ~protect_last idx sw =
  let min_len = if protect_last then 2 else 1 in
  let c = Agg_index.top idx in
  if c < 0 || Value_switch.queue_length sw c < min_len then -1 else c

let select_victim ~protect_last sw =
  select_victim_indexed ~protect_last (index ~protect_last sw) sw

(* MVD evicts only for a strictly more valuable arrival. *)
let displaces sw ~value ~victim =
  victim >= 0 && Value_switch.queue_min_value_or sw victim ~default:max_int < value

let make ?(protect_last = false) ?impl _config =
  let name = if protect_last then "MVD1" else "MVD" in
  let index = Value_policy.per_switch (index ~protect_last) in
  let select =
    match impl with
    | Some `Scan -> select_victim_scan ~protect_last
    | None -> fun sw -> select_victim_indexed ~protect_last (index sw) sw
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
              let victim = select_victim_indexed ~protect_last idx sw in
              if displaces sw ~value ~victim then begin
                ignore (Value_switch.push_out_lost sw ~victim : int);
                Value_switch.accept_unit sw ~dest ~value;
                c.Admission.pushed_out <- c.Admission.pushed_out + 1;
                c.Admission.accepted <- c.Admission.accepted + 1
              end
              else c.Admission.dropped <- c.Admission.dropped + 1
            end
          done)
  in
  Value_policy.make ?admit_batch ~name ~push_out:true
    (fun sw ~dest:_ ~value ->
      match Value_policy.greedy_accept sw with
      | Some d -> d
      | None ->
        let victim = select sw in
        if displaces sw ~value ~victim then Decision.Push_out { victim }
        else Decision.Drop)
