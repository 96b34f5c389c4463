(* Compare |Qa|/avg_a > |Qb|/avg_b as |Qa|^2 * sum_b > |Qb|^2 * sum_a, in
   exact integer arithmetic (values and sizes are bounded by B * k, far from
   overflow on 63-bit ints). *)
let ratio_greater ~len_a ~sum_a ~len_b ~sum_b =
  len_a * len_a * sum_b > len_b * len_b * sum_a

(* argmax over eligible queues of the ratio; equal ratios prefer the queue
   with the smaller minimum value, then the larger index.  The exact
   cross-multiplied comparison is a total order on eligible queues, so the
   original left-to-right scan and the indexed read pick the same victim;
   [select_victim_scan] keeps the scan as the reference oracle.  Victims
   are plain ints, -1 meaning none. *)

let min_of sw i = Value_switch.queue_min_value_or sw i ~default:max_int

let select_victim_scan ?(protect_last = false) sw =
  let min_len = if protect_last then 2 else 1 in
  let best = ref (-1) and best_len = ref 0 and best_sum = ref 0 in
  for j = 0 to Value_switch.n sw - 1 do
    let len = Value_switch.queue_length sw j in
    if len >= min_len then begin
      let sum = Value_switch.queue_total_value sw j in
      if
        !best < 0
        || ratio_greater ~len_a:len ~sum_a:sum ~len_b:!best_len ~sum_b:!best_sum
        || (not
              (ratio_greater ~len_a:!best_len ~sum_a:!best_sum ~len_b:len
                 ~sum_b:sum))
           (* Equal ratios: prefer the queue with the smaller minimum
              value, then the larger index. *)
           && min_of sw j <= min_of sw !best
      then begin
        best := j;
        best_len := len;
        best_sum := sum
      end
    end
  done;
  !best

(* The ratio order is not lexicographic, so it gets
   {!Agg_index.create_ratio} — a monomorphic tree comparing the exact
   cross-multiplication over int key columns.  The length key doubles as
   the eligibility flag (-1 = ineligible, ranking below all eligible
   queues); the sum column aliases the live per-port value totals (never
   read for ineligible queues, live for eligible ones); the negated minimum
   is a derived tie key. *)
let index ~protect_last sw =
  let min_len = if protect_last then 2 else 1 in
  let key = if protect_last then "mrd:protect" else "mrd" in
  let v = Value_switch.view sw in
  Value_switch.find_index_with sw ~key (fun ~n ->
      let len = Array.make n (-1) and negmin = Array.make n 0 in
      Agg_index.create_ratio ~n ~len ~sum:v.Value_switch.view_qsum ~negmin
        ~refresh:(fun j ->
          let l = v.Value_switch.view_qlen.(j) in
          if l >= min_len then begin
            len.(j) <- l;
            negmin.(j) <- -(Value_switch.view_min_value_or v j ~default:max_int)
          end
          else begin
            len.(j) <- -1;
            negmin.(j) <- 0
          end)
        ())

let select_victim_indexed ~protect_last idx sw =
  let min_len = if protect_last then 2 else 1 in
  let c = Agg_index.top idx in
  if c < 0 || Value_switch.queue_length sw c < min_len then -1 else c

let select_victim ?(protect_last = false) sw =
  select_victim_indexed ~protect_last (index ~protect_last sw) sw

let make ?(protect_last = false) ?impl _config =
  let name = if protect_last then "MRD1" else "MRD" in
  let index = Value_policy.per_switch (index ~protect_last) in
  let select =
    match impl with
    | Some `Scan -> fun sw -> select_victim_scan ~protect_last sw
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
              (* Same drop gate as the per-packet path below (a full
                 buffer is non-empty, so the [max_int] default is never
                 taken). *)
              let victim =
                if Value_switch.min_value_or sw ~default:max_int <= value then
                  select_victim_indexed ~protect_last idx sw
                else -1
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
  Value_policy.make ?admit_batch ~name ~push_out:true
    (fun sw ~dest:_ ~value ->
      match Value_policy.greedy_accept sw with
      | Some d -> d
      | None ->
        (* The paper drops only when the buffer minimum is strictly bigger
           than the arriving value; on equality MRD pushes out, which is
           what makes it emulate LQD under unit values.  The buffer minimum
           is the switch's O(1) incremental tracker. *)
        let victim =
          if Value_switch.min_value_or sw ~default:max_int <= value then
            select sw
          else -1
        in
        if victim >= 0 then Decision.Push_out { victim } else Decision.Drop)
