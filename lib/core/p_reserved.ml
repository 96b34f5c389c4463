(* Two victim selections, one per admission branch, both answered from
   incremental indexes in O(log n) (with the original O(n) scans kept as
   the reference oracle under [~impl:`Scan]):

   - pool branch (arrival's queue at/above its reservation): argmax over
     all queues of (pool overflow with the arrival virtually added to
     [dest], port work, index) — replacement on [key >= best], so full
     ties keep the largest index;

   - reclaim branch (arrival still inside its reservation): argmax over
     queues other than [dest] of (pool overflow, port work), eligible only
     with positive overflow — replacement on strict [key > best] seeded at
     [(0, max_int)], so full ties keep the *smallest* index.

   All comparisons are explicit integer comparisons. *)

(* Pool slots used by queue j: packets above its reservation. *)
let overflow ~reserve sw j ~dest =
  let len = Proc_switch.queue_length sw j + if j = dest then 1 else 0 in
  max 0 (len - reserve)

let select_pool_victim_scan ~reserve sw ~dest =
  let best = ref 0 and best_ov = ref min_int and best_work = ref min_int in
  for j = 0 to Proc_switch.n sw - 1 do
    let ov = overflow ~reserve sw j ~dest
    and work = Proc_switch.port_work sw j in
    if ov > !best_ov || (ov = !best_ov && work >= !best_work) then begin
      best := j;
      best_ov := ov;
      best_work := work
    end
  done;
  !best

let select_reclaim_victim_scan ~reserve sw ~dest =
  let best = ref (-1) and best_ov = ref 0 and best_work = ref max_int in
  for j = 0 to Proc_switch.n sw - 1 do
    if j <> dest then begin
      let ov = overflow ~reserve sw j ~dest
      and work = Proc_switch.port_work sw j in
      if ov > !best_ov || (ov = !best_ov && work > !best_work) then begin
        best := j;
        best_ov := ov;
        best_work := work
      end
    end
  done;
  !best

(* Both indexes are keyed lexicographic trees over (derived pool overflow,
   port work), differing only in the index tie — largest for the pool
   branch, smallest for the reclaim branch (matching the strict-[>] scan).
   The work column aliases the live aggregate; the overflow key is
   refreshed per invalidation. *)
let overflow_index sw ~key ~reserve ~tie =
  let v = Proc_switch.view sw in
  Proc_switch.find_index_with sw ~key (fun ~n ->
      let k1 = Array.make n 0 in
      Agg_index.create_lex ~n ~tie ~k1 ~k2:v.Proc_switch.view_works
        ~refresh:(fun j ->
          k1.(j) <- max 0 (v.Proc_switch.view_qlen.(j) - reserve))
        ())

let pool_index ~reserve sw =
  overflow_index sw ~key:(Printf.sprintf "rsv:%d" reserve) ~reserve
    ~tie:`Largest_index

let reclaim_index ~reserve sw =
  overflow_index sw ~key:(Printf.sprintf "rsv-reclaim:%d" reserve) ~reserve
    ~tie:`Smallest_index

let select_pool_victim_indexed ~reserve idx sw ~dest =
  let c = Agg_index.top_excluding idx dest in
  if c < 0 then dest
  else begin
    let dov = overflow ~reserve sw dest ~dest
    and cov = max 0 (Proc_switch.queue_length sw c - reserve) in
    if cov > dov then c
    else if cov < dov then dest
    else begin
      let cw = Proc_switch.port_work sw c
      and dw = Proc_switch.port_work sw dest in
      if cw > dw || (cw = dw && c > dest) then c else dest
    end
  end

let select_reclaim_victim_indexed ~reserve idx sw ~dest =
  let c = Agg_index.top_excluding idx dest in
  if c < 0 || max 0 (Proc_switch.queue_length sw c - reserve) = 0 then -1
  else c

let make ~reserve ?impl config =
  if reserve < 0 then invalid_arg "P_reserved.make: negative reserve";
  if Proc_config.n config * reserve > config.Proc_config.buffer then
    invalid_arg "P_reserved.make: reservations exceed the buffer";
  let name = Printf.sprintf "RSV(%d)" reserve in
  let indexes =
    Proc_policy.per_switch (fun sw ->
        (pool_index ~reserve sw, reclaim_index ~reserve sw))
  in
  let select_pool, select_reclaim =
    match impl with
    | Some `Scan ->
      (select_pool_victim_scan ~reserve, select_reclaim_victim_scan ~reserve)
    | None ->
      ( (fun sw ~dest ->
          let pool, _ = indexes sw in
          select_pool_victim_indexed ~reserve pool sw ~dest),
        fun sw ~dest ->
          let _, reclaim = indexes sw in
          select_reclaim_victim_indexed ~reserve reclaim sw ~dest )
  in
  let admit_batch =
    match impl with
    | Some `Scan -> None
    | None ->
      Some
        (fun sw batch (c : Admission.counters) ->
          let pool, reclaim = indexes sw in
          for i = 0 to Arrival_batch.length batch - 1 do
            let dest = Arrival_batch.unsafe_dest batch i in
            if not (Proc_switch.is_full sw) then begin
              Proc_switch.accept_unit sw ~dest;
              c.Admission.accepted <- c.Admission.accepted + 1
            end
            else if Proc_switch.queue_length sw dest >= reserve then begin
              let victim = select_pool_victim_indexed ~reserve pool sw ~dest in
              if victim <> dest && overflow ~reserve sw victim ~dest > 0
              then begin
                Proc_switch.push_out_unit sw ~victim;
                Proc_switch.accept_unit sw ~dest;
                c.Admission.pushed_out <- c.Admission.pushed_out + 1;
                c.Admission.accepted <- c.Admission.accepted + 1
              end
              else c.Admission.dropped <- c.Admission.dropped + 1
            end
            else begin
              let victim =
                select_reclaim_victim_indexed ~reserve reclaim sw ~dest
              in
              if victim >= 0 then begin
                Proc_switch.push_out_unit sw ~victim;
                Proc_switch.accept_unit sw ~dest;
                c.Admission.pushed_out <- c.Admission.pushed_out + 1;
                c.Admission.accepted <- c.Admission.accepted + 1
              end
              else c.Admission.dropped <- c.Admission.dropped + 1
            end
          done)
  in
  Proc_policy.make ?admit_batch ~name ~push_out:true (fun sw ~dest ->
      match Proc_policy.greedy_accept sw with
      | Some d -> d
      | None ->
        (* Buffer full.  The arrival may displace pool usage only while its
           own queue is inside its reservation. *)
        if Proc_switch.queue_length sw dest >= reserve then begin
          (* The arrival itself would take a pool slot: evict from the queue
             using the most pool slots (LQD over the pool, virtual add). *)
          let victim = select_pool sw ~dest in
          if victim <> dest && overflow ~reserve sw victim ~dest > 0 then
            Decision.Push_out { victim }
          else Decision.Drop
        end
        else begin
          (* Reserved slot owed to this arrival: reclaim it from the largest
             pool user (some queue must be above its reservation, since the
             buffer is full and this queue is below). *)
          let victim = select_reclaim sw ~dest in
          if victim >= 0 then Decision.Push_out { victim }
          else Decision.Drop
        end)
