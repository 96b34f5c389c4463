(* argmax over eligible queues of (per-packet work, length, index); no
   virtual add — BPD's victim does not depend on the arrival.  The scan's
   replacement on [key >= best] keeps the largest index among full ties;
   the indexed path reproduces the same choice from the switch's
   incremental index.  Victims are plain ints, -1 meaning none, so a
   selection allocates nothing. *)

let select_victim_scan ~protect_last sw =
  let min_len = if protect_last then 2 else 1 in
  let best = ref (-1) and best_work = ref min_int and best_len = ref min_int in
  for j = 0 to Proc_switch.n sw - 1 do
    let len = Proc_switch.queue_length sw j in
    if len >= min_len then begin
      let work = Proc_switch.port_work sw j in
      if work > !best_work || (work = !best_work && len >= !best_len) then begin
        best := j;
        best_work := work;
        best_len := len
      end
    end
  done;
  !best

(* Keyed lexicographic tree with ineligibility encoded in the keys — an
   ineligible queue carries (min_int, 0), ranking below every eligible one
   (port work >= 1 > min_int) and among its peers by the index tie.  Both
   keys are derived, so a per-invalidation refresh recomputes them from
   the live aggregates. *)
let index ~protect_last sw =
  let min_len = if protect_last then 2 else 1 in
  let key = if protect_last then "bpd:protect" else "bpd" in
  let v = Proc_switch.view sw in
  Proc_switch.find_index_with sw ~key (fun ~n ->
      let k1 = Array.make n 0 and k2 = Array.make n 0 in
      Agg_index.create_lex ~n ~k1 ~k2
        ~refresh:(fun j ->
          if v.Proc_switch.view_qlen.(j) >= min_len then begin
            k1.(j) <- v.Proc_switch.view_works.(j);
            k2.(j) <- v.Proc_switch.view_qlen.(j)
          end
          else begin
            k1.(j) <- min_int;
            k2.(j) <- 0
          end)
        ())

let select_victim_indexed ~protect_last idx sw =
  let min_len = if protect_last then 2 else 1 in
  let c = Agg_index.top idx in
  if c < 0 || Proc_switch.queue_length sw c < min_len then -1 else c

let select_victim ~protect_last sw =
  select_victim_indexed ~protect_last (index ~protect_last sw) sw

(* "i <= j" in the work-sorted port order, i.e. the arriving packet's
   (work, port) does not come after the victim's. *)
let displaces sw ~dest ~victim =
  let aw = Proc_switch.port_work sw dest
  and vw = Proc_switch.port_work sw victim in
  aw < vw || (aw = vw && dest <= victim)

let make ?(protect_last = false) ?impl _config =
  let name = if protect_last then "BPD1" else "BPD" in
  let index = Proc_policy.per_switch (index ~protect_last) in
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
            let dest = Arrival_batch.unsafe_dest batch i in
            if not (Proc_switch.is_full sw) then begin
              Proc_switch.accept_unit sw ~dest;
              c.Admission.accepted <- c.Admission.accepted + 1
            end
            else begin
              let victim = select_victim_indexed ~protect_last idx sw in
              if victim >= 0 && displaces sw ~dest ~victim then begin
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
        let victim = select sw in
        if victim >= 0 && displaces sw ~dest ~victim then
          Decision.Push_out { victim }
        else Decision.Drop)
