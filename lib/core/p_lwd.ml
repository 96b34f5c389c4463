type tie = Largest_work | Smallest_work | Longest_queue

(* argmax over queues of (virtual total work, tie key, index); the virtual
   total counts the arriving packet's full work as already added to
   [dest].

   Tie rule: among queues of equal virtual total work, the larger tie key
   wins, and among fully equal keys the larger port index wins — the scan
   realises this with replacement on [key >= best] while iterating
   j = 0 .. n-1, and every comparison below is an explicit integer
   comparison (no polymorphic compare, no tuple allocation).  The indexed
   path must reproduce this choice bit-for-bit; [select_victim_scan] keeps
   the original O(n) scan as the reference oracle. *)

let tie_key ~tie sw j =
  match tie with
  | Largest_work -> Proc_switch.port_work sw j
  | Smallest_work -> -Proc_switch.port_work sw j
  | Longest_queue -> Proc_switch.queue_length sw j

let select_victim_scan ?(protect_last = false) ?(tie = Largest_work) sw ~dest =
  let min_len = if protect_last then 2 else 1 in
  let best = ref (-1) and best_work = ref min_int and best_tie = ref min_int in
  for j = 0 to Proc_switch.n sw - 1 do
    let eligible =
      (* A queue is an eligible victim if a push-out would be legal (it is
         non-empty, with at least 2 packets under protection) or if it is
         the destination itself (whose selection means "drop"). *)
      j = dest || Proc_switch.queue_length sw j >= min_len
    in
    if eligible then begin
      let work_total =
        Proc_switch.queue_work sw j
        + if j = dest then Proc_switch.port_work sw dest else 0
      in
      let tk = tie_key ~tie sw j + if tie = Longest_queue && j = dest then 1 else 0 in
      if
        work_total > !best_work
        || (work_total = !best_work && tk >= !best_tie)
      then begin
        best := j;
        best_work := work_total;
        best_tie := tk
      end
    end
  done;
  (* [dest] is always eligible, so [best] is set. *)
  !best

let key_name ~protect_last ~tie =
  match (protect_last, tie) with
  | false, Largest_work -> "lwd"
  | true, Largest_work -> "lwd:protect"
  | false, Smallest_work -> "lwd:small-work"
  | true, Smallest_work -> "lwd:protect:small-work"
  | false, Longest_queue -> "lwd:long-queue"
  | true, Longest_queue -> "lwd:protect:long-queue"

(* Keyed lexicographic tree, ineligibility encoded as (min_int, 0) — an
   eligible queue's total work is >= 1 > min_int, so the encoding ranks
   every ineligible queue last, among its peers by the index tie.  Both
   keys are derived (the tie key depends on [tie]), refreshed per
   invalidation from the live aggregate columns. *)
let index ~protect_last ~tie sw =
  let min_len = if protect_last then 2 else 1 in
  let key = key_name ~protect_last ~tie in
  let v = Proc_switch.view sw in
  Proc_switch.find_index_with sw ~key (fun ~n ->
      let k1 = Array.make n 0 and k2 = Array.make n 0 in
      Agg_index.create_lex ~n ~k1 ~k2
        ~refresh:(fun j ->
          if v.Proc_switch.view_qlen.(j) >= min_len then begin
            k1.(j) <- v.Proc_switch.view_qwork.(j);
            k2.(j) <-
              (match tie with
              | Largest_work -> v.Proc_switch.view_works.(j)
              | Smallest_work -> -v.Proc_switch.view_works.(j)
              | Longest_queue -> v.Proc_switch.view_qlen.(j))
          end
          else begin
            k1.(j) <- min_int;
            k2.(j) <- 0
          end)
        ())

let select_victim_indexed ~protect_last ~tie idx sw ~dest =
  let min_len = if protect_last then 2 else 1 in
  (* The destination is always eligible (selecting it means "drop"), with
     the arriving packet's work virtually added; every other queue competes
     with its actual aggregates via the index. *)
  let dw = Proc_switch.queue_work sw dest + Proc_switch.port_work sw dest in
  let dt =
    tie_key ~tie sw dest + if tie = Longest_queue then 1 else 0
  in
  let c = Agg_index.top_excluding idx dest in
  if c < 0 || Proc_switch.queue_length sw c < min_len then dest
  else begin
    let cw = Proc_switch.queue_work sw c in
    if cw > dw then c
    else if cw < dw then dest
    else begin
      let ct = tie_key ~tie sw c in
      if ct > dt || (ct = dt && c > dest) then c else dest
    end
  end

let select_victim ?(protect_last = false) ?(tie = Largest_work) sw ~dest =
  select_victim_indexed ~protect_last ~tie (index ~protect_last ~tie sw) sw
    ~dest

let name ~protect_last ~tie =
  let base = if protect_last then "LWD1" else "LWD" in
  match tie with
  | Largest_work -> base
  | Smallest_work -> base ^ "/tie=small-work"
  | Longest_queue -> base ^ "/tie=long-queue"

let make ?(protect_last = false) ?(tie = Largest_work) ?impl _config =
  let index = Proc_policy.per_switch (index ~protect_last ~tie) in
  let select =
    match impl with
    | Some `Scan -> fun sw ~dest -> select_victim_scan ~protect_last ~tie sw ~dest
    | None ->
      fun sw ~dest ->
        select_victim_indexed ~protect_last ~tie (index sw) sw ~dest
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
              let victim = select_victim_indexed ~protect_last ~tie idx sw ~dest in
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
  Proc_policy.make ?admit_batch ~name:(name ~protect_last ~tie)
    ~push_out:true (fun sw ~dest ->
      match Proc_policy.greedy_accept sw with
      | Some d -> d
      | None ->
        let victim = select sw ~dest in
        if victim <> dest then Decision.Push_out { victim } else Decision.Drop)
