(* Differential testing: the optimized switch implementations (ring-buffer
   deques with cached aggregates; value buckets with cached sums) against
   deliberately naive list-based oracles, under long random operation
   sequences. *)

open Smbm_core

(* --- processing-model oracle: queues as lists of residuals --- *)

module Proc_oracle = struct
  type t = {
    works : int array;
    buffer : int;
    speedup : int;
    mutable queues : int list array;  (* residuals, head first *)
  }

  let create ~works ~buffer ~speedup =
    { works; buffer; speedup; queues = Array.make (Array.length works) [] }

  let occupancy t =
    Array.fold_left (fun acc q -> acc + List.length q) 0 t.queues

  let accept t ~dest = t.queues.(dest) <- t.queues.(dest) @ [ t.works.(dest) ]

  let push_out t ~victim =
    match List.rev t.queues.(victim) with
    | [] -> invalid_arg "oracle: empty victim"
    | _ :: rest_rev -> t.queues.(victim) <- List.rev rest_rev

  let transmit t =
    let sent = ref 0 in
    Array.iteri
      (fun i q ->
        let budget = ref t.speedup in
        let rec serve = function
          | [] -> []
          | hol :: rest ->
            if !budget = 0 then hol :: rest
            else begin
              let used = min !budget hol in
              budget := !budget - used;
              if hol - used = 0 then begin
                incr sent;
                serve rest
              end
              else (hol - used) :: rest
            end
        in
        t.queues.(i) <- serve q)
      t.queues;
    !sent

  let lengths t = Array.map List.length t.queues
  let works_totals t = Array.map (List.fold_left ( + ) 0) t.queues
end

let prop_proc_switch_matches_oracle =
  QCheck2.Test.make ~name:"Proc_switch agrees with a naive list oracle"
    ~count:200
    QCheck2.Gen.(
      let* n = int_range 1 4 in
      let* works = array_size (pure n) (int_range 1 5) in
      let* buffer = int_range 1 6 in
      let* speedup = int_range 1 3 in
      let* ops =
        list_size (int_range 1 60)
          (oneof
             [
               map (fun d -> `Accept d) (int_range 0 (n - 1));
               map (fun v -> `Push_out v) (int_range 0 (n - 1));
               pure `Transmit;
               pure `Flush;
             ])
      in
      pure (works, buffer, speedup, ops))
    (fun (works, buffer, speedup, ops) ->
      let config = Proc_config.make ~works ~buffer ~speedup () in
      let sw = Proc_switch.create config in
      let oracle = Proc_oracle.create ~works ~buffer ~speedup in
      let ok = ref true in
      List.iter
        (fun op ->
          (match op with
          | `Accept dest ->
            if not (Proc_switch.is_full sw) then begin
              ignore (Proc_switch.accept sw ~dest);
              Proc_oracle.accept oracle ~dest
            end
          | `Push_out victim ->
            if Proc_switch.queue_length sw victim > 0 then begin
              ignore (Proc_switch.push_out sw ~victim);
              Proc_oracle.push_out oracle ~victim
            end
          | `Transmit ->
            let a = Proc_switch.transmit_phase sw ~on_transmit:(fun _ -> ()) in
            let b = Proc_oracle.transmit oracle in
            if a <> b then ok := false
          | `Flush ->
            let flushed = Proc_switch.flush sw in
            if flushed <> Proc_oracle.occupancy oracle then ok := false;
            Array.iteri (fun i _ -> oracle.Proc_oracle.queues.(i) <- []) oracle.Proc_oracle.queues);
          Proc_switch.check_invariants sw;
          if Proc_switch.occupancy sw <> Proc_oracle.occupancy oracle then
            ok := false;
          let lengths = Proc_oracle.lengths oracle in
          let totals = Proc_oracle.works_totals oracle in
          Array.iteri
            (fun i l ->
              if Proc_switch.queue_length sw i <> l then ok := false;
              if Proc_switch.queue_work sw i <> totals.(i) then ok := false)
            lengths)
        ops;
      !ok)

(* --- value-model oracle: queues as descending-sorted value lists --- *)

module Value_oracle = struct
  type t = { speedup : int; mutable queues : int list array }

  let create ~n ~speedup = { speedup; queues = Array.make n [] }

  let occupancy t =
    Array.fold_left (fun acc q -> acc + List.length q) 0 t.queues

  let accept t ~dest ~value =
    t.queues.(dest) <-
      List.sort (fun a b -> compare b a) (value :: t.queues.(dest))

  let push_out t ~victim =
    match List.rev t.queues.(victim) with
    | [] -> invalid_arg "oracle: empty victim"
    | v :: rest_rev ->
      t.queues.(victim) <- List.rev rest_rev;
      v

  let transmit t =
    let value = ref 0 and count = ref 0 in
    Array.iteri
      (fun i q ->
        let rec take budget = function
          | v :: rest when budget > 0 ->
            value := !value + v;
            incr count;
            take (budget - 1) rest
          | rest -> rest
        in
        t.queues.(i) <- take t.speedup q)
      t.queues;
    (!count, !value)
end

let prop_value_switch_matches_oracle =
  QCheck2.Test.make ~name:"Value_switch agrees with a naive list oracle"
    ~count:200
    QCheck2.Gen.(
      let* n = int_range 1 4 in
      let* k = int_range 1 6 in
      let* buffer = int_range 1 6 in
      let* speedup = int_range 1 3 in
      let* ops =
        list_size (int_range 1 60)
          (oneof
             [
               map2 (fun d v -> `Accept (d, v)) (int_range 0 (n - 1)) (int_range 1 k);
               map (fun v -> `Push_out v) (int_range 0 (n - 1));
               pure `Transmit;
             ])
      in
      pure (n, k, buffer, speedup, ops))
    (fun (n, k, buffer, speedup, ops) ->
      let config = Value_config.make ~ports:n ~max_value:k ~buffer ~speedup () in
      let sw = Value_switch.create config in
      let oracle = Value_oracle.create ~n ~speedup in
      let ok = ref true in
      List.iter
        (fun op ->
          (match op with
          | `Accept (dest, value) ->
            if not (Value_switch.is_full sw) then begin
              ignore (Value_switch.accept sw ~dest ~value);
              Value_oracle.accept oracle ~dest ~value
            end
          | `Push_out victim ->
            if Value_switch.queue_length sw victim > 0 then begin
              let p = Value_switch.push_out sw ~victim in
              let v = Value_oracle.push_out oracle ~victim in
              if p.Packet.Value.value <> v then ok := false
            end
          | `Transmit ->
            let value = ref 0 and count = ref 0 in
            ignore
              (Value_switch.transmit_phase sw ~on_transmit:(fun p ->
                   value := !value + p.Packet.Value.value;
                   incr count));
            let c, v = Value_oracle.transmit oracle in
            if !count <> c || !value <> v then ok := false);
          Value_switch.check_invariants sw;
          if Value_switch.occupancy sw <> Value_oracle.occupancy oracle then
            ok := false;
          Array.iteri
            (fun i q ->
              if Value_switch.queue_length sw i <> List.length q then
                ok := false;
              let min_v = match List.rev q with [] -> None | v :: _ -> Some v in
              if Value_switch.queue_min_value sw i <> min_v then ok := false;
              (* Full contents, in transmission order. *)
              let values = ref [] in
              Value_switch.iter_port sw i ~f:(fun ~value ~arrival:_ ~id:_ ->
                  values := value :: !values);
              if List.rev !values <> q then ok := false)
            oracle.Value_oracle.queues)
        ops;
      !ok)

let suite =
  [
    Qc.to_alcotest prop_proc_switch_matches_oracle;
    Qc.to_alcotest prop_value_switch_matches_oracle;
  ]
