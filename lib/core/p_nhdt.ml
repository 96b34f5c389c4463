open Smbm_prelude

let admits ~buffer ~lengths ~dest =
  let n = Array.length lengths in
  let li = lengths.(dest) in
  let m = ref 0 and sum = ref 0 in
  for j = 0 to n - 1 do
    let l = lengths.(j) in
    if l >= li then begin
      incr m;
      sum := !sum + l
    end
  done;
  float_of_int !sum < float_of_int buffer /. Harmonic.h n *. Harmonic.h !m

let make config =
  let n = Proc_config.n config in
  let buffer = config.Proc_config.buffer in
  (* [bound.(m)] is [(B / H_n) * H_m], evaluated once by the same float
     expression as [admits]; the per-arrival test compares against the
     stored (unboxed) float, so it allocates nothing and decides
     bit-identically. *)
  let bound =
    Array.init (n + 1) (fun m ->
        float_of_int buffer /. Harmonic.h n *. Harmonic.h m)
  in
  Proc_policy.make ~name:"NHDT" ~push_out:false (fun sw ~dest ->
      if Proc_switch.is_full sw then Decision.Drop
      else begin
        let li = Proc_switch.queue_length sw dest in
        let m = ref 0 and sum = ref 0 in
        for j = 0 to n - 1 do
          let l = Proc_switch.queue_length sw j in
          if l >= li then begin
            incr m;
            sum := !sum + l
          end
        done;
        if float_of_int !sum < Array.unsafe_get bound !m then Decision.Accept
        else Decision.Drop
      end)
