type t = {
  name : string;
  push_out : bool;
  admit : Value_switch.t -> dest:int -> value:int -> Decision.t;
  admit_batch :
    (Value_switch.t -> Arrival_batch.t -> Admission.counters -> unit) option;
}

let make ?admit_batch ~name ~push_out admit =
  { name; push_out; admit; admit_batch }

let per_switch f =
  let cache = ref None in
  fun sw ->
    match !cache with
    | Some (sw', x) when sw' == sw -> x
    | Some _ | None ->
      let x = f sw in
      cache := Some (sw, x);
      x

let admit t sw ~dest ~value = t.admit sw ~dest ~value
let admit_batch t = t.admit_batch

let greedy_accept sw =
  if Value_switch.is_full sw then None else Some Decision.Accept
