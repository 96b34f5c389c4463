open Smbm_prelude
open Smbm_core

(* A plain bucket array, scanned for its extreme non-empty bucket: O(k) per
   read, and deliberately not the switch's bitset layout, so the two are
   independent implementations of the same order. *)

type t = {
  k : int;
  buckets : Packet.Value.t Deque.t array; (* index by value; slot 0 unused *)
  mutable size : int;
  mutable sum : int;
}

let create ~k =
  if k < 1 then invalid_arg "Value_queue.create: k must be >= 1";
  { k; buckets = Array.init (k + 1) (fun _ -> Deque.create ()); size = 0; sum = 0 }

let length t = t.size
let total_value t = t.sum

let average_value t =
  if t.size = 0 then 0.0 else float_of_int t.sum /. float_of_int t.size

let rec first_nonempty t v step =
  if Deque.is_empty t.buckets.(v) then first_nonempty t (v + step) step else v

let min_value t = if t.size = 0 then None else Some (first_nonempty t 1 1)
let max_value t = if t.size = 0 then None else Some (first_nonempty t t.k (-1))

let push t (p : Packet.Value.t) =
  if p.value < 1 || p.value > t.k then
    invalid_arg "Value_queue.push: value out of range";
  Deque.push_back t.buckets.(p.value) p;
  t.size <- t.size + 1;
  t.sum <- t.sum + p.value

let pop t ~from ~step ~take =
  let p = take t.buckets.(first_nonempty t from step) in
  t.size <- t.size - 1;
  t.sum <- t.sum - p.Packet.Value.value;
  p

let pop_min t =
  if t.size = 0 then invalid_arg "Value_queue.pop_min: empty";
  pop t ~from:1 ~step:1 ~take:Deque.pop_back

let pop_max t =
  if t.size = 0 then invalid_arg "Value_queue.pop_max: empty";
  pop t ~from:t.k ~step:(-1) ~take:Deque.pop_front

let to_list t =
  let acc = ref [] in
  for v = 1 to t.k do
    Deque.iter (fun p -> acc := p :: !acc) t.buckets.(v)
  done;
  !acc

let clear t =
  let dropped = t.size in
  Array.iter Deque.clear t.buckets;
  t.size <- 0;
  t.sum <- 0;
  dropped
