open Smbm_prelude
open Smbm_core

type t = {
  work : int;
  packets : Packet.Proc.t Deque.t;
  mutable total_work : int;
}

let create ~work =
  if work < 1 then invalid_arg "Work_queue.create: work must be >= 1";
  { work; packets = Deque.create (); total_work = 0 }

let length t = Deque.length t.packets
let is_empty t = Deque.is_empty t.packets
let total_work t = t.total_work

let hol_residual t =
  if is_empty t then 0 else (Deque.peek_front t.packets).Packet.Proc.residual

let push t (p : Packet.Proc.t) =
  if p.work <> t.work then
    invalid_arg "Work_queue.push: packet work does not match port work";
  Deque.push_back t.packets p;
  t.total_work <- t.total_work + p.residual

let pop_back t =
  if is_empty t then invalid_arg "Work_queue.pop_back: empty";
  let p = Deque.pop_back t.packets in
  t.total_work <- t.total_work - p.Packet.Proc.residual;
  p

let process t ~cycles ~on_transmit =
  let budget = ref cycles in
  let transmitted = ref 0 in
  while !budget > 0 && not (is_empty t) do
    let hol = Deque.peek_front t.packets in
    let served = min !budget hol.Packet.Proc.residual in
    hol.residual <- hol.residual - served;
    t.total_work <- t.total_work - served;
    budget := !budget - served;
    if hol.residual = 0 then begin
      let p = Deque.pop_front t.packets in
      incr transmitted;
      on_transmit p
    end
  done;
  !transmitted

let to_list t = Deque.to_list t.packets

let clear t =
  let dropped = length t in
  Deque.clear t.packets;
  t.total_work <- 0;
  dropped
