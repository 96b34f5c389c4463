open Smbm_prelude
open Smbm_core

(* A rule is data, not a closure returning an [Arrival.t]: [push] draws
   the label and writes it straight into the batch, so labelling a packet
   allocates nothing. *)
type t =
  | Uniform_port of int
  | Uniform_port_and_value of { n : int; k : int }
  | Value_equals_port of int
  | Fixed of { dest : int; value : int }
  | Weighted of {
      weights : float array;
      total : float;
      value_of_port : int -> int;
    }

let uniform_port ~n = Uniform_port n
let uniform_port_and_value ~n ~k = Uniform_port_and_value { n; k }
let value_equals_port ~n = Value_equals_port n

let fixed_port ~dest ?(value = 1) () =
  ignore (Arrival.make ~dest ~value () : Arrival.t);
  Fixed { dest; value }

let weighted_port ~weights ?(value_of_port = fun _ -> 1) () =
  let total = Array.fold_left ( +. ) 0.0 weights in
  if Array.length weights = 0 then invalid_arg "Label.weighted_port: empty";
  Array.iter
    (fun w -> if w < 0.0 then invalid_arg "Label.weighted_port: negative weight")
    weights;
  if total <= 0.0 then invalid_arg "Label.weighted_port: all weights zero";
  Weighted { weights; total; value_of_port }

let push t rng b =
  match t with
  | Uniform_port n -> Arrival_batch.push b ~dest:(Rng.int rng n) ~value:1
  | Uniform_port_and_value { n; k } ->
    (* Destination first, then value: the historical draw order. *)
    let dest = Rng.int rng n in
    let value = Rng.int_in rng 1 k in
    Arrival_batch.push b ~dest ~value
  | Value_equals_port n ->
    let dest = Rng.int rng n in
    Arrival_batch.push b ~dest ~value:(dest + 1)
  | Fixed { dest; value } -> Arrival_batch.push b ~dest ~value
  | Weighted { weights; total; value_of_port } ->
    let dest = Rng.weighted rng weights ~total in
    let value = value_of_port dest in
    if value < 1 then invalid_arg "Label.weighted_port: value must be >= 1";
    Arrival_batch.push b ~dest ~value
