(** Buffer-management policies for the value model.

    Like {!Proc_policy}, but the arriving packet additionally carries its
    intrinsic value. *)

type t = {
  name : string;
  push_out : bool;
  admit : Value_switch.t -> dest:int -> value:int -> Decision.t;
  admit_batch :
    (Value_switch.t -> Arrival_batch.t -> Admission.counters -> unit) option;
      (** Fused batch-admission kernel; see {!Proc_policy.admit_batch} for
          the contract. *)
}

val make :
  ?admit_batch:
    (Value_switch.t -> Arrival_batch.t -> Admission.counters -> unit) ->
  name:string ->
  push_out:bool ->
  (Value_switch.t -> dest:int -> value:int -> Decision.t) ->
  t

val per_switch : (Value_switch.t -> 'a) -> Value_switch.t -> 'a
(** [per_switch f] memoizes [f] on the last switch it was applied to
    (physical equality): how a policy keeps the victim index it
    registered on the engine's switch without a lookup per arrival.  A
    hit allocates nothing. *)

val admit : t -> Value_switch.t -> dest:int -> value:int -> Decision.t

val admit_batch :
  t ->
  (Value_switch.t -> Arrival_batch.t -> Admission.counters -> unit) option

val greedy_accept : Value_switch.t -> Decision.t option
(** [Some Accept] when the buffer has free space, [None] otherwise. *)
