(** Buffer-management policies for the processing model.

    A policy is a pure admission rule: given the current switch state and an
    arriving packet's destination port, it returns a {!Decision.t}.  The
    engine applies the decision; the switch validates it.  Policies with
    per-instance state (none of the paper's need any) can close over it in
    [admit]. *)

type t = {
  name : string;
  push_out : bool;
      (** whether the policy ever evicts admitted packets; informational *)
  admit : Proc_switch.t -> dest:int -> Decision.t;
  admit_batch :
    (Proc_switch.t -> Arrival_batch.t -> Admission.counters -> unit) option;
      (** Fused batch-admission kernel: admit {e and apply} every arrival of
          a batch in one pass, adding into the counters, with per-batch
          (not per-packet) victim-index resolution.  Must make exactly the
          decisions the per-packet [admit] + engine application would —
          test/test_victim_oracle.ml fuzzes the two in lockstep.  The keyed
          push-out policies provide one (their [~impl:`Scan] oracles do
          not); engines fall back to the
          per-packet path when [None] (and whenever per-decision observers —
          recorder, flight recorder — are attached). *)
}

val make :
  ?admit_batch:
    (Proc_switch.t -> Arrival_batch.t -> Admission.counters -> unit) ->
  name:string ->
  push_out:bool ->
  (Proc_switch.t -> dest:int -> Decision.t) ->
  t

val per_switch : (Proc_switch.t -> 'a) -> Proc_switch.t -> 'a
(** [per_switch f] memoizes [f] on the last switch it was applied to
    (physical equality): how a policy keeps the victim index it
    registered on the engine's switch without a lookup per arrival.  A
    hit allocates nothing. *)

val admit : t -> Proc_switch.t -> dest:int -> Decision.t

val admit_batch :
  t -> (Proc_switch.t -> Arrival_batch.t -> Admission.counters -> unit) option

val greedy_accept : Proc_switch.t -> Decision.t option
(** [Some Accept] when the buffer has free space — the shared first clause of
    every greedy policy in the paper — and [None] otherwise. *)
