(** Markov-modulated Poisson on-off source (Section V-A).

    A two-state Markov chain toggles the source between "on" and "off" each
    slot; while on, the source emits a Poisson-distributed number of packets
    per slot with mean [rate_on]; while off, it is silent. *)

open Smbm_prelude

type t

val create :
  rng:Rng.t ->
  p_on_to_off:float ->
  p_off_to_on:float ->
  rate_on:float ->
  ?start_on:bool ->
  unit ->
  t
(** Transition probabilities must lie in [0, 1]; [rate_on] must be finite,
    non-negative and at most [2^52] (see {!Smbm_prelude.Rng.poisson}).  NaN
    fails every check.  The initial state is drawn from the stationary
    distribution unless [start_on] is given.
    @raise Invalid_argument otherwise. *)

val create_batch :
  rng:Rng.t ->
  p_on_to_off:float ->
  p_off_to_on:float ->
  sample:(Rng.t -> int) ->
  mean:float ->
  ?start_on:bool ->
  unit ->
  t
(** Like {!create} but with an arbitrary per-slot batch-size distribution in
    the on state ([sample], with the declared [mean] used for rate
    accounting, finite and non-negative) — e.g.
    {!Smbm_prelude.Rng.pareto_int} for heavy-tailed bursts. *)

val step : t -> int
(** Advance one slot: sample the state transition, then return the number of
    packets emitted during this slot.  Allocates nothing for a {!create}d
    source. *)

val is_on : t -> bool

val duty_cycle : t -> float
(** Stationary probability of the "on" state. *)

val mean_rate : t -> float
(** Long-run packets per slot: [duty_cycle * rate_on]. *)
