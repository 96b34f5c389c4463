(** A traffic source: an MMPP emission process plus a labelling rule. *)

open Smbm_prelude
open Smbm_core

type t

val create : mmpp:Mmpp.t -> label:Label.t -> rng:Rng.t -> t
(** [rng] drives the labelling (the MMPP holds its own stream). *)

val step : t -> into:Arrival_batch.t -> unit
(** Advance one slot, appending this slot's emissions onto [into] in draw
    order.  Allocates nothing unless the batch grows. *)

val mean_rate : t -> float
