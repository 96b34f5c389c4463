(** Packet-labelling rules: how an emitted packet gets its output port and
    (in the value model) its intrinsic value. *)

open Smbm_prelude
open Smbm_core

type t

val uniform_port : n:int -> t
(** Destination uniform on [0, n); value 1 (processing model: the port
    determines the work). *)

val uniform_port_and_value : n:int -> k:int -> t
(** Destination uniform on [0, n), value uniform on [1, k], independently
    (Fig. 5 panels 4-6). *)

val value_equals_port : n:int -> t
(** Destination uniform on [0, n); value = port index + 1, so each port
    carries exactly one value (Fig. 5 panels 7-9). *)

val fixed_port : dest:int -> ?value:int -> unit -> t
(** Always [dest] with [value] (default 1); draws nothing.
    @raise Invalid_argument on a negative [dest] or a [value] below 1. *)

val weighted_port : weights:float array -> ?value_of_port:(int -> int) -> unit -> t
(** Destination drawn proportionally to [weights] ({!Rng.weighted}); value
    given by [value_of_port] (default 1), which must return at least 1.
    @raise Invalid_argument if weights are empty, negative or all zero. *)

val push : t -> Rng.t -> Arrival_batch.t -> unit
(** Draw one packet's label from [rng] and append it to the batch.
    Allocates nothing unless the batch grows. *)
