(** Priority output queue of the value model, over boxed packet records:
    the reference model the tests hold {!Smbm_core.Value_switch}'s
    struct-of-arrays buckets against.

    Packets are kept in non-increasing value order: transmission takes the
    most valuable packet, push-out evicts the least valuable one.  Within a
    value, transmission is FIFO ([pop_max] takes the oldest packet of the
    maximum value) and push-out evicts the most recently admitted packet
    ([pop_min] takes the youngest packet of the minimum value, "the last
    packet" of the queue) — the switch's intra-bucket order. *)

type t

val create : k:int -> t
(** Empty queue accepting values in [1 .. k]. *)

val length : t -> int

val total_value : t -> int
(** Sum of queued packet values. *)

val average_value : t -> float
(** [a_j] in the paper's MRD definition; 0 when empty. *)

val min_value : t -> int option
val max_value : t -> int option

val push : t -> Smbm_core.Packet.Value.t -> unit
(** @raise Invalid_argument if the value is outside [1 .. k]. *)

val pop_min : t -> Smbm_core.Packet.Value.t
(** Evict the least valuable packet (most recent arrival among ties).
    @raise Invalid_argument on an empty queue. *)

val pop_max : t -> Smbm_core.Packet.Value.t
(** Transmit the most valuable packet (earliest arrival among ties).
    @raise Invalid_argument on an empty queue. *)

val to_list : t -> Smbm_core.Packet.Value.t list
(** In non-increasing value order. *)

val clear : t -> int
(** Drop all packets, returning how many were dropped. *)
