(** FIFO output queue of the processing model, over boxed packet records:
    the reference model the tests hold {!Smbm_core.Proc_switch}'s
    struct-of-arrays queues against.

    Every packet admitted to a queue has the same required work (the port's
    traffic type); only the head-of-line packet may be partially processed.
    The queue maintains its total remaining work [W_i] incrementally — the
    quantity the LWD policy compares across queues. *)


type t

val create : work:int -> t
(** An empty queue for a port whose packets require [work] cycles. *)

val length : t -> int

val total_work : t -> int
(** Sum of residual works of all queued packets ([W_i] in the paper). *)

val hol_residual : t -> int
(** Residual work of the head-of-line packet; 0 when empty. *)

val push : t -> Smbm_core.Packet.Proc.t -> unit
(** Append at the tail.
    @raise Invalid_argument if the packet's work differs from the port's. *)

val pop_back : t -> Smbm_core.Packet.Proc.t
(** Remove the tail packet (the one a push-out policy evicts).
    @raise Invalid_argument on an empty queue. *)

val process : t -> cycles:int -> on_transmit:(Smbm_core.Packet.Proc.t -> unit) -> int
(** Apply up to [cycles] processing cycles, head-of-line first and
    run-to-completion: when a packet finishes mid-budget the remaining cycles
    continue with the next packet.  Calls [on_transmit] on each completed
    packet and returns the number transmitted. *)

val to_list : t -> Smbm_core.Packet.Proc.t list

val clear : t -> int
(** Drop all packets, returning how many were dropped. *)
