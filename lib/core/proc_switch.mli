(** Shared-memory switch state for the heterogeneous-processing model.

    Holds [n] FIFO work queues drawing on one buffer of [B] packet slots.
    The switch performs mechanics only (admission, push-out, the transmission
    phase); *which* packets are admitted is the policy's job.  All mutating
    operations validate their preconditions and raise [Invalid_argument] on
    misuse, so an engine bug cannot silently corrupt an experiment.

    The state is a struct-of-arrays slab of unboxed int columns (residual
    work, arrival, id) with a free-list and one int ring of slot ids per
    port.  Through the [_unit]/[_fields] entry points below, a warmed
    switch runs the whole accept/push-out/transmit cycle without
    allocating; the packet-returning entry points build snapshot records
    for tests and analyses. *)

type t

type view = {
  view_works : int array;  (** per-port required work (configuration copy) *)
  view_qlen : int array;  (** live per-port packet counts *)
  view_qwork : int array;  (** live per-port total residual work *)
}
(** Read-only aliases of the switch's per-port aggregate columns.
    Policies hand these to {!Agg_index.create_lex} as key columns, so their
    victim indexes compare unboxed ints instead of calling a closure that
    re-reads switch accessors.  The arrays are the switch's own live state:
    never write through them. *)

val create : Proc_config.t -> t

val config : t -> Proc_config.t
(** The creation-time configuration.  Its [buffer] field is the {e initial}
    B; after {!set_buffer} the live bound is {!buffer}, not
    [(config t).buffer]. *)

val n : t -> int
val buffer : t -> int
val speedup : t -> int

val set_buffer : t -> int -> unit
(** Live-resize the shared buffer bound B.  Admission ([is_full],
    [free_space], [accept]) immediately honours the new bound; buffered
    packets are never dropped, which is why shrinking below the current
    occupancy is refused — the buffer drains down to the new bound through
    normal transmissions.  A grow extends the slot slab (existing slot ids
    stay valid); the slab never shrinks.
    @raise Invalid_argument if the new bound is [< 1] or smaller than the
    current occupancy. *)

val now : t -> int
(** Current slot number (starts at 0; advanced by [advance_slot]). *)

val advance_slot : t -> unit

val occupancy : t -> int
val free_space : t -> int
val is_full : t -> bool

val queue_length : t -> int -> int
val queue_work : t -> int -> int
(** Total residual work [W_i] of queue [i]. *)

val port_work : t -> int -> int
(** Required work per packet of port [i] (from the configuration). *)

val total_occupied_work : t -> int
(** Sum of [W_i] over all queues.  Maintained incrementally: O(1). *)

val iter_port :
  t -> int -> f:(residual:int -> arrival:int -> id:int -> unit) -> unit
(** The packets queued at port [i], head-of-line first: residual work,
    arrival slot and packet id of each.  The read API of tests and
    analyses (e.g. {!Smbm_analysis.Mapping_certifier}) that need queue
    contents, not just the aggregates.
    @raise Invalid_argument on a bad port. *)

val find_index_with :
  t -> key:string -> (n:int -> Agg_index.t) -> Agg_index.t
(** The victim-selection index registered under [key], creating (and
    building) it with [make ~n] on first use.  Policies register
    monomorphic keyed indexes ({!Agg_index.create_lex}) over the
    {!view}'s columns.  The switch re-validates every registered index on
    each mutation, so registrations should be few (one per policy variant
    driving this switch). *)

val view : t -> view
(** The live aggregate columns. *)

val accept : t -> dest:int -> Packet.Proc.t
(** Admit a fresh packet to [dest]'s queue; assigns the next packet id.
    The returned record is a snapshot of the admitted slot (allocated per
    call — engines use {!accept_unit}).
    @raise Invalid_argument if the buffer is full. *)

val accept_unit : t -> dest:int -> unit
(** {!accept} without materializing the packet — allocation-free. *)

val push_out : t -> victim:int -> Packet.Proc.t
(** Evict the tail packet of queue [victim] (freeing one slot).
    @raise Invalid_argument if that queue is empty. *)

val push_out_unit : t -> victim:int -> unit
(** {!push_out} without materializing the evicted packet. *)

val transmit_phase : t -> on_transmit:(Packet.Proc.t -> unit) -> int
(** One transmission phase: every non-empty queue receives [speedup]
    processing cycles (head-of-line, run-to-completion).  Returns the number
    of packets transmitted. *)

val transmit_phase_fields :
  t -> on_transmit:(dest:int -> arrival:int -> unit) -> int
(** {!transmit_phase} delivering each transmission as plain fields instead
    of a packet record — allocation-free.  Same
    ordering, accounting and exception contract as {!transmit_phase}. *)

val serve_port : t -> int -> on_transmit:(Packet.Proc.t -> unit) -> int
(** Give a single port its [speedup] cycles (a transmission phase restricted
    to one queue).  Used by analyses that need the paper's port-by-port
    event ordering.  Returns the number of packets transmitted.

    Exception-safe: each transmitted packet is fully accounted (occupancy,
    work aggregate, indexes) {e before} [on_transmit] sees it, so a raising
    hook propagates out of a switch that still satisfies
    {!check_invariants}. *)

val flush : t -> int
(** Discard all buffered packets (the simulator's periodic flushout);
    returns how many were discarded.
    @raise Invalid_argument if the occupancy count disagrees with the queue
    contents — state corruption that must not be ignored (a real check, not
    an [assert] stripped under [-noassert]). *)

val check_invariants : t -> unit
(** Assert internal consistency (occupancy = sum of queue lengths <= B;
    cached work totals match queue contents; slab/free-list disjointness
    and per-slot residual bounds; every registered index is fresh).  Test
    hook. *)
