(** Off-heap int column: a [Bigarray.Array1] of native ints, C layout.

    Backs {e compact trace} payloads: the data lives outside the OCaml
    heap (never scanned by the GC) and [sub] hands out zero-copy windows
    over one shared allocation, so read-only columns can be shared across
    domains without copying.  [unsafe_get] skips the bounds check — callers
    keep indices in range by their own invariants. *)

type t = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

val create : int -> t
(** [create len]: a column of [len] zeroed slots.
    @raise Invalid_argument on a negative length. *)

val init : int -> (int -> int) -> t
val length : t -> int

val get : t -> int -> int
val unsafe_get : t -> int -> int

val blit :
  src:t -> src_pos:int -> dst:t -> dst_pos:int -> len:int -> unit

val sub : t -> pos:int -> len:int -> t
(** Zero-copy window sharing the backing storage. *)

val of_array : int array -> t
val to_array : t -> int array
val equal : t -> t -> bool
