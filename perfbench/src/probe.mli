(** Span probes: an accumulator of time and minor words over repeated
    [start]/[stop] pairs around calls into one layer.  A pair allocates
    nothing, so probes never move the allocation they measure; their clock
    cost is calibrated and subtracted by {!corrected}. *)

type t

val create : unit -> t

val start : t -> unit
val stop : t -> unit

val calls : t -> int

type cost = {
  inner_ns : float;  (** measured duration of an empty span *)
  inner_words : float;
  pair_ns : float;  (** full cost of one start/stop pair, seen from outside *)
  pair_words : float;
}

val calibrate : unit -> cost
(** Median of several tight loops of empty spans. *)

val corrected : cost -> t -> float * float
(** [(ns, words)] accumulated, minus [calls * inner] (clamped at 0). *)
