(** Clocks and memory readings used by the benchmark. *)

val now_ns : unit -> int
(** Monotonic time in nanoseconds; allocation-free. *)

val words : unit -> int
(** [Gc.minor_words] of the calling domain, as an int; allocation-free. *)

val seconds_since : int -> float
(** Seconds elapsed since a {!now_ns} reading. *)

val peak_rss_mb : unit -> float
(** [VmHWM] from [/proc/self/status] in MB; [nan] where unavailable. *)
