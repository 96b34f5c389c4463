(** Pinned output digests for the default seed. *)

val table : ((string * string) * string) list
(** [((workload, key), digest)]. *)

val digest : workload:string -> key:string -> string option
