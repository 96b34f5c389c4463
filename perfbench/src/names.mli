(** The benchmark's metric names and units, in the order they are
    printed.  [BENCHMARK.json] lists exactly these (and their directions). *)

type metric = { name : string; unit_ : string }

val end_to_end : metric list
val per_layer : metric list

val engines : string list
(** Instance names with per-phase metrics ([engine.<name>.<phase>.*]). *)

val valid_name : string -> bool
(** Matches [[A-Za-z0-9_.-]+], starts with a letter or digit, at most 64
    characters. *)
