(** The benchmark's three workloads, run by name.

    - [proc-point-live]: one Fig. 5 processing point, live MMPP generation.
    - [value-panel-replay]: Fig. 5 panel 5 over a materialized trace.
    - [serve-lwd-trace]: the serve daemon with LWD over a recorded trace. *)

type outcome = {
  attempted : int;  (** operations: sweep points, or daemon runs *)
  failed : int;  (** exceptions plus digest mismatches *)
  metrics : (string * float) list;
      (** every {!Names.end_to_end} metric, or with tracing every
          {!Names.per_layer} metric *)
  notes : string list;  (** human-readable lines: sample counts, digests *)
}

val names : string list
val default_seed : int

val base : seed:int -> slots:int -> Smbm_sim.Sweep.base
(** Paper scale: {!Smbm_sim.Sweep.default_base} with the given seed and
    slot count. *)

val run :
  workload:string ->
  seed:int ->
  seconds:float ->
  trace:bool ->
  outcome
(** Run the workload for about [seconds] (whole operations, at least one),
    after one untimed operation at {!default_seed} that is checked against
    the pinned digests.  The serve workload writes its trace files with
    [Filename.temp_file] and removes them before it returns.
    @raise Invalid_argument on an unknown workload. *)

(**/**)

(* Exposed for the benchmark's tests. *)

val sweep_point_digest :
  model:Smbm_sim.Sweep.model -> base:Smbm_sim.Sweep.base -> traced:bool -> string
(** Digest of one live sweep point, with or without the traced wrappers. *)
