(** Output digests: a short hex fingerprint of everything a run computed,
    so that repeated, traced and pinned runs can be compared exactly. *)

val sweep_point :
  ratios:(string * float) list -> Smbm_sim.Instance.t list -> string
(** Every policy's ratio (bit-exact) plus every instance's
    {!Smbm_sim.Metrics} counters, OPT included. *)

val serve : Smbm_serve.Daemon.report -> string
(** The daemon report's deterministic counters (not its timings or ring
    high-water mark, which depend on scheduling). *)
