(** The traced run's probes: wrappers that time calls into each layer's
    public functions from the outside.  Wrapped instances and workloads
    behave exactly like the originals (same calls, same order); they only
    add a probe pair around each call. *)

type phases = {
  arrive : Probe.t;
  transmit : Probe.t;
  bookkeep : Probe.t;  (** [end_slot] plus [flush] *)
}

val phases : unit -> phases

val instance : phases -> Smbm_sim.Instance.t -> Smbm_sim.Instance.t
(** [{ inst with arrive_batch; transmit; end_slot; flush }] with probes.
    The arrival probe wraps the fused kernel when the instance has one and
    otherwise folds [arrive_dv] over the batch, as
    {!Smbm_sim.Instance.step_batch} does. *)

val workload :
  Probe.t -> arrivals:int ref -> Smbm_traffic.Workload.t -> Smbm_traffic.Workload.t
(** Times every [next_into] of the inner workload and counts its arrivals. *)

val slot_timer :
  window:int ->
  Smbm_prelude.Histogram.t ->
  Smbm_traffic.Workload.t ->
  Smbm_traffic.Workload.t * (unit -> unit)
(** Records the mean slot time (us) of every [window] consecutive slots of an
    {!Smbm_sim.Experiment.run} (one slot of every instance in lockstep,
    generation and flushouts included) into the histogram, except the
    first window.  Call the returned function once the run returns, to
    close the last window; the run's slot count must be a multiple of
    [window]. *)
