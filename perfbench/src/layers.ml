open Smbm_sim

type phases = { arrive : Probe.t; transmit : Probe.t; bookkeep : Probe.t }

let phases () =
  { arrive = Probe.create (); transmit = Probe.create (); bookkeep = Probe.create () }

let instance ph (inst : Instance.t) =
  let arrive_batch =
    match inst.arrive_batch with
    | Some f ->
      fun batch ->
        Probe.start ph.arrive;
        f batch;
        Probe.stop ph.arrive
    | None ->
      let f = inst.arrive_dv in
      fun batch ->
        Probe.start ph.arrive;
        Smbm_core.Arrival_batch.iter batch ~f;
        Probe.stop ph.arrive
  in
  let timed p f () =
    Probe.start p;
    f ();
    Probe.stop p
  in
  {
    inst with
    arrive_batch = Some arrive_batch;
    transmit = timed ph.transmit inst.transmit;
    end_slot = timed ph.bookkeep inst.end_slot;
    flush = timed ph.bookkeep inst.flush;
  }

let workload probe ~arrivals inner =
  Smbm_traffic.Workload.of_fun_into (fun batch _ ->
      Probe.start probe;
      Smbm_traffic.Workload.next_into inner batch;
      Probe.stop probe;
      arrivals := !arrivals + Smbm_core.Arrival_batch.length batch)

let slot_timer ~window hist inner =
  let last = ref (-1) in
  (* The window starting at slot 0 is skipped: it runs cold, straight after
     the point's set-up. *)
  let tick slot =
    let t = Clock.now_ns () in
    if !last >= 0 && slot > window then
      Smbm_prelude.Histogram.add hist (float_of_int (t - !last) /. float_of_int window /. 1e3);
    last := t
  in
  ( Smbm_traffic.Workload.of_fun_into (fun batch i ->
        if i mod window = 0 then tick i;
        Smbm_traffic.Workload.next_into inner batch),
    fun () -> tick max_int )
