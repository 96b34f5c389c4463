open Smbm_sim
open Smbm_traffic

let default_seed = 42
let point_slots = 20_000
let panel_slots = 2_500
let serve_slots = 100_000
let panel_xs = (Sweep.panel 5).xs

(* Sweep slot-time samples are means over this many lockstep slots.  Single
   slots put p99 on the minor-collection boundary: value-uniform allocates
   ~2.3k words per slot, so 0.9% of its slots hold a minor collection and
   its per-slot p99 ranged 291-426 us over five seeds.  Twenty-slot
   windows give a proc point 999 samples and a panel 868 (the first
   window of each point is skipped), so ~10 lie beyond each unit's p99. *)
let slot_window = 20

(* Successive units of a sweep run take their inputs from this many seeds
   derived from the run's seed (seed, seed + 1, ...), in turn, so that a
   run samples more traffic than one 20k-slot point or 2.5k-slot panel.
   Whether a value trace's arrays double once more (~4 MB of peak RSS, see
   STEADINESS.md) is a coin flip per seed: with one seed per run,
   peak_rss_mb was bimodal across runs; with eight (and the default
   seed's pinned panel) nearly every run reaches the high mode. *)
let seeds_per_run = 8

let base ~seed ~slots = { Sweep.default_base with Sweep.seed; slots }

type outcome = {
  attempted : int;
  failed : int;
  metrics : (string * float) list;
  notes : string list;
}

(* ----- failure accounting ----- *)

(* Every operation (a sweep point, a daemon run) yields a digest under a
   key and the seed of its inputs.  The pinned digest (default seed) or
   else the first digest seen for that seed and key is the expectation; a
   mismatch or an exception is one failure. *)
type tally = {
  workload : string;
  expected : (int * string, string) Hashtbl.t;
  mutable attempted : int;
  mutable failed : int;
  mutable errors : string list;
}

let tally ~workload =
  { workload; expected = Hashtbl.create 64; attempted = 0; failed = 0; errors = [] }

let fail t msg =
  t.failed <- t.failed + 1;
  if List.length t.errors < 5 then t.errors <- msg :: t.errors

let attempt t ~seed ~key f =
  t.attempted <- t.attempted + 1;
  let op = Printf.sprintf "seed %d %s" seed key in
  match f () with
  | exception e -> fail t (Printf.sprintf "%s: %s" op (Printexc.to_string e))
  | digest -> (
    let expected =
      match Hashtbl.find_opt t.expected (seed, key) with
      | Some d -> Some d
      | None when seed = default_seed -> Pinned.digest ~workload:t.workload ~key
      | None -> None
    in
    match expected with
    | Some d when d <> digest -> fail t (Printf.sprintf "%s: digest %s, expected %s" op digest d)
    | _ -> Hashtbl.replace t.expected (seed, key) digest)

let tally_notes t =
  Printf.sprintf "operations: %d attempted, %d failed (%.4f)" t.attempted t.failed
    (float_of_int t.failed /. float_of_int (max 1 t.attempted))
  :: List.rev_map (fun e -> "  failure: " ^ e) t.errors
  @ (Hashtbl.fold (fun (seed, key) d acc -> ((seed, key), d) :: acc) t.expected []
    |> List.sort compare
    |> List.map (fun ((seed, key), d) -> Printf.sprintf "  digest seed %d %s = %s" seed key d))

(* ----- helpers ----- *)

let median = function
  | [] -> nan
  | xs ->
    let a = Array.of_list xs in
    Array.sort compare a;
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Run [unit] until [seconds] have passed since the call; at least once. *)
let for_seconds seconds unit =
  let t0 = Clock.now_ns () in
  let rec go () =
    unit ();
    if Clock.seconds_since t0 < seconds then go ()
  in
  go ()

let ns_to_s ns = float_of_int ns *. 1e-9

(* Accumulates the untraced (timed) phase of a run.  The run is a sequence
   of units (a proc point, a value panel, a daemon run); each unit yields
   one rate, one set-up time and one p50 and p99 of its slot times, and
   the run reports their medians.  A shared 2-vCPU host drifts between
   speed regimes that last 5-30 s, so a median over many units follows
   the prevailing regime rather than whichever one a single timing landed
   in, or, for a tail quantile pooled over the run, the slowest one. *)
type timed = {
  mutable slots : int;
  mutable run_ns : int;
  mutable words : int;
  mutable setups : float list;
  mutable rates : float list;
  mutable p50s : float list;
  mutable p99s : float list;
  windows : Smbm_prelude.Histogram.t;  (* sweep: the unit's window means (us) *)
  mutable unit_slots : int;
  mutable unit_ns : int;
}

let timed () =
  {
    slots = 0;
    run_ns = 0;
    words = 0;
    setups = [];
    rates = [];
    p50s = [];
    p99s = [];
    windows = Smbm_prelude.Histogram.create ~max_value:1e7 ~buckets_per_decade:100 ();
    unit_slots = 0;
    unit_ns = 0;
  }

let add_run (t : timed) ~slots ~ns ~words =
  t.slots <- t.slots + slots;
  t.run_ns <- t.run_ns + ns;
  t.words <- t.words + words;
  t.unit_slots <- t.unit_slots + slots;
  t.unit_ns <- t.unit_ns + ns

let add_quantiles (t : timed) ~p50 ~p99 =
  t.p50s <- p50 :: t.p50s;
  t.p99s <- p99 :: t.p99s

let close_unit (t : timed) =
  t.rates <- (float_of_int t.unit_slots /. ns_to_s (max 1 t.unit_ns)) :: t.rates;
  t.unit_slots <- 0;
  t.unit_ns <- 0;
  let w = t.windows in
  if Smbm_prelude.Histogram.count w > 0 then begin
    add_quantiles t
      ~p50:(Smbm_prelude.Histogram.quantile w 0.5)
      ~p99:(Smbm_prelude.Histogram.quantile w 0.99);
    Smbm_prelude.Histogram.clear w
  end

let end_to_end (t : timed) =
  [
    ("slots_per_s", median t.rates);
    ("minor_words_per_slot", float_of_int t.words /. float_of_int (max 1 t.slots));
    ("setup_s", median t.setups);
    ("peak_rss_mb", Clock.peak_rss_mb ());
    ("slot_p50_us", median t.p50s);
    ("slot_p99_us", median t.p99s);
  ]

let timed_notes name (t : timed) =
  [
    Printf.sprintf "%s: %d slots in %.3f s timed over %d units; %d set-up samples" name
      t.slots (ns_to_s t.run_ns) (List.length t.rates) (List.length t.setups);
  ]

let sweep_notes name (t : timed) =
  timed_notes name t
  @ [
      Printf.sprintf "slot quantiles: median over %d units of each unit's quantiles of its %d-slot window means"
        (List.length t.p99s) slot_window;
    ]

(* ----- traced state ----- *)

type traced = {
  cost : Probe.cost;
  traffic : Probe.t;  (* generation or replay (on serve, the ingest domain's) *)
  arrivals : int ref;
  loop : Probe.t;  (* the whole Experiment.run *)
  instances : (string, Layers.phases) Hashtbl.t;
  setup : Probe.t;  (* materialize / trace load *)
  mutable setup_slots : int;
  mutable events : int;  (* serve: flight-recorder events *)
  mutable ring_max : int;  (* serve: ring high-water mark *)
  mutable slots : int;
  mutable wall_ns : int;
}

let traced_state () =
  {
    cost = Probe.calibrate ();
    traffic = Probe.create ();
    arrivals = ref 0;
    loop = Probe.create ();
    instances = Hashtbl.create 16;
    setup = Probe.create ();
    setup_slots = 0;
    events = 0;
    ring_max = 0;
    slots = 0;
    wall_ns = 0;
  }

let phases_of tr name =
  match Hashtbl.find_opt tr.instances name with
  | Some p -> p
  | None ->
    let p = Layers.phases () in
    Hashtbl.replace tr.instances name p;
    p

let probe_note (c : Probe.cost) =
  Printf.sprintf "probe cost: %.1f ns and %.2f words per span, %.1f ns and %.2f words per pair"
    c.inner_ns c.inner_words c.pair_ns c.pair_words

(* Per-slot (time, words) of a probe, probe cost removed. *)
let per_slot cost p ~slots =
  let ns, w = Probe.corrected cost p in
  let s = float_of_int (max 1 slots) in
  (ns /. 1e3 /. s, w /. s)

(* The full per-layer table, zero for layers this workload does not run. *)
let layer_metrics known =
  List.map
    (fun (m : Names.metric) ->
      (m.name, Option.value ~default:0. (List.assoc_opt m.name known)))
    Names.per_layer

let span_values prefix (us, w) =
  [ (prefix ^ ".us_per_slot", us); (prefix ^ ".minor_words_per_slot", w) ]

let sweep_layers tr ~traffic_layer =
  let slots = tr.slots in
  let children = tr.traffic :: Hashtbl.fold (fun _ (p : Layers.phases) acc -> p.arrive :: p.transmit :: p.bookkeep :: acc) tr.instances [] in
  let sum f = List.fold_left (fun acc p -> acc +. f p) 0. children in
  let calls = sum (fun p -> float_of_int (Probe.calls p)) in
  let loop_ns, loop_w = Probe.corrected tr.cost tr.loop in
  (* Everything inside Experiment.run, probe overhead removed. *)
  let total_ns = loop_ns -. (calls *. tr.cost.pair_ns) in
  let total_w = loop_w -. (calls *. tr.cost.pair_words) in
  let child_ns = sum (fun p -> fst (Probe.corrected tr.cost p)) in
  let child_w = sum (fun p -> snd (Probe.corrected tr.cost p)) in
  let s = float_of_int (max 1 slots) in
  let traffic_ns, traffic_w = Probe.corrected tr.cost tr.traffic in
  let instance_layers =
    Hashtbl.fold
      (fun name (p : Layers.phases) acc ->
        let prefix =
          if name = "OPT" then "opt_ref"
          else if List.mem name Names.engines then "engine." ^ name
          else failwith ("unlisted instance " ^ name)
        in
        span_values (prefix ^ ".arrive") (per_slot tr.cost p.arrive ~slots)
        @ span_values (prefix ^ ".transmit") (per_slot tr.cost p.transmit ~slots)
        @ span_values (prefix ^ ".bookkeep") (per_slot tr.cost p.bookkeep ~slots)
        @ acc)
      tr.instances []
  in
  span_values traffic_layer (per_slot tr.cost tr.traffic ~slots)
  @ (if traffic_layer = "traffic.gen" then
       [
         ("traffic.gen.time_share", traffic_ns /. Float.max 1. total_ns);
         ("traffic.gen.alloc_share", traffic_w /. Float.max 1. total_w);
       ]
     else [])
  @ [ ("traffic.arrivals_per_slot", float_of_int !(tr.arrivals) /. s) ]
  @ span_values "experiment.loop"
      (Float.max 0. (total_ns -. child_ns) /. 1e3 /. s, Float.max 0. (total_w -. child_w) /. s)
  @ instance_layers

(* ----- sweep points ----- *)

type point = { setup_ns : int; digest : string }

(* One sweep point, exactly as Sweep.run_point steps it: the instances of
   Sweep.setup, the point's workload (live, or a compact-trace replay), and
   Experiment.run with the point's slot count and flushouts. *)
let sweep_point ~(traced : traced option) ~(timed : timed) ~model ~reference
    ~(base : Sweep.base) ~source () =
  (* Start every point from a collected heap (untimed), so that garbage
     one point leaves behind is not collected on the next one's clock or
     counted in the run's peak RSS. *)
  Gc.full_major ();
  let t0 = Clock.now_ns () in
  let live, instances = Sweep.setup ~reference model base in
  let setup_ns = Clock.now_ns () - t0 in
  let workload =
    match source with `Live -> live | `Replay c -> Trace.Compact.replay c
  in
  let params =
    { Experiment.slots = base.slots; flush_every = base.flush_every; check_every = None }
  in
  (match traced with
  | None ->
    let workload, close = Layers.slot_timer ~window:slot_window timed.windows workload in
    let w0 = Clock.words () in
    let t0 = Clock.now_ns () in
    Experiment.run ~params ~workload instances;
    close ();
    let t1 = Clock.now_ns () in
    add_run timed ~slots:base.slots ~ns:(t1 - t0) ~words:(Clock.words () - w0)
  | Some tr ->
    let workload = Layers.workload tr.traffic ~arrivals:tr.arrivals workload in
    let wrapped =
      List.map (fun (i : Instance.t) -> Layers.instance (phases_of tr i.name) i) instances
    in
    let t0 = Clock.now_ns () in
    Probe.start tr.loop;
    Experiment.run ~params ~workload wrapped;
    Probe.stop tr.loop;
    tr.wall_ns <- tr.wall_ns + (Clock.now_ns () - t0);
    tr.slots <- tr.slots + base.slots);
  let ratios =
    match instances with
    | opt :: algs -> Experiment.ratios ~objective:(Sweep.objective model) ~opt ~algs
    | [] -> []
  in
  { setup_ns; digest = Fingerprint.sweep_point ~ratios instances }

(* proc-point-live: one Fig. 5 processing point (k = 16, B = 64), OPT plus
   seven policies over live MMPP generation.  Set-up is Sweep.setup. *)
let proc_point ~slots ~seed tally ~traced ~timed () =
  let base = base ~seed ~slots in
  attempt tally ~seed ~key:"point" (fun () ->
      let p = sweep_point ~traced ~timed ~model:Sweep.Proc ~reference:base ~base ~source:`Live () in
      if traced = None then begin
        timed.setups <- ns_to_s p.setup_ns :: timed.setups;
        close_unit timed
      end;
      p.digest)

(* value-panel-replay: Fig. 5 panel 5 (value-uniform over B).  Set-up is
   one Sweep.materialize_trace per panel, which every B then replays, as
   Sweep.run_panel does.  A failed set-up fails every point of the panel. *)
let value_panel ~slots ~seed tally ~traced ~timed () =
  let base = base ~seed ~slots in
  (* A real panel run holds one trace: collect the previous panel's first. *)
  Gc.full_major ();
  let t0 = Clock.now_ns () in
  Option.iter (fun tr -> Probe.start tr.setup) traced;
  let trace =
    match
      Sweep.materialize_trace ~base ~model:Sweep.Value_uniform ~axis:Sweep.B
        ~x:(List.hd panel_xs)
    with
    | trace -> Ok trace
    | exception e -> Error e
  in
  (match traced with
  | Some tr ->
    Probe.stop tr.setup;
    tr.setup_slots <- tr.setup_slots + slots
  | None -> timed.setups <- Clock.seconds_since t0 :: timed.setups);
  List.iter
    (fun x ->
      attempt tally ~seed ~key:(Printf.sprintf "B=%d" x) (fun () ->
          let trace = match trace with Ok t -> t | Error e -> raise e in
          (sweep_point ~traced ~timed ~model:Sweep.Value_uniform ~reference:base
             ~base:{ base with buffer = x } ~source:(`Replay trace) ())
            .digest))
    panel_xs;
  if traced = None then close_unit timed

let sweep ~name ~traffic_layer ~unit ~seed ~seconds ~trace =
  let tally = tally ~workload:name in
  (* Untimed: one unit at the default seed, checked against the pinned
     digests, so that the output check can fail whatever --seed is. *)
  unit ~seed:default_seed tally ~traced:None ~timed:(timed ()) ();
  let timed = timed () in
  let units = ref 0 in
  let next ~traced () =
    let seed = seed + (!units mod seeds_per_run) in
    incr units;
    unit ~seed tally ~traced ~timed ()
  in
  if not trace then begin
    for_seconds seconds (next ~traced:None);
    {
      attempted = tally.attempted;
      failed = tally.failed;
      metrics = end_to_end timed;
      notes = sweep_notes name timed @ tally_notes tally;
    }
  end
  else begin
    (* Half the window untraced, half traced: the ratio of their wall time
       per slot is the tracing overhead, and both halves must produce the
       same digests. *)
    for_seconds (seconds /. 2.) (next ~traced:None);
    let tr = traced_state () in
    for_seconds (seconds /. 2.) (next ~traced:(Some tr));
    let untraced = ns_to_s timed.run_ns /. float_of_int timed.slots in
    let traced_s = ns_to_s tr.wall_ns /. float_of_int tr.slots in
    let setup =
      if tr.setup_slots = 0 then []
      else span_values "traffic.materialize" (per_slot tr.cost tr.setup ~slots:tr.setup_slots)
    in
    let known =
      sweep_layers tr ~traffic_layer @ setup @ [ ("trace.overhead", traced_s /. untraced) ]
    in
    {
      attempted = tally.attempted;
      failed = tally.failed;
      metrics = layer_metrics known;
      notes =
        probe_note tr.cost
        :: Printf.sprintf "traced: %d slots; untraced: %d slots" tr.slots timed.slots
        :: (match (List.assoc_opt "traffic.gen.time_share" known,
                   List.assoc_opt "traffic.gen.alloc_share" known) with
           | Some t, Some a ->
             [ Printf.sprintf "traffic.gen takes %.1f%% of the point's time and %.1f%% of its allocation" (100. *. t) (100. *. a) ]
           | _ -> [])
        @ tally_notes tally;
    }
  end

(* ----- serve-lwd-trace ----- *)

let serve_config = Smbm_core.Proc_config.contiguous ~k:16 ~buffer:64 ()

(* The arrival trace the daemon ingests: the proc point's traffic (500 MMPP
   sources, load 2.0) for one seed, written to a temporary file in the
   text format that [serve --ingest-trace] reads.  Every process writes
   its own, untimed, in a child process, so that the generator's memory
   stays out of this process's peak RSS. *)
let write_trace ~seed ~slots =
  let path = Filename.temp_file "perfbench-serve-" ".trace" in
  flush_all ();
  match Unix.fork () with
  | 0 ->
    let write () =
      let workload, _ = Sweep.setup Sweep.Proc (base ~seed ~slots) in
      let trace = Trace.record workload ~slots in
      let oc = open_out path in
      Trace.save trace oc;
      close_out oc
    in
    Unix._exit (match write () with () -> 0 | exception _ -> 1)
  | pid -> (
    match Unix.waitpid [] pid with
    | _, Unix.WEXITED 0 -> path
    | _ ->
      Sys.remove path;
      failwith (Printf.sprintf "writing the serve trace for seed %d failed" seed))

let load_trace path =
  let ic = open_in path in
  let trace = Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () -> Trace.load ic) in
  Trace.Compact.of_trace trace

(* Histogram buckets of the daemon's registry, read back from its metrics
   sink and summed over every daemon run of the benchmark run. *)
type buckets = (string, int * (int, int) Hashtbl.t) Hashtbl.t

let read_buckets (acc : buckets) path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      try
        while true do
          match Smbm_obs.Json.parse_flat (input_line ic) with
          | Error e -> failwith ("metrics sink: " ^ e)
          | Ok fields -> (
            match
              ( List.assoc_opt "metric" fields,
                List.assoc_opt "buckets_per_decade" fields,
                List.assoc_opt "buckets" fields )
            with
            | Some (Smbm_obs.Json.Str name), Some (Smbm_obs.Json.Int bpd), Some (Smbm_obs.Json.Str bs) ->
              let _, tbl =
                match Hashtbl.find_opt acc name with
                | Some e -> e
                | None ->
                  let e = (bpd, Hashtbl.create 64) in
                  Hashtbl.replace acc name e;
                  e
              in
              String.split_on_char ' ' bs
              |> List.iter (fun b ->
                     if b <> "" then
                       Scanf.sscanf b "%d:%d" (fun i c ->
                           Hashtbl.replace tbl i
                             (c + Option.value ~default:0 (Hashtbl.find_opt tbl i))))
            | _ -> ())
        done
      with End_of_file -> ())

let bucket_quantile (acc : buckets) name q =
  match Hashtbl.find_opt acc name with
  | None -> 0.
  | Some (bpd, tbl) ->
    let l = Hashtbl.fold (fun i c l -> (i, c) :: l) tbl [] |> List.sort compare in
    Smbm_prelude.Histogram.quantile_of_buckets ~buckets_per_decade:bpd l q

let bucket_count (acc : buckets) name =
  match Hashtbl.find_opt acc name with
  | None -> 0
  | Some (_, tbl) -> Hashtbl.fold (fun _ c n -> n + c) tbl 0

(* serve-lwd-trace: Daemon.run on the processing model (k = 16, B = 64)
   with LWD, replaying the trace through the default 64-slot ring under
   Block backpressure with the default flight recorder and telemetry off.
   Set-up is Trace.load plus Compact.of_trace, as serve --ingest-trace.
   Each unit loads the trace and runs the daemon over it once. *)
let serve_unit ~seed ~path ~sink_path ~buckets tally
    ~(traced : traced option) ~(timed : timed) () =
  attempt tally ~seed ~key:"run" (fun () ->
      (* A real daemon loads one trace: collect the previous unit's first. *)
      Gc.full_major ();
      let t0 = Clock.now_ns () in
      Option.iter (fun tr -> Probe.start tr.setup) traced;
      let compact = load_trace path in
      (match traced with
      | Some tr ->
        Probe.stop tr.setup;
        tr.setup_slots <- tr.setup_slots + Trace.Compact.slots compact
      | None -> timed.setups <- Clock.seconds_since t0 :: timed.setups);
      let model = Smbm_serve.Model.Proc serve_config in
      let report =
        match traced with
        | None ->
          let w0 = Clock.words () in
          let t0 = Clock.now_ns () in
          let r =
            Smbm_serve.Daemon.run ~flush_every:2_500 ~model ~policy:"LWD"
              ~ingest:(Smbm_serve.Daemon.Trace compact) ()
          in
          add_run timed ~slots:r.slots ~ns:(Clock.now_ns () - t0) ~words:(Clock.words () - w0);
          add_quantiles timed ~p50:r.p50_us ~p99:r.p99_us;
          close_unit timed;
          r
        | Some tr ->
          (* The telemetry plane times the daemon's stages into histograms
             that only its metrics sink exposes. *)
          let sink =
            match Smbm_obs.Sink.open_file sink_path with
            | Ok s -> s
            | Error e -> failwith (Smbm_obs.Sink.error_to_string e)
          in
          let flight = Smbm_obs.Flight.create ~cap:65536 () in
          let replay =
            Layers.workload tr.traffic ~arrivals:tr.arrivals (Trace.Compact.replay compact)
          in
          let t0 = Clock.now_ns () in
          let r =
            Smbm_serve.Daemon.run ~flush_every:2_500 ~metrics_sink:sink ~telemetry:true
              ~flight ~slots:(Trace.Compact.slots compact) ~model ~policy:"LWD"
              ~ingest:(Smbm_serve.Daemon.Workload replay) ()
          in
          tr.wall_ns <- tr.wall_ns + (Clock.now_ns () - t0);
          (match Smbm_obs.Sink.close_result sink with
          | Ok () -> ()
          | Error e -> failwith (Smbm_obs.Sink.error_to_string e));
          read_buckets buckets sink_path;
          tr.events <- tr.events + Smbm_obs.Flight.total flight;
          tr.slots <- tr.slots + r.slots;
          tr.ring_max <- max tr.ring_max r.ring_max;
          r
      in
      if not report.conservation_ok then
        failwith
          ("conservation audit: " ^ Option.value ~default:"" report.conservation_error);
      if report.shed_slots <> 0 then failwith "shed slots under Block backpressure";
      if report.slots <> Trace.Compact.slots compact then failwith "slots short of the trace";
      if report.arrivals <> Trace.Compact.arrivals compact then
        failwith "arrivals differ from the trace's";
      Fingerprint.serve report)

let serve ~slots ~seed ~seconds ~trace =
  let name = "serve-lwd-trace" in
  let tally = tally ~workload:name in
  let files = ref [] in
  let temp path =
    files := path :: !files;
    path
  in
  Fun.protect ~finally:(fun () ->
      List.iter (fun p -> try Sys.remove p with Sys_error _ -> ()) !files)
  @@ fun () ->
  let sink_path = temp (Filename.temp_file "perfbench-metrics-" ".jsonl") in
  let pinned_path = temp (write_trace ~seed:default_seed ~slots) in
  let path = if seed = default_seed then pinned_path else temp (write_trace ~seed ~slots) in
  let buckets : buckets = Hashtbl.create 8 in
  (* Untimed: one daemon run over the default seed's trace, checked
     against its pinned digest, so that the output check can fail
     whatever --seed is. *)
  serve_unit ~seed:default_seed ~path:pinned_path ~sink_path ~buckets tally ~traced:None
    ~timed:(timed ()) ();
  let timed = timed () in
  let unit = serve_unit ~seed ~path ~sink_path ~buckets tally in
  if not trace then begin
    for_seconds seconds (unit ~traced:None ~timed);
    {
      attempted = tally.attempted;
      failed = tally.failed;
      metrics = end_to_end timed;
      notes =
        timed_notes name timed
        @ [
            Printf.sprintf
              "slot quantiles: median over %d daemon runs of each run's quantiles of its %d slots"
              (List.length timed.p99s) slots;
          ]
        @ tally_notes tally;
    }
  end
  else begin
    for_seconds (seconds /. 2.) (unit ~traced:None ~timed);
    let tr = traced_state () in
    for_seconds (seconds /. 2.) (unit ~traced:(Some tr) ~timed);
    let untraced = ns_to_s timed.run_ns /. float_of_int timed.slots in
    let traced_s = ns_to_s tr.wall_ns /. float_of_int tr.slots in
    let stage name q = bucket_quantile buckets ("stage/" ^ name) q in
    let per_slot_of n = float_of_int n /. float_of_int tr.slots in
    let known =
      span_values "traffic.trace_load" (per_slot tr.cost tr.setup ~slots:tr.setup_slots)
      @ span_values "traffic.replay" (per_slot tr.cost tr.traffic ~slots:tr.slots)
      @ [
          ("traffic.arrivals_per_slot", per_slot_of !(tr.arrivals));
          ("serve.stage.engine_us.p50", stage "engine_us" 0.5);
          ("serve.stage.engine_us.p99", stage "engine_us" 0.99);
          ("serve.stage.ring_wait_us.p99", stage "ring_wait_us" 0.99);
          ("serve.stage.flush_us.p99", stage "flush_us" 0.99);
          ("serve.ring.max_occupancy", float_of_int tr.ring_max);
          ("serve.flight.events_per_slot", per_slot_of tr.events);
          ("trace.overhead", traced_s /. untraced);
        ]
    in
    {
      attempted = tally.attempted;
      failed = tally.failed;
      metrics = layer_metrics known;
      notes =
        probe_note tr.cost
        :: Printf.sprintf "traced: %d slots, %d engine-stage samples; untraced: %d slots"
             tr.slots (bucket_count buckets "stage/engine_us") timed.slots
        :: tally_notes tally;
    }
  end

(* ----- entry point ----- *)

let names = [ "proc-point-live"; "value-panel-replay"; "serve-lwd-trace" ]

let run ~workload ~seed ~seconds ~trace =
  match workload with
  | "proc-point-live" ->
    sweep ~name:workload ~traffic_layer:"traffic.gen"
      ~unit:(proc_point ~slots:point_slots)
      ~seed ~seconds ~trace
  | "value-panel-replay" ->
    sweep ~name:workload ~traffic_layer:"traffic.replay"
      ~unit:(value_panel ~slots:panel_slots)
      ~seed ~seconds ~trace
  | "serve-lwd-trace" -> serve ~slots:serve_slots ~seed ~seconds ~trace
  | w -> invalid_arg ("unknown workload " ^ w)

let sweep_point_digest ~model ~base ~traced =
  let traced = if traced then Some (traced_state ()) else None in
  (sweep_point ~traced ~timed:(timed ()) ~model ~reference:base ~base ~source:`Live ()).digest
