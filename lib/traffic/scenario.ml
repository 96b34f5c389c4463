open Smbm_prelude
open Smbm_core

type mmpp_params = {
  sources : int;
  p_on_to_off : float;
  p_off_to_on : float;
}

let default_mmpp =
  { sources = 500; p_on_to_off = 0.1; p_off_to_on = 1.0 /. 30.0 }

let duty_cycle p =
  if p.p_on_to_off +. p.p_off_to_on = 0.0 then 0.5
  else p.p_off_to_on /. (p.p_on_to_off +. p.p_off_to_on)

let sources_with ~mmpp ~label ~make_process ~rng =
  List.init mmpp.sources (fun _ ->
      let mmpp_rng = Rng.split rng and label_rng = Rng.split rng in
      Source.create ~mmpp:(make_process mmpp_rng) ~label ~rng:label_rng)

let sources ~mmpp ~label ~rate_per_source ~rng =
  let make_process mmpp_rng =
    Mmpp.create ~rng:mmpp_rng ~p_on_to_off:mmpp.p_on_to_off
      ~p_off_to_on:mmpp.p_off_to_on ~rate_on:rate_per_source ()
  in
  sources_with ~mmpp ~label ~make_process ~rng

(* Per-source on-state rate yielding an aggregate packet rate of
   [aggregate] packets per slot. *)
let rate_for ~mmpp ~aggregate =
  aggregate /. (float_of_int mmpp.sources *. duty_cycle mmpp)

let proc_workload ?(mmpp = default_mmpp) ?reference ~config ~load ~seed () =
  let reference = Option.value reference ~default:config in
  let n = Proc_config.n reference in
  let mean_work =
    float_of_int (Array.fold_left ( + ) 0 reference.Proc_config.works)
    /. float_of_int n
  in
  let capacity = float_of_int (n * reference.Proc_config.speedup) in
  let aggregate = load *. capacity /. mean_work in
  let rng = Rng.create ~seed in
  let label = Label.uniform_port ~n:(Proc_config.n config) in
  Workload.of_sources
    (sources ~mmpp ~label ~rate_per_source:(rate_for ~mmpp ~aggregate) ~rng)

let value_workload ~mmpp ~reference ~config ~load ~seed ~label =
  let reference = Option.value reference ~default:config in
  let capacity =
    float_of_int (Value_config.n reference * reference.Value_config.speedup)
  in
  let aggregate = load *. capacity in
  let rng = Rng.create ~seed in
  Workload.of_sources
    (sources ~mmpp ~label ~rate_per_source:(rate_for ~mmpp ~aggregate) ~rng)

let value_uniform_workload ?(mmpp = default_mmpp) ?reference ~config ~load
    ~seed () =
  let label =
    Label.uniform_port_and_value ~n:(Value_config.n config)
      ~k:(Value_config.k config)
  in
  value_workload ~mmpp ~reference ~config ~load ~seed ~label

let value_port_workload ?(mmpp = default_mmpp) ?reference ~config ~load ~seed
    () =
  if Value_config.n config > Value_config.k config then
    invalid_arg "Scenario.value_port_workload: requires n <= k";
  let label = Label.value_equals_port ~n:(Value_config.n config) in
  value_workload ~mmpp ~reference ~config ~load ~seed ~label

let value_port_flood_workload ?(mmpp = default_mmpp) ?(skew = 2.0) ~config
    ~load ~seed () =
  if Value_config.n config > Value_config.k config then
    invalid_arg "Scenario.value_port_flood_workload: requires n <= k";
  let n = Value_config.n config in
  let weights =
    Array.init n (fun i -> Float.pow (float_of_int (n - i)) skew)
  in
  let label =
    Label.weighted_port ~weights ~value_of_port:(fun i -> i + 1) ()
  in
  value_workload ~mmpp ~reference:None ~config ~load ~seed ~label

(* Per-on-slot batch sampler with heavy (Pareto) tail and the given mean:
   thinned when the raw Pareto mean exceeds the target, topped up with an
   independent Poisson stream otherwise. *)
let heavy_batch ~alpha ~max_batch ~mean =
  let raw_mean = Rng.pareto_int_mean ~alpha ~max:max_batch in
  if mean <= raw_mean then begin
    let p = mean /. raw_mean in
    fun rng ->
      if Rng.bernoulli rng ~p then Rng.pareto_int rng ~alpha ~max:max_batch
      else 0
  end
  else begin
    let top_up = Rng.poisson_of_mean (mean -. raw_mean) in
    fun rng ->
      Rng.pareto_int rng ~alpha ~max:max_batch + Rng.poisson_draw rng top_up
  end

let proc_heavy_tail_workload ?(mmpp = default_mmpp) ?(alpha = 1.2)
    ?(max_batch = 1000) ?reference ~config ~load ~seed () =
  let reference = Option.value reference ~default:config in
  let n = Proc_config.n reference in
  let mean_work =
    float_of_int (Array.fold_left ( + ) 0 reference.Proc_config.works)
    /. float_of_int n
  in
  let capacity = float_of_int (n * reference.Proc_config.speedup) in
  let aggregate = load *. capacity /. mean_work in
  let per_source_on = rate_for ~mmpp ~aggregate in
  let sample = heavy_batch ~alpha ~max_batch ~mean:per_source_on in
  let rng = Rng.create ~seed in
  let label = Label.uniform_port ~n:(Proc_config.n config) in
  let make_process mmpp_rng =
    Mmpp.create_batch ~rng:mmpp_rng ~p_on_to_off:mmpp.p_on_to_off
      ~p_off_to_on:mmpp.p_off_to_on ~sample ~mean:per_source_on ()
  in
  Workload.of_sources (sources_with ~mmpp ~label ~make_process ~rng)

let port_values config = Array.init (Value_config.n config) (fun i -> i + 1)
