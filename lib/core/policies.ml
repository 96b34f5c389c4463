let proc ?impl config =
  [
    P_nhst.make config;
    P_nest.make config;
    P_nhdt.make config;
    P_lqd.make ?impl config;
    P_bpd.make ?impl config;
    P_bpd.make ~protect_last:true ?impl config;
    P_lwd.make ?impl config;
  ]

let proc_extended ?impl config =
  let half_partition =
    config.Proc_config.buffer / (2 * Proc_config.n config)
  in
  proc ?impl config
  @ [
      P_lwd.make ~protect_last:true ?impl config;
      P_lwd.make ~tie:P_lwd.Smallest_work ?impl config;
      P_lwd.make ~tie:P_lwd.Longest_queue ?impl config;
      P_reserved.make ~reserve:half_partition ?impl config;
      P_rand.make config;
    ]

let proc_find ?impl config name =
  let name = String.lowercase_ascii name in
  List.find_opt
    (fun (p : Proc_policy.t) -> String.lowercase_ascii p.name = name)
    (proc_extended ?impl config)

let value_uniform ?impl config =
  [
    V_greedy.make config;
    V_nest.make config;
    V_lqd.make ?impl config;
    V_mvd.make ?impl config;
    V_mvd.make ~protect_last:true ?impl config;
    V_mrd.make ?impl config;
  ]

let value_port ?impl ~port_value config =
  value_uniform ?impl config @ [ V_nhst.make ~port_value config ]

let value_extended ?impl config =
  value_uniform ?impl config
  @ [ V_mrd.make ~protect_last:true ?impl config; P_rand.make_value config ]

let value_find ?impl ?port_value config name =
  let name = String.lowercase_ascii name in
  let pool =
    (match port_value with
    | Some port_value -> value_port ?impl ~port_value config
    | None -> value_uniform ?impl config)
    @ value_extended ?impl config
  in
  List.find_opt
    (fun (p : Value_policy.t) -> String.lowercase_ascii p.name = name)
    pool
