open Smbm_sim

let hex s = String.sub (Digest.to_hex (Digest.string s)) 0 16

let sweep_point ~ratios instances =
  let b = Buffer.create 512 in
  List.iter (fun (name, r) -> Printf.bprintf b "%s=%h;" name r) ratios;
  List.iter
    (fun (i : Instance.t) ->
      let m = i.metrics in
      Printf.bprintf b "%s:%d,%d,%d,%d,%d,%d,%d;" i.name (Metrics.arrivals m)
        (Metrics.accepted m) (Metrics.dropped m) (Metrics.pushed_out m)
        (Metrics.transmitted m) (Metrics.transmitted_value m)
        (Metrics.flushed m))
    instances;
  hex (Buffer.contents b)

let serve (r : Smbm_serve.Daemon.report) =
  hex
    (Printf.sprintf "%d,%d,%d,%d,%d,%d,%d,%d,%d,%b" r.slots r.arrivals
       r.accepted r.transmitted r.dropped r.flushed r.shed_slots
       r.shed_packets r.ring_capacity r.conservation_ok)
