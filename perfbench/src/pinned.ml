(* Output digests of the default seed (42), one per operation key, at the
   workload sizes of Workloads (20k-slot proc point, 2.5k-slot panel points,
   100k-slot serve trace).  They change only when the program's simulated
   behaviour changes; a run with the default seed counts every mismatch as
   a failed operation. *)

let table =
  [
    (("proc-point-live", "point"), "95959be391ee8e67");
    (("value-panel-replay", "B=16"), "cfea33a1a6eac39a");
    (("value-panel-replay", "B=32"), "4cc7725aaa1ccecf");
    (("value-panel-replay", "B=64"), "8cf11b03949acaf9");
    (("value-panel-replay", "B=128"), "0f63a6383e015d29");
    (("value-panel-replay", "B=256"), "17964820be078393");
    (("value-panel-replay", "B=512"), "e52ce2073a12b23f");
    (("value-panel-replay", "B=1024"), "eae30f319f2cad6d");
    (("serve-lwd-trace", "run"), "67fe77d8cb2d0c35");
  ]

let digest ~workload ~key = List.assoc_opt (workload, key) table
