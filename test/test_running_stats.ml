open Smbm_prelude

let check_float = Alcotest.(check (float 1e-9))

let test_empty () =
  let s = Running_stats.create () in
  Alcotest.(check int) "count" 0 (Running_stats.count s);
  check_float "mean" 0.0 (Running_stats.mean s);
  check_float "variance" 0.0 (Running_stats.variance s);
  Alcotest.check_raises "min" (Invalid_argument "Running_stats.min: no samples")
    (fun () -> ignore (Running_stats.min s))

let test_known_values () =
  let s = Running_stats.create () in
  List.iter (Running_stats.add s) [ 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 ];
  Alcotest.(check int) "count" 8 (Running_stats.count s);
  check_float "mean" 5.0 (Running_stats.mean s);
  (* Unbiased sample variance of this classic data set: 32/7. *)
  check_float "variance" (32.0 /. 7.0) (Running_stats.variance s);
  check_float "min" 2.0 (Running_stats.min s);
  check_float "max" 9.0 (Running_stats.max s);
  check_float "sum" 40.0 (Running_stats.sum s)

let test_single_sample () =
  let s = Running_stats.create () in
  Running_stats.add s 3.5;
  check_float "mean" 3.5 (Running_stats.mean s);
  check_float "variance with one sample" 0.0 (Running_stats.variance s);
  check_float "min=max" (Running_stats.min s) (Running_stats.max s)

let test_clear () =
  let s = Running_stats.create () in
  Running_stats.add s 1.0;
  Running_stats.clear s;
  Alcotest.(check int) "count reset" 0 (Running_stats.count s);
  Running_stats.add s 2.0;
  check_float "reusable" 2.0 (Running_stats.mean s)

let test_merge_matches_combined () =
  let a = Running_stats.create ()
  and b = Running_stats.create ()
  and whole = Running_stats.create () in
  let xs = [ 1.0; 2.0; 3.0 ] and ys = [ 10.0; 20.0; 30.0; 40.0 ] in
  List.iter (Running_stats.add a) xs;
  List.iter (Running_stats.add b) ys;
  List.iter (Running_stats.add whole) (xs @ ys);
  let merged = Running_stats.merge a b in
  Alcotest.(check int) "count" (Running_stats.count whole)
    (Running_stats.count merged);
  check_float "mean" (Running_stats.mean whole) (Running_stats.mean merged);
  Alcotest.(check (float 1e-6)) "variance" (Running_stats.variance whole)
    (Running_stats.variance merged);
  check_float "min" (Running_stats.min whole) (Running_stats.min merged);
  check_float "max" (Running_stats.max whole) (Running_stats.max merged)

let test_merge_with_empty () =
  let a = Running_stats.create () and b = Running_stats.create () in
  Running_stats.add a 5.0;
  let m1 = Running_stats.merge a b and m2 = Running_stats.merge b a in
  check_float "a + empty" 5.0 (Running_stats.mean m1);
  check_float "empty + a" 5.0 (Running_stats.mean m2)

let prop_welford_matches_naive =
  QCheck2.Test.make ~name:"Welford matches naive two-pass statistics"
    ~count:200
    QCheck2.Gen.(list_size (int_range 2 50) (float_bound_inclusive 1000.0))
    (fun xs ->
      let s = Running_stats.create () in
      List.iter (Running_stats.add s) xs;
      let n = float_of_int (List.length xs) in
      let mean = List.fold_left ( +. ) 0.0 xs /. n in
      let var =
        List.fold_left (fun acc x -> acc +. ((x -. mean) ** 2.0)) 0.0 xs
        /. (n -. 1.0)
      in
      abs_float (Running_stats.mean s -. mean) < 1e-6
      && abs_float (Running_stats.variance s -. var) < 1e-5)

(* Everything the accumulator reports, floats compared by their bits. *)
let stats_shape s =
  let bits = Int64.bits_of_float in
  let n = Running_stats.count s in
  ( n,
    List.map bits
      [ Running_stats.mean s; Running_stats.variance s; Running_stats.sum s ],
    if n = 0 then []
    else List.map bits [ Running_stats.min s; Running_stats.max s ] )

let prop_add_int_is_add_float =
  QCheck2.Test.make
    ~name:"Running_stats.add_int n = add (float_of_int n), bit for bit"
    ~count:200
    QCheck2.Gen.(
      let samples =
        list_size (int_range 0 60)
          (oneof [ int_range (-50) 50; int_range 0 1_000_000; int ])
      in
      pair samples samples)
    (fun (xs, ys) ->
      let build add l =
        let s = Running_stats.create () in
        List.iter (add s) l;
        s
      in
      let by_int = build Running_stats.add_int
      and by_float = build (fun s n -> Running_stats.add s (float_of_int n)) in
      let i1 = by_int xs and f1 = by_float xs in
      let i2 = by_int ys and f2 = by_float ys in
      let same = stats_shape i1 = stats_shape f1 in
      let same_merged =
        stats_shape (Running_stats.merge i1 i2)
        = stats_shape (Running_stats.merge f1 f2)
      in
      Running_stats.clear i1;
      Running_stats.clear f1;
      List.iter (Running_stats.add_int i1) ys;
      List.iter (fun n -> Running_stats.add f1 (float_of_int n)) ys;
      same && same_merged && stats_shape i1 = stats_shape f1)

let test_add_allocation_free () =
  let s = Running_stats.create () in
  let n = ref 0 in
  Alloc.check_free "add_int" (fun () ->
      incr n;
      Running_stats.add_int s !n)

let suite =
  [
    Alcotest.test_case "empty" `Quick test_empty;
    Alcotest.test_case "known values" `Quick test_known_values;
    Alcotest.test_case "single sample" `Quick test_single_sample;
    Alcotest.test_case "clear" `Quick test_clear;
    Alcotest.test_case "merge matches combined stream" `Quick
      test_merge_matches_combined;
    Alcotest.test_case "merge with empty" `Quick test_merge_with_empty;
    Qc.to_alcotest prop_welford_matches_naive;
    Alcotest.test_case "add_int allocation-free" `Quick test_add_allocation_free;
    Qc.to_alcotest prop_add_int_is_add_float;
  ]
