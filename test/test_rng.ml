open Smbm_prelude

let test_determinism () =
  let a = Rng.create ~seed:7 and b = Rng.create ~seed:7 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_seed_sensitivity () =
  let a = Rng.create ~seed:1 and b = Rng.create ~seed:2 in
  let differs = ref false in
  for _ = 1 to 16 do
    if Rng.bits64 a <> Rng.bits64 b then differs := true
  done;
  Alcotest.(check bool) "different seeds diverge" true !differs

let test_copy_independent () =
  let a = Rng.create ~seed:3 in
  ignore (Rng.bits64 a);
  let b = Rng.copy a in
  Alcotest.(check int64) "copy continues stream" (Rng.bits64 a) (Rng.bits64 b);
  ignore (Rng.bits64 a);
  (* b is now one draw behind a; advancing b must not affect a. *)
  let next_a = Rng.bits64 (Rng.copy a) in
  ignore (Rng.bits64 b);
  Alcotest.(check int64) "streams independent" next_a (Rng.bits64 a)

let test_split_differs () =
  let a = Rng.create ~seed:11 in
  let b = Rng.split a in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Rng.bits64 a = Rng.bits64 b then incr same
  done;
  Alcotest.(check bool) "split stream is distinct" true (!same < 4)

let test_int_bounds () =
  let rng = Rng.create ~seed:5 in
  for _ = 1 to 10_000 do
    let x = Rng.int rng 7 in
    if x < 0 || x >= 7 then Alcotest.fail "Rng.int out of bounds"
  done;
  Alcotest.check_raises "zero bound"
    (Invalid_argument "Rng.int: bound must be positive") (fun () ->
      ignore (Rng.int rng 0))

let test_int_in_bounds () =
  let rng = Rng.create ~seed:5 in
  let seen = Array.make 5 false in
  for _ = 1 to 2_000 do
    let x = Rng.int_in rng 3 7 in
    if x < 3 || x > 7 then Alcotest.fail "Rng.int_in out of bounds";
    seen.(x - 3) <- true
  done;
  Alcotest.(check bool) "all values in range reachable" true
    (Array.for_all Fun.id seen);
  Alcotest.check_raises "inverted range" (Invalid_argument "Rng.int_in: lo > hi")
    (fun () -> ignore (Rng.int_in rng 7 3))

let test_float_unit_interval () =
  let rng = Rng.create ~seed:13 in
  for _ = 1 to 10_000 do
    let x = Rng.float rng in
    if x < 0.0 || x >= 1.0 then Alcotest.fail "Rng.float out of [0, 1)"
  done

let mean_of n f =
  let total = ref 0.0 in
  for _ = 1 to n do
    total := !total +. f ()
  done;
  !total /. float_of_int n

let test_float_mean () =
  let rng = Rng.create ~seed:17 in
  let mean = mean_of 50_000 (fun () -> Rng.float rng) in
  Alcotest.(check bool) "mean near 0.5" true (abs_float (mean -. 0.5) < 0.01)

let test_bernoulli () =
  let rng = Rng.create ~seed:19 in
  Alcotest.(check bool) "p=0 never" false (Rng.bernoulli rng ~p:0.0);
  Alcotest.(check bool) "p=1 always" true (Rng.bernoulli rng ~p:1.0);
  let mean =
    mean_of 50_000 (fun () -> if Rng.bernoulli rng ~p:0.3 then 1.0 else 0.0)
  in
  Alcotest.(check bool) "p=0.3 frequency" true (abs_float (mean -. 0.3) < 0.01)

let test_poisson_mean_small () =
  let rng = Rng.create ~seed:23 in
  let lambda = 2.5 in
  let mean = mean_of 50_000 (fun () -> float_of_int (Rng.poisson rng ~lambda)) in
  Alcotest.(check bool) "small-lambda mean" true
    (abs_float (mean -. lambda) < 0.05);
  Alcotest.(check int) "lambda=0" 0 (Rng.poisson rng ~lambda:0.0)

let test_poisson_mean_large () =
  let rng = Rng.create ~seed:29 in
  let lambda = 80.0 in
  let mean = mean_of 20_000 (fun () -> float_of_int (Rng.poisson rng ~lambda)) in
  Alcotest.(check bool) "large-lambda mean" true
    (abs_float (mean -. lambda) /. lambda < 0.01)

let test_exponential_mean () =
  let rng = Rng.create ~seed:31 in
  let mean = mean_of 50_000 (fun () -> Rng.exponential rng ~rate:2.0) in
  Alcotest.(check bool) "exponential mean 1/rate" true
    (abs_float (mean -. 0.5) < 0.01)

let test_geometric () =
  let rng = Rng.create ~seed:37 in
  Alcotest.(check int) "p=1 is 0" 0 (Rng.geometric rng ~p:1.0);
  let mean =
    mean_of 50_000 (fun () -> float_of_int (Rng.geometric rng ~p:0.25))
  in
  (* failures before success: mean (1-p)/p = 3 *)
  Alcotest.(check bool) "geometric mean" true (abs_float (mean -. 3.0) < 0.1)

let test_choose () =
  let rng = Rng.create ~seed:41 in
  let arr = [| 'a'; 'b'; 'c' |] in
  for _ = 1 to 100 do
    let c = Rng.choose rng arr in
    if not (Array.mem c arr) then Alcotest.fail "choose outside array"
  done;
  Alcotest.check_raises "empty array"
    (Invalid_argument "Rng.choose: empty array") (fun () ->
      ignore (Rng.choose rng [||]))

(* The SplitMix64 stream is a compatibility contract: golden panels, pinned
   benchmark digests and every recorded trace depend on it.  These are the
   first six outputs of each draw for three seeds, recorded from the boxed
   [{ mutable state : int64 }] implementation; the unboxed state must
   reproduce them bit for bit.  Floats are compared by their IEEE bits,
   bools as 0/1, and [split] as the child's first output xor the parent's
   next one. *)
let pinned_kinds : (string * (Rng.t -> int64)) list =
  let of_float = Int64.bits_of_float and of_int = Int64.of_int in
  let of_bool b = if b then 1L else 0L in
  [
    ("bits64", Rng.bits64);
    ("float", fun r -> of_float (Rng.float r));
    ("int 1000", fun r -> of_int (Rng.int r 1000));
    ("int max_int", fun r -> of_int (Rng.int r max_int));
    ("int_in -5 5", fun r -> of_int (Rng.int_in r (-5) 5));
    ("bernoulli 0.3", fun r -> of_bool (Rng.bernoulli r ~p:0.3));
    ("poisson 2.5", fun r -> of_int (Rng.poisson r ~lambda:2.5));
    ("poisson 80", fun r -> of_int (Rng.poisson r ~lambda:80.0));
    ("geometric 0.25", fun r -> of_int (Rng.geometric r ~p:0.25));
    ("exponential 2", fun r -> of_float (Rng.exponential r ~rate:2.0));
    ( "pareto_int 1.2 1000",
      fun r -> of_int (Rng.pareto_int r ~alpha:1.2 ~max:1000) );
    ( "split",
      fun r ->
        let c = Rng.split r in
        Int64.logxor (Rng.bits64 c) (Rng.bits64 r) );
  ]

let pinned_outputs =
  [
    ("bits64", 0,
      [ -2152535657050944081L; 7960286522194355700L; 487617019471545679L;
        -537132696929009172L; 1961750202426094747L; 6038094601263162090L ]);
    ("float", 0,
      [ 4606131375998723001L; 4601445337224736344L; 4583276237337666816L;
        4606920146975345040L; 4592327507391391856L; 4599568196676951976L ]);
    ("int 1000", 0,
      [ 767L; 850L; 839L;
        222L; 373L; 45L ]);
    ("int max_int", 0,
      [ 3535418189901915864L; 3980143261097177850L; 243808509735772839L;
        4343119669962883319L; 980875101213047373L; 3019047300631581045L ]);
    ("int_in -5 5", 0,
      [ -5L; 0L; -5L;
        2L; -2L; -3L ]);
    ("bernoulli 0.3", 0,
      [ 0L; 0L; 1L;
        0L; 1L; 0L ]);
    ("poisson 2.5", 0,
      [ 2L; 2L; 2L;
        5L; 3L; 6L ]);
    ("poisson 80", 0,
      [ 63L; 82L; 78L;
        81L; 86L; 81L ]);
    ("geometric 0.25", 0,
      [ 7L; 1L; 0L;
        12L; 0L; 1L ]);
    ("exponential 2", 0,
      [ 4607516228665378545L; 4598758915008204153L; 4578875147897394268L;
        4610642079505546718L; 4588262787916429652L; 4596310623273979541L ]);
    ("pareto_int 1.2 1000", 0,
      [ 5L; 1L; 1L;
        19L; 1L; 1L ]);
    ("split", 0,
      [ -3927627857418773605L; 1633937025452848368L; 1540051126327426742L;
        -5830466925368346783L; -208529316725272365L; 1573460900836297925L ]);
    ("bits64", 42,
      [ -4767286540954276203L; 2949826092126892291L; 5139283748462763858L;
        6349198060258255764L; 701532786141963250L; -2430762948046562554L ]);
    ("float", 42,
      [ 4604854642168692077L; 4594929399376720760L; 4598690451703514086L;
        4599872008648626872L; 4585641545927528512L; 4605995522829291547L ]);
    ("int 1000", 42,
      [ 706L; 145L; 929L;
        882L; 625L; 531L ]);
    ("int max_int", 42,
      [ 2228042747950249803L; 1474913046063446145L; 2569641874231381929L;
        3174599030129127882L; 350766393070981625L; 3396304544404106628L ]);
    ("int_in -5 5", 42,
      [ -1L; -3L; -4L;
        1L; -4L; 5L ]);
    ("bernoulli 0.3", 42,
      [ 0L; 1L; 1L;
        0L; 1L; 0L ]);
    ("poisson 2.5", 42,
      [ 2L; 1L; 3L;
        2L; 3L; 1L ]);
    ("poisson 80", 42,
      [ 88L; 76L; 82L;
        82L; 74L; 74L ]);
    ("geometric 0.25", 42,
      [ 4L; 0L; 1L;
        1L; 0L; 7L ]);
    ("exponential 2", 42,
      [ 4604269087931319228L; 4590942320285953733L; 4595050857702892707L;
        4596768029466305987L; 4581244882723620976L; 4607242502906742463L ]);
    ("pareto_int 1.2 1000", 42,
      [ 3L; 1L; 1L;
        1L; 1L; 5L ]);
    ("split", 42,
      [ 9155283172306879239L; 6342272890556112607L; 5703421197797300435L;
        353610401223533710L; -7920066091934335032L; -6164108107696945865L ]);
    ("bits64", 2014,
      [ -4192831650131979260L; 195712523871778755L; -6859590515223675173L;
        1407460852654598280L; -7820192879333865719L; 4283057755417690474L ]);
    ("float", 2014,
      [ 4605135137720851402L; 4577269638152046464L; 4603833009368755847L;
        4590162314618846952L; 4603363965245655168L; 4597533367469085600L ]);
    ("int 1000", 2014,
      [ 178L; 377L; 221L;
        140L; 948L; 237L ]);
    ("int max_int", 2014,
      [ 2515270193361398275L; 97856261935889377L; 1181890760815550318L;
        703730426327299140L; 701589578760455045L; 2141528877708845237L ]);
    ("int_in -5 5", 2014,
      [ -2L; 3L; 3L;
        -5L; -1L; 3L ]);
    ("bernoulli 0.3", 2014,
      [ 0L; 1L; 0L;
        1L; 0L; 1L ]);
    ("poisson 2.5", 2014,
      [ 1L; 1L; 2L;
        3L; 3L; 2L ]);
    ("poisson 80", 2014,
      [ 95L; 91L; 81L;
        69L; 75L; 77L ]);
    ("geometric 0.25", 2014,
      [ 5L; 0L; 3L;
        0L; 2L; 0L ]);
    ("exponential 2", 2014,
      [ 4604847354476364860L; 4572798714081524089L; 4602581902912440769L;
        4585879774734930331L; 4601401406130040398L; 4593927541368481294L ]);
    ("pareto_int 1.2 1000", 2014,
      [ 3L; 1L; 2L;
        1L; 2L; 1L ]);
    ("split", 2014,
      [ -3223796336483672060L; 6262777450151235957L; -7654869359470769780L;
        8888815612105969314L; -4382623851694022047L; -7122845907068501225L ]);
  ]

let test_pinned_stream () =
  List.iter
    (fun (kind, seed, want) ->
      let draw = List.assoc kind pinned_kinds in
      let rng = Rng.create ~seed in
      let got = List.map (fun _ -> draw rng) want in
      Alcotest.(check (list int64))
        (Printf.sprintf "%s, seed %d" kind seed)
        want got)
    pinned_outputs

(* Draws that return an int or a bool allocate nothing; the float and
   int64 draws allocate only the box of their result. *)
let test_draws_allocation_free () =
  let rng = Rng.create ~seed:43 in
  let small = Rng.poisson_of_mean 2.5 and large = Rng.poisson_of_mean 80.0 in
  let weights = [| 0.5; 0.0; 2.0; 1.5 |] and arr = [| 'a'; 'b'; 'c' |] in
  List.iter
    (fun (name, f) -> Alloc.check_free name f)
    [
      ("int", fun () -> ignore (Rng.int rng 7));
      ("int max_int", fun () -> ignore (Rng.int rng max_int));
      ("int_in", fun () -> ignore (Rng.int_in rng (-5) 5));
      ("bool", fun () -> ignore (Rng.bool rng));
      ("bernoulli", fun () -> ignore (Rng.bernoulli rng ~p:0.3));
      ("poisson small", fun () -> ignore (Rng.poisson rng ~lambda:2.5));
      ("poisson large", fun () -> ignore (Rng.poisson rng ~lambda:80.0));
      ("poisson_draw small", fun () -> ignore (Rng.poisson_draw rng small));
      ("poisson_draw large", fun () -> ignore (Rng.poisson_draw rng large));
      ("geometric", fun () -> ignore (Rng.geometric rng ~p:0.25));
      ("pareto_int", fun () -> ignore (Rng.pareto_int rng ~alpha:1.2 ~max:1000));
      ("weighted", fun () -> ignore (Rng.weighted rng weights ~total:4.0));
      ("choose", fun () -> ignore (Rng.choose rng arr));
    ];
  List.iter
    (fun (name, box, f) ->
      let w = Alloc.words_per_call f in
      Alcotest.(check bool)
        (Printf.sprintf "%s allocates only its result (%.3f words/call)" name w)
        true
        (w <= float_of_int box +. 0.01))
    [
      ("float", 2, fun () -> ignore (Rng.float rng));
      ("exponential", 2, fun () -> ignore (Rng.exponential rng ~rate:2.0));
      ("bits64", 3, fun () -> ignore (Rng.bits64 rng));
    ]

let test_poisson_draw_matches_poisson () =
  List.iter
    (fun lambda ->
      let a = Rng.create ~seed:47 and b = Rng.create ~seed:47 in
      let p = Rng.poisson_of_mean lambda in
      for _ = 1 to 2_000 do
        Alcotest.(check int)
          (Printf.sprintf "lambda %g" lambda)
          (Rng.poisson a ~lambda) (Rng.poisson_draw b p)
      done)
    [ 0.0; 0.3; 2.5; 29.9; 30.0; 80.0 ]

let test_poisson_rejects_bad_means () =
  List.iter
    (fun lambda ->
      let rng = Rng.create ~seed:53 in
      (match Rng.poisson rng ~lambda with
      | exception Invalid_argument _ -> ()
      | n -> Alcotest.failf "poisson ~lambda:%g returned %d" lambda n);
      match Rng.poisson_of_mean lambda with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.failf "poisson_of_mean %g accepted" lambda)
    [ Float.nan; Float.infinity; Float.neg_infinity; -1.0; 1e300 ];
  (* The largest accepted mean still yields a non-negative count. *)
  let rng = Rng.create ~seed:59 in
  for _ = 1 to 100 do
    if Rng.poisson rng ~lambda:0x1p52 < 0 then
      Alcotest.fail "negative count at the largest mean"
  done

let test_weighted_matches_scan () =
  let weights = [| 0.0; 1.0; 3.0; 0.5 |] in
  let total = Array.fold_left ( +. ) 0.0 weights in
  let a = Rng.create ~seed:61 and b = Rng.create ~seed:61 in
  for _ = 1 to 2_000 do
    let x = Rng.float b *. total in
    let rec pick i acc =
      if i = Array.length weights - 1 then i
      else
        let acc = acc +. weights.(i) in
        if x < acc then i else pick (i + 1) acc
    in
    Alcotest.(check int) "same index" (pick 0 0.0) (Rng.weighted a weights ~total)
  done

let prop_int_uniformity =
  QCheck2.Test.make ~name:"Rng.int covers its range" ~count:50
    QCheck2.Gen.(int_range 2 40)
    (fun bound ->
      let rng = Rng.create ~seed:bound in
      let seen = Array.make bound false in
      for _ = 1 to bound * 200 do
        seen.(Rng.int rng bound) <- true
      done;
      Array.for_all Fun.id seen)

(* The parallel subsystem (Smbm_par) derives per-task seeds by splitting:
   its determinism-and-independence contract rests on split children not
   replaying each other's outputs.  SplitMix64 children are shifted copies
   of one 2^64-periodic permutation, so overlap over a prefix would require
   two child states to land within N gammas of each other — this property
   pins that down empirically for many parents and fans. *)
let prop_split_no_overlap =
  QCheck2.Test.make ~name:"Rng.split children pairwise non-overlapping"
    ~count:25
    QCheck2.Gen.(pair (int_bound 1_000_000) (int_range 2 8))
    (fun (seed, children) ->
      let draws = 512 in
      let parent = Rng.create ~seed in
      let seen = Hashtbl.create (children * draws) in
      let ok = ref true in
      for child = 0 to children - 1 do
        let rng = Rng.split parent in
        for _ = 1 to draws do
          let v = Rng.bits64 rng in
          (match Hashtbl.find_opt seen v with
          | Some other when other <> child -> ok := false
          | Some _ | None -> ());
          Hashtbl.replace seen v child
        done
      done;
      !ok)

let suite =
  [
    Alcotest.test_case "determinism by seed" `Quick test_determinism;
    Alcotest.test_case "seed sensitivity" `Quick test_seed_sensitivity;
    Alcotest.test_case "copy preserves stream" `Quick test_copy_independent;
    Alcotest.test_case "split gives distinct stream" `Quick test_split_differs;
    Alcotest.test_case "int bounds" `Quick test_int_bounds;
    Alcotest.test_case "int_in bounds" `Quick test_int_in_bounds;
    Alcotest.test_case "float in unit interval" `Quick test_float_unit_interval;
    Alcotest.test_case "float mean" `Quick test_float_mean;
    Alcotest.test_case "bernoulli" `Quick test_bernoulli;
    Alcotest.test_case "poisson small lambda" `Quick test_poisson_mean_small;
    Alcotest.test_case "poisson large lambda" `Quick test_poisson_mean_large;
    Alcotest.test_case "exponential mean" `Quick test_exponential_mean;
    Alcotest.test_case "geometric" `Quick test_geometric;
    Alcotest.test_case "choose" `Quick test_choose;
    Alcotest.test_case "pinned stream" `Quick test_pinned_stream;
    Alcotest.test_case "draws allocation-free" `Quick test_draws_allocation_free;
    Alcotest.test_case "poisson_draw matches poisson" `Quick
      test_poisson_draw_matches_poisson;
    Alcotest.test_case "poisson rejects bad means" `Quick
      test_poisson_rejects_bad_means;
    Alcotest.test_case "weighted matches scan" `Quick test_weighted_matches_scan;
    Qc.to_alcotest prop_int_uniformity;
    Qc.to_alcotest prop_split_no_overlap;
  ]
