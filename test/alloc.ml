(* Minor-heap words allocated per call of [f], averaged over [n] calls
   after one warm-up call.  The tests compile in the dev profile, where
   every library is opaque to its callers, so a zero here holds without
   any cross-module inlining. *)
let words_per_call ?(n = 10_000) f =
  f ();
  let w0 = Gc.minor_words () in
  for _ = 1 to n do
    f ()
  done;
  (Gc.minor_words () -. w0) /. float_of_int n

(* Below 0.01 word per call: anything that allocates per call reads >= 1. *)
let check_free name f =
  let w = words_per_call f in
  Alcotest.(check bool)
    (Printf.sprintf "%s allocates nothing (%.3f words/call)" name w)
    true (w < 0.01)
