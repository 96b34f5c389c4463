external now_ns : unit -> (int[@untagged])
  = "perfbench_now_ns" "perfbench_now_ns_unboxed"
[@@noalloc]

let[@inline] words () = int_of_float (Gc.minor_words ())

let seconds_since t0 = float_of_int (now_ns () - t0) *. 1e-9

(* VmHWM: the process's resident-set high-water mark, in MB.  It sees
   off-heap Bigarray slabs that Gc statistics miss. *)
let peak_rss_mb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> nan
  | ic ->
    let rec scan () =
      match input_line ic with
      | exception End_of_file -> nan
      | line ->
        if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
          Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d"
            (fun kb -> float_of_int kb /. 1024.)
        else scan ()
    in
    Fun.protect ~finally:(fun () -> close_in_noerr ic) scan
