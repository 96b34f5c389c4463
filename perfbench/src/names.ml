type metric = { name : string; unit_ : string }

let m name unit_ = { name; unit_ }

let end_to_end =
  [
    m "slots_per_s" "slots/s";
    m "minor_words_per_slot" "words/slot";
    m "setup_s" "s";
    m "peak_rss_mb" "MB";
    m "slot_p50_us" "us";
    m "slot_p99_us" "us";
  ]

let engines =
  [ "NHST"; "NEST"; "NHDT"; "LQD"; "BPD"; "BPD1"; "LWD"; "Greedy"; "MVD"; "MVD1"; "MRD" ]

let phases = [ "arrive"; "transmit"; "bookkeep" ]

let span prefix =
  [ m (prefix ^ ".us_per_slot") "us/slot"; m (prefix ^ ".minor_words_per_slot") "words/slot" ]

let per_layer =
  List.concat
    [
      span "traffic.gen";
      [ m "traffic.gen.time_share" "ratio"; m "traffic.gen.alloc_share" "ratio" ];
      span "traffic.materialize";
      span "traffic.trace_load";
      span "traffic.replay";
      [ m "traffic.arrivals_per_slot" "arrivals/slot" ];
      List.concat_map (fun ph -> span ("opt_ref." ^ ph)) phases;
      List.concat_map
        (fun e -> List.concat_map (fun ph -> span (Printf.sprintf "engine.%s.%s" e ph)) phases)
        engines;
      span "experiment.loop";
      [
        m "serve.stage.engine_us.p50" "us";
        m "serve.stage.engine_us.p99" "us";
        m "serve.stage.ring_wait_us.p99" "us";
        m "serve.stage.flush_us.p99" "us";
        m "serve.ring.max_occupancy" "slots";
        m "serve.flight.events_per_slot" "events/slot";
        m "trace.overhead" "ratio";
      ];
    ]

let valid_name s =
  let ok_char = function
    | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true
    | _ -> false
  in
  let n = String.length s in
  n >= 1 && n <= 64
  && (match s.[0] with 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' -> true | _ -> false)
  && String.for_all ok_char s
