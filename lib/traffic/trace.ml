open Smbm_prelude
open Smbm_core

type t = Arrival.t list array

let record workload ~slots =
  Array.init slots (fun _ -> Workload.next workload)

let of_slots slots = Array.map (fun l -> l) slots
let slots t = Array.length t
let arrivals t = Array.fold_left (fun acc l -> acc + List.length l) 0 t

let get t i =
  if i < 0 || i >= Array.length t then invalid_arg "Trace.get: out of bounds";
  t.(i)

let to_workload t =
  Workload.of_fun (fun i -> if i < Array.length t then t.(i) else [])

let save t oc =
  Array.iter
    (fun arrivals ->
      let cells =
        List.map
          (fun (a : Arrival.t) -> Printf.sprintf "%d:%d" a.dest a.value)
          arrivals
      in
      output_string oc (String.concat " " cells);
      output_char oc '\n')
    t

let parse_line line =
  let line = String.trim line in
  if line = "" then []
  else
    String.split_on_char ' ' line
    |> List.filter (fun s -> s <> "")
    |> List.map (fun cell ->
           match String.split_on_char ':' cell with
           | [ d; v ] -> (
             match int_of_string_opt d, int_of_string_opt v with
             | Some dest, Some value -> Arrival.make ~dest ~value ()
             | None, _ | _, None ->
               failwith ("Trace.load: malformed cell " ^ cell))
           | _ -> failwith ("Trace.load: malformed cell " ^ cell))

let load ic =
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> ());
  (* [!lines] is in reverse file order; rev_map restores it. *)
  !lines |> List.rev_map parse_line |> Array.of_list

let equal a b =
  Array.length a = Array.length b
  && Array.for_all2 (fun la lb -> List.equal Arrival.equal la lb) a b

module Compact = struct
  type trace = t

  (* The columns are off-heap {!Int_col}s: a compact trace's payload lives
     outside the OCaml heap, so the GC never scans it and several domains
     can replay the same trace (or [pack]ed windows of one shared slab)
     concurrently without copies — compact traces are immutable after
     construction. *)
  type t = {
    offsets : Int_col.t;  (* length slots + 1; slot i spans [offsets.(i), offsets.(i+1)) *)
    dest : Int_col.t;
    value : Int_col.t;
  }

  let slots t = Int_col.length t.offsets - 1
  let arrivals t = Int_col.get t.offsets (Int_col.length t.offsets - 1)

  let of_workload workload ~slots =
    if slots < 0 then invalid_arg "Trace.Compact.of_workload: negative slots";
    (* Build into growable heap arrays, then copy once into the off-heap
       columns at their exact final size.  The arrays start at the
       workload's expected arrival count when it declares a rate: each
       multi-megabyte doubling is allocated straight into the major heap
       and paid for in major-GC work, several times the cost of the
       copy.  An estimate past 1e9 arrivals could not be allocated; it
       falls back to doubling. *)
    let capacity =
      match Workload.mean_rate workload with
      | Some rate when rate *. float_of_int slots < 1e9 ->
        max 64 (int_of_float (rate *. float_of_int slots *. 1.1))
      | Some _ | None -> max 64 slots
    in
    let offsets = Array.make (slots + 1) 0 in
    let dest = ref (Array.make capacity 0) in
    let value = ref (Array.make capacity 0) in
    let len = ref 0 in
    let batch = Arrival_batch.create () in
    for i = 0 to slots - 1 do
      Workload.next_into workload batch;
      let n = Arrival_batch.length batch in
      if !len + n > Array.length !dest then begin
        let capacity = max (2 * Array.length !dest) (!len + n) in
        let extend a = Array.append a (Array.make (capacity - Array.length a) 0) in
        dest := extend !dest;
        value := extend !value
      end;
      let d = !dest and v = !value and base = !len in
      for j = 0 to n - 1 do
        Array.unsafe_set d (base + j) (Arrival_batch.unsafe_dest batch j);
        Array.unsafe_set v (base + j) (Arrival_batch.unsafe_value batch j)
      done;
      len := base + n;
      offsets.(i + 1) <- !len
    done;
    {
      offsets = Int_col.of_array offsets;
      dest = Int_col.init !len (fun j -> !dest.(j));
      value = Int_col.init !len (fun j -> !value.(j));
    }

  let iter_slot t i ~f =
    if i < 0 || i >= slots t then
      invalid_arg "Trace.Compact.iter_slot: out of bounds";
    (* Offsets are monotone within [0, arrivals] by construction, so the
       column reads inside the segment skip the bounds check. *)
    for j = Int_col.get t.offsets i to Int_col.get t.offsets (i + 1) - 1 do
      f ~dest:(Int_col.unsafe_get t.dest j) ~value:(Int_col.unsafe_get t.value j)
    done

  (* Replay straight out of the flat columns: the filled batch segment is
     one column-to-array copy, no per-packet allocation.  Slots beyond the
     end are empty, matching [to_workload].  The column reads use the
     Bigarray primitive rather than [Int_col.unsafe_get]: the primitive
     compiles inline, where the [Int_col] function is a call per read
     when modules are compiled [-opaque]. *)
  let replay t =
    let n = slots t in
    Workload.of_fun_into (fun b i ->
        if i < n then
          for j = Int_col.get t.offsets i to Int_col.get t.offsets (i + 1) - 1
          do
            Arrival_batch.push b
              ~dest:(Bigarray.Array1.unsafe_get t.dest j)
              ~value:(Bigarray.Array1.unsafe_get t.value j)
          done)

  let of_trace (trace : trace) =
    let slots = Array.length trace in
    let offsets = Array.make (slots + 1) 0 in
    Array.iteri
      (fun i l -> offsets.(i + 1) <- offsets.(i) + List.length l)
      trace;
    let n = offsets.(slots) in
    let dest = Array.make (max n 1) 0 and value = Array.make (max n 1) 0 in
    Array.iteri
      (fun i l ->
        List.iteri
          (fun j (a : Arrival.t) ->
            dest.(offsets.(i) + j) <- a.dest;
            value.(offsets.(i) + j) <- a.value)
          l)
      trace;
    {
      offsets = Int_col.of_array offsets;
      dest = Int_col.init n (fun j -> dest.(j));
      value = Int_col.init n (fun j -> value.(j));
    }

  let to_trace t =
    Array.init (slots t) (fun i ->
        let base = Int_col.get t.offsets i in
        List.init
          (Int_col.get t.offsets (i + 1) - base)
          (fun j ->
            let j = base + j in
            { Arrival.dest = Int_col.get t.dest j; value = Int_col.get t.value j }))

  let equal a b =
    Int_col.equal a.offsets b.offsets
    && Int_col.equal a.dest b.dest
    && Int_col.equal a.value b.value

  (* Deterministic content digest: a fixed-width little-endian serialization
     of (slots, offsets, dest, value) hashed with MD5.  Two compact traces
     have equal signatures iff they are [equal] (modulo MD5 collisions), on
     any platform or OCaml version — and regardless of whether the columns
     own their storage or window a [pack]ed slab. *)
  let signature t =
    let buf =
      Buffer.create
        (8 * (Int_col.length t.offsets + (2 * Int_col.length t.dest)))
    in
    let add c =
      Buffer.add_int64_le buf (Int64.of_int (Int_col.length c));
      for j = 0 to Int_col.length c - 1 do
        Buffer.add_int64_le buf (Int64.of_int (Int_col.get c j))
      done
    in
    add t.offsets;
    add t.dest;
    add t.value;
    Digest.to_hex (Digest.string (Buffer.contents buf))

  (* Consolidate many compact traces into three shared slabs (one per
     column role) and hand back zero-copy windows.  Content-equal to the
     inputs ([equal]/[signature] agree); the point is memory topology: a
     parallel sweep's whole trace working set becomes three off-heap
     allocations that every domain reads through windows, instead of one
     heap triple per trace. *)
  let pack ts =
    match ts with
    | [] | [ _ ] -> ts
    | _ ->
      let total f = List.fold_left (fun acc t -> acc + Int_col.length (f t)) 0 ts in
      let slab_of f =
        let slab = Int_col.create (total f) in
        let pos = ref 0 in
        let windows =
          List.map
            (fun t ->
              let c = f t in
              let len = Int_col.length c in
              Int_col.blit ~src:c ~src_pos:0 ~dst:slab ~dst_pos:!pos ~len;
              let w = Int_col.sub slab ~pos:!pos ~len in
              pos := !pos + len;
              w)
            ts
        in
        windows
      in
      let offsets = slab_of (fun t -> t.offsets)
      and dest = slab_of (fun t -> t.dest)
      and value = slab_of (fun t -> t.value) in
      List.map2
        (fun offsets (dest, value) -> { offsets; dest; value })
        offsets (List.combine dest value)
end
