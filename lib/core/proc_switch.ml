open Smbm_prelude

(* One struct-of-arrays slab of [cap] packet slots (columns: residual work,
   arrival slot, packet id) with a free-list stack, and one contiguous ring
   of slot ids per port.  A warmed switch performs accept, push-out and
   transmission without allocating: the engine-facing
   [accept_unit]/[push_out_unit]/[transmit_phase_fields] entry points never
   materialize packet records.  The packet-returning API remains for tests
   and analyses; it returns fresh snapshot records read off the columns.

   The slab columns are plain [int array]s: a switch is private to one
   engine and never shared across domains, and the GC does not scan the
   contents of an int array beyond its header.  (Off-heap {!Int_col}s pay a
   Bigarray allocation per column at creation, which a sweep point
   building eight instances felt in its set-up time.)  The per-port
   aggregates ([qlen]/[qwork]/[works]) are the key columns the keyed victim
   indexes (Agg_index.create_lex) read directly. *)
type t = {
  config : Proc_config.t;
  n : int;
  works : int array; (* per-port required work (configuration copy) *)
  mutable cap : int; (* slab capacity; grows with set_buffer, never shrinks *)
  mutable residual : int array; (* columns, indexed by slot id *)
  mutable arrival : int array;
  mutable pid : int array;
  mutable free : int array; (* stack of free slot ids *)
  mutable free_top : int;
  rings : Int_ring.t array; (* per-port FIFO of occupied slot ids *)
  qlen : int array; (* per-port packet count (= ring length, maintained) *)
  qwork : int array; (* per-port total residual work (W_i) *)
  mutable buffer : int;
  mutable occupancy : int;
  mutable occupied_work : int;
  mutable next_id : int;
  mutable now : int;
  mutable indexes : (string * Agg_index.t) list;
}

type view = {
  view_works : int array;
  view_qlen : int array;
  view_qwork : int array;
}

let create (config : Proc_config.t) =
  let n = Proc_config.n config in
  let cap = config.Proc_config.buffer in
  {
    config;
    n;
    works = Array.init n (Proc_config.work config);
    cap;
    residual = Array.make cap 0;
    arrival = Array.make cap 0;
    pid = Array.make cap 0;
    free = Array.init cap Fun.id;
    free_top = cap;
    rings = Array.init n (fun _ -> Int_ring.create ());
    qlen = Array.make n 0;
    qwork = Array.make n 0;
    buffer = cap;
    occupancy = 0;
    occupied_work = 0;
    next_id = 0;
    now = 0;
    indexes = [];
  }

let config t = t.config
let n t = t.n
let buffer t = t.buffer

let grow_col c cap' =
  let c' = Array.make cap' 0 in
  Array.blit c 0 c' 0 (Array.length c);
  c'

let grow t cap' =
  t.residual <- grow_col t.residual cap';
  t.arrival <- grow_col t.arrival cap';
  t.pid <- grow_col t.pid cap';
  t.free <- grow_col t.free cap';
  for s = t.cap to cap' - 1 do
    t.free.(t.free_top) <- s;
    t.free_top <- t.free_top + 1
  done;
  t.cap <- cap'

let set_buffer t b =
  if b < 1 then invalid_arg "Proc_switch.set_buffer: buffer must be >= 1";
  if b < t.occupancy then
    invalid_arg
      "Proc_switch.set_buffer: new buffer smaller than current occupancy";
  if b > t.cap then grow t b;
  t.buffer <- b

let speedup t = t.config.Proc_config.speedup
let now t = t.now
let advance_slot t = t.now <- t.now + 1
let occupancy t = t.occupancy
let free_space t = buffer t - t.occupancy
let is_full t = t.occupancy >= buffer t

let check_port t i name =
  if i < 0 || i >= t.n then invalid_arg ("Proc_switch." ^ name ^ ": bad port")

let queue_length t i =
  check_port t i "queue_length";
  t.qlen.(i)

let queue_work t i =
  check_port t i "queue_work";
  t.qwork.(i)

let port_work t i = Proc_config.work t.config i
let total_occupied_work t = t.occupied_work

let iter_port t i ~f =
  check_port t i "iter_port";
  let ring = t.rings.(i) in
  for j = 0 to Int_ring.length ring - 1 do
    let s = Int_ring.get ring j in
    f ~residual:t.residual.(s) ~arrival:t.arrival.(s) ~id:t.pid.(s)
  done

(* ----- victim-selection indexes ----- *)

(* Hand-rolled traversal: [List.iter] with a lambda capturing [i] would
   allocate a closure on every mutation — [touch] runs for each accept,
   push-out and transmission, so that was the hot path's whole minor-heap
   footprint. *)
let rec touch_list indexes i =
  match indexes with
  | [] -> ()
  | (_, idx) :: rest ->
    Agg_index.invalidate idx i;
    touch_list rest i

let touch t i = touch_list t.indexes i

let touch_all t =
  List.iter (fun (_, idx) -> Agg_index.refresh idx) t.indexes

let find_index_with t ~key make =
  match List.assoc_opt key t.indexes with
  | Some idx -> idx
  | None ->
    let idx = make ~n:t.n in
    t.indexes <- (key, idx) :: t.indexes;
    idx

let view t = { view_works = t.works; view_qlen = t.qlen; view_qwork = t.qwork }

(* ----- mutations (every one keeps the aggregates in sync) ----- *)

(* Insert a packet and return its slot id.  The caller has already
   validated capacity and the destination port.  Slot ids and the free
   stack stay inside [0, cap) / [0, cap] by the slab invariants
   ([check_invariants] proves them), and [dest]/[victim] are validated by
   the public entry points — so the column accesses here skip the bounds
   check.  This is the per-packet hot path. *)
let insert t ~dest =
  let s = Array.unsafe_get t.free (t.free_top - 1) in
  t.free_top <- t.free_top - 1;
  let work = Array.unsafe_get t.works dest in
  Array.unsafe_set t.residual s work;
  Array.unsafe_set t.arrival s t.now;
  Array.unsafe_set t.pid s t.next_id;
  t.next_id <- t.next_id + 1;
  Int_ring.push_back (Array.unsafe_get t.rings dest) s;
  Array.unsafe_set t.qlen dest (Array.unsafe_get t.qlen dest + 1);
  Array.unsafe_set t.qwork dest (Array.unsafe_get t.qwork dest + work);
  t.occupancy <- t.occupancy + 1;
  t.occupied_work <- t.occupied_work + work;
  touch t dest;
  s

let snapshot t s ~dest =
  {
    Packet.Proc.id = t.pid.(s);
    dest;
    work = t.works.(dest);
    residual = t.residual.(s);
    arrival = t.arrival.(s);
  }

let accept t ~dest =
  if is_full t then invalid_arg "Proc_switch.accept: buffer full";
  check_port t dest "accept";
  snapshot t (insert t ~dest) ~dest

let accept_unit t ~dest =
  if is_full t then invalid_arg "Proc_switch.accept_unit: buffer full";
  check_port t dest "accept_unit";
  ignore (insert t ~dest : int)

(* Evict the tail slot of [victim]'s ring and return its id; columns stay
   readable until the slot is next handed out by an accept. *)
let evict t ~victim =
  let ring = Array.unsafe_get t.rings victim in
  if Int_ring.is_empty ring then
    invalid_arg "Proc_switch.push_out: victim queue empty";
  let s = Int_ring.pop_back ring in
  let r = Array.unsafe_get t.residual s in
  Array.unsafe_set t.qlen victim (Array.unsafe_get t.qlen victim - 1);
  Array.unsafe_set t.qwork victim (Array.unsafe_get t.qwork victim - r);
  t.occupancy <- t.occupancy - 1;
  t.occupied_work <- t.occupied_work - r;
  Array.unsafe_set t.free t.free_top s;
  t.free_top <- t.free_top + 1;
  touch t victim;
  s

let push_out t ~victim =
  check_port t victim "push_out";
  snapshot t (evict t ~victim) ~dest:victim

let push_out_unit t ~victim =
  check_port t victim "push_out_unit";
  ignore (evict t ~victim : int)

(* Transmission: head-of-line, run-to-completion, all aggregates and
   indexes settled before each hook runs, so a raising hook propagates out
   of a switch that satisfies [check_invariants].  Two loops, one per hook
   shape, so the engines' fields-based hot path never builds a packet
   record or a wrapper closure. *)

let serve_port_fields t i ~on_transmit =
  let ring = Array.unsafe_get t.rings i in
  if Int_ring.is_empty ring then 0
  else begin
    let budget = ref (speedup t) and sent = ref 0 in
    while !budget > 0 && not (Int_ring.is_empty ring) do
      let s = Int_ring.peek_front ring in
      let r = Array.unsafe_get t.residual s in
      let served = if !budget < r then !budget else r in
      Array.unsafe_set t.residual s (r - served);
      Array.unsafe_set t.qwork i (Array.unsafe_get t.qwork i - served);
      t.occupied_work <- t.occupied_work - served;
      budget := !budget - served;
      if served = r then begin
        ignore (Int_ring.pop_front ring : int);
        Array.unsafe_set t.qlen i (Array.unsafe_get t.qlen i - 1);
        Array.unsafe_set t.free t.free_top s;
        t.free_top <- t.free_top + 1;
        t.occupancy <- t.occupancy - 1;
        incr sent;
        touch t i;
        on_transmit ~dest:i ~arrival:(Array.unsafe_get t.arrival s)
      end
    done;
    touch t i;
    !sent
  end

let serve_port_packets t i ~on_transmit =
  let ring = t.rings.(i) in
  if Int_ring.is_empty ring then 0
  else begin
    let budget = ref (speedup t) and sent = ref 0 in
    while !budget > 0 && not (Int_ring.is_empty ring) do
      let s = Int_ring.peek_front ring in
      let r = t.residual.(s) in
      let served = if !budget < r then !budget else r in
      t.residual.(s) <- r - served;
      t.qwork.(i) <- t.qwork.(i) - served;
      t.occupied_work <- t.occupied_work - served;
      budget := !budget - served;
      if served = r then begin
        ignore (Int_ring.pop_front ring : int);
        t.qlen.(i) <- t.qlen.(i) - 1;
        t.free.(t.free_top) <- s;
        t.free_top <- t.free_top + 1;
        t.occupancy <- t.occupancy - 1;
        incr sent;
        touch t i;
        on_transmit (snapshot t s ~dest:i)
      end
    done;
    touch t i;
    !sent
  end

let serve_port t i ~on_transmit =
  check_port t i "serve_port";
  serve_port_packets t i ~on_transmit

let transmit_phase t ~on_transmit =
  let transmitted = ref 0 in
  for i = 0 to t.n - 1 do
    transmitted := !transmitted + serve_port_packets t i ~on_transmit
  done;
  !transmitted

let transmit_phase_fields t ~on_transmit =
  let transmitted = ref 0 in
  for i = 0 to t.n - 1 do
    transmitted := !transmitted + serve_port_fields t i ~on_transmit
  done;
  !transmitted

let flush t =
  let dropped = ref 0 in
  for i = 0 to t.n - 1 do
    let ring = t.rings.(i) in
    let len = Int_ring.length ring in
    dropped := !dropped + len;
    (* An indexed loop, not [Int_ring.iter]: a closure per port per
       flushout is churn a sweep point pays every few thousand slots. *)
    for j = 0 to len - 1 do
      t.free.(t.free_top) <- Int_ring.get ring j;
      t.free_top <- t.free_top + 1
    done;
    Int_ring.clear ring;
    t.qlen.(i) <- 0;
    t.qwork.(i) <- 0
  done;
  t.occupancy <- t.occupancy - !dropped;
  t.occupied_work <- 0;
  (* A real check, not [assert]: release builds compiled with [-noassert]
     must refuse to continue from a corrupted occupancy count too. *)
  if t.occupancy <> 0 then
    invalid_arg "Proc_switch.flush: occupancy out of sync with queue contents";
  touch_all t;
  !dropped

let check_invariants t =
  let seen = Array.make t.cap false in
  let len_sum = ref 0 and work_sum = ref 0 in
  for i = 0 to t.n - 1 do
    let ring = t.rings.(i) in
    if t.qlen.(i) <> Int_ring.length ring then
      invalid_arg "Proc_switch: cached queue length out of sync";
    len_sum := !len_sum + Int_ring.length ring;
    let qwork = ref 0 in
    for j = 0 to Int_ring.length ring - 1 do
      let s = Int_ring.get ring j in
      if s < 0 || s >= t.cap then invalid_arg "Proc_switch: slot id out of range";
      if seen.(s) then invalid_arg "Proc_switch: slot id used twice";
      seen.(s) <- true;
      let r = t.residual.(s) in
      if r < 1 || r > t.works.(i) then
        invalid_arg "Proc_switch: residual out of range";
      (* Only the head-of-line packet may be partially processed. *)
      if j > 0 && r <> t.works.(i) then
        invalid_arg "Proc_switch: non-HOL packet partially processed";
      qwork := !qwork + r
    done;
    if !qwork <> t.qwork.(i) then
      invalid_arg "Proc_switch: cached per-port work out of sync";
    work_sum := !work_sum + !qwork
  done;
  if !len_sum <> t.occupancy then
    invalid_arg "Proc_switch: occupancy out of sync with queue lengths";
  if t.occupancy > buffer t then invalid_arg "Proc_switch: occupancy exceeds B";
  if !work_sum <> t.occupied_work then
    invalid_arg "Proc_switch: cached occupied work out of sync";
  if t.free_top + t.occupancy <> t.cap then
    invalid_arg "Proc_switch: free list out of sync with occupancy";
  for j = 0 to t.free_top - 1 do
    let s = t.free.(j) in
    if s < 0 || s >= t.cap then
      invalid_arg "Proc_switch: free slot id out of range";
    if seen.(s) then invalid_arg "Proc_switch: free slot also queued";
    seen.(s) <- true
  done;
  List.iter (fun (_, idx) -> Agg_index.check idx) t.indexes
