open Smbm_core

type t = {
  slots : Arrival_batch.t array;
  capacity : int;
  head : int Atomic.t;  (* consumer position: next slot to read *)
  tail : int Atomic.t;  (* producer position: next slot to write *)
  closed : bool Atomic.t;
  aborted : bool Atomic.t;
  shed_slots : int Atomic.t;
  shed_packets : int Atomic.t;
  scratch : Arrival_batch.t;  (* producer-only: shed generation target *)
  mutable max_occupancy : int;  (* producer-only *)
  (* Park/wake hand-off of a producer blocked on a full ring: it waits on
     [space] under [lock] with [parked] set, and the consumer (or [abort])
     signals once occupancy is down to [low_water]. *)
  lock : Mutex.t;
  space : Condition.t;
  parked : bool Atomic.t;
  low_water : int;
}

let create ~capacity () =
  if capacity < 1 then invalid_arg "Spsc_ring.create: capacity must be >= 1";
  {
    slots = Array.init capacity (fun _ -> Arrival_batch.create ());
    capacity;
    head = Atomic.make 0;
    tail = Atomic.make 0;
    closed = Atomic.make false;
    aborted = Atomic.make false;
    shed_slots = Atomic.make 0;
    shed_packets = Atomic.make 0;
    scratch = Arrival_batch.create ();
    max_occupancy = 0;
    lock = Mutex.create ();
    space = Condition.create ();
    parked = Atomic.make false;
    low_water = capacity / 2;
  }

let capacity t = t.capacity
let length t = Atomic.get t.tail - Atomic.get t.head
let shed_slots t = Atomic.get t.shed_slots
let shed_packets t = Atomic.get t.shed_packets
let max_occupancy t = t.max_occupancy

type push_result = Pushed | Shed | Aborted

(* Consumer back-off while the ring is empty: spin briefly to catch the
   common fast hand-off, then yield the core so a pinned pair of domains
   cannot starve the rest of the process. *)
let backoff spins =
  if spins < 64 then Domain.cpu_relax () else Unix.sleepf 0.0002

(* Wake a parked producer.  Taking the lock orders the signal after the
   producer's re-check (see [park]), so it cannot fall between that check
   and the wait. *)
let wake t =
  Mutex.lock t.lock;
  Condition.signal t.space;
  Mutex.unlock t.lock

(* Park the producer until the consumer has drained the ring to
   [low_water] (or aborted).  No wake-up is lost: [parked] is published
   before the occupancy is re-read, and the consumer publishes [head]
   before it reads [parked] — both through sequentially consistent
   atomics — so either this re-check sees the drained ring, or the
   consumer sees [parked] and signals; and its signal, taken under the
   lock, lands after this re-check, i.e. inside [Condition.wait]. *)
let park t =
  Mutex.lock t.lock;
  Atomic.set t.parked true;
  while
    (not (Atomic.get t.aborted))
    && Atomic.get t.tail - Atomic.get t.head > t.low_water
  do
    Condition.wait t.space t.lock
  done;
  Atomic.set t.parked false;
  Mutex.unlock t.lock

let produce t ?on_block ~policy ~fill () =
  if Atomic.get t.closed then
    invalid_arg "Spsc_ring.produce: ring already closed";
  let publish tail =
    let batch = t.slots.(tail mod t.capacity) in
    Arrival_batch.clear batch;
    fill batch;
    (* The atomic store publishes the batch contents to the consumer. *)
    Atomic.set t.tail (tail + 1);
    let occ = tail + 1 - Atomic.get t.head in
    if occ > t.max_occupancy then t.max_occupancy <- occ;
    Pushed
  in
  if Atomic.get t.aborted then Aborted
  else
    let tail = Atomic.get t.tail in
    if tail - Atomic.get t.head < t.capacity then publish tail
    else
      match policy with
      | `Block ->
        (* The stall is timed only when someone wants it, so the default
           path stays free of [gettimeofday] calls. *)
        let t0 = if on_block = None then 0.0 else Unix.gettimeofday () in
        park t;
        (match on_block with
        | Some f -> f (Unix.gettimeofday () -. t0)
        | None -> ());
        if Atomic.get t.aborted then Aborted else publish (Atomic.get t.tail)
      | `Shed ->
        (* The workload still advances: fill a private batch, count it,
           drop it.  Loss is accounted, never silent. *)
        Arrival_batch.clear t.scratch;
        fill t.scratch;
        Atomic.incr t.shed_slots;
        Atomic.set t.shed_packets
          (Atomic.get t.shed_packets + Arrival_batch.length t.scratch);
        Shed

let close t = Atomic.set t.closed true
let abort t =
  Atomic.set t.aborted true;
  wake t

type pop_result = Consumed | Drained | Stopped

let consume t ~stop ~f =
  let rec wait spins =
    let head = Atomic.get t.head in
    if Atomic.get t.tail > head then begin
      let batch = t.slots.(head mod t.capacity) in
      f batch;
      (* The atomic store returns the slot to the producer for reuse. *)
      Atomic.set t.head (head + 1);
      if Atomic.get t.parked && Atomic.get t.tail - (head + 1) <= t.low_water
      then wake t;
      Consumed
    end
    else if Atomic.get t.closed && Atomic.get t.tail = head then Drained
    else if stop () then Stopped
    else begin
      backoff spins;
      wait (spins + 1)
    end
  in
  wait 0
