(* Off-heap int column: a Bigarray.Array1 of native ints, C layout.

   Trace.Compact keeps its columns in these instead of [int array] for two
   reasons.  First, the payload lives outside the OCaml heap, so the GC
   never scans it — a multi-million-slot trace costs the collector nothing.
   Second, Bigarray proxies are reference-counted views over one shared
   allocation: [sub] hands out a zero-copy window, which is how parallel
   sweeps give every domain a slice of one shared trace slab instead of a
   private copy.  Sharing read-only columns across domains is safe —
   immutable-after-build data needs no synchronization, and there are no
   GC headers to race on.  (The switches' slabs are private to one engine
   and short-lived, so they are plain [int array]s: a Bigarray costs a
   custom-block allocation per column at creation.) *)

type t = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

let create len =
  if len < 0 then invalid_arg "Int_col.create: negative length";
  let c = Bigarray.Array1.create Bigarray.int Bigarray.c_layout len in
  Bigarray.Array1.fill c 0;
  c

let init len f =
  if len < 0 then invalid_arg "Int_col.init: negative length";
  let c = Bigarray.Array1.create Bigarray.int Bigarray.c_layout len in
  for i = 0 to len - 1 do
    Bigarray.Array1.unsafe_set c i (f i)
  done;
  c

let length (t : t) = Bigarray.Array1.dim t
let get (t : t) i = Bigarray.Array1.get t i
let unsafe_get (t : t) i = Bigarray.Array1.unsafe_get t i [@@inline]

let blit ~src ~src_pos ~dst ~dst_pos ~len =
  if len < 0 then invalid_arg "Int_col.blit: negative length";
  if len > 0 then
    Bigarray.Array1.blit
      (Bigarray.Array1.sub src src_pos len)
      (Bigarray.Array1.sub dst dst_pos len)

let sub (t : t) ~pos ~len : t = Bigarray.Array1.sub t pos len

let of_array a = init (Array.length a) (Array.unsafe_get a)
let to_array (t : t) = Array.init (length t) (Bigarray.Array1.unsafe_get t)

let equal (a : t) (b : t) =
  length a = length b
  &&
  let n = length a in
  let rec go i =
    i >= n
    || Bigarray.Array1.unsafe_get a i = Bigarray.Array1.unsafe_get b i
       && go (i + 1)
  in
  go 0
