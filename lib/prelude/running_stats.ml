(* The float accumulators sit in an all-float record, whose fields are
   stored unboxed: in a record that also holds the int [n], every store to
   a float field would allocate a box. *)
type acc = {
  mutable mean : float;
  mutable m2 : float; (* sum of squared deviations from the running mean *)
  mutable min : float;
  mutable max : float;
}

type t = { mutable n : int; acc : acc }

let create () =
  { n = 0; acc = { mean = 0.0; m2 = 0.0; min = infinity; max = neg_infinity } }

let clear t =
  t.n <- 0;
  t.acc.mean <- 0.0;
  t.acc.m2 <- 0.0;
  t.acc.min <- infinity;
  t.acc.max <- neg_infinity

let[@inline] record t x =
  t.n <- t.n + 1;
  let a = t.acc in
  let delta = x -. a.mean in
  a.mean <- a.mean +. (delta /. float_of_int t.n);
  a.m2 <- a.m2 +. (delta *. (x -. a.mean));
  if x < a.min then a.min <- x;
  if x > a.max then a.max <- x

let add t x = record t x
let add_int t n = record t (float_of_int n)

let count t = t.n
let mean t = if t.n = 0 then 0.0 else t.acc.mean
let variance t = if t.n < 2 then 0.0 else t.acc.m2 /. float_of_int (t.n - 1)
let stddev t = sqrt (variance t)

let min t =
  if t.n = 0 then invalid_arg "Running_stats.min: no samples";
  t.acc.min

let max t =
  if t.n = 0 then invalid_arg "Running_stats.max: no samples";
  t.acc.max

let sum t = t.acc.mean *. float_of_int t.n

let merge a b =
  let copy t =
    let { mean; m2; min; max } = t.acc in
    { n = t.n; acc = { mean; m2; min; max } }
  in
  if a.n = 0 then copy b
  else if b.n = 0 then copy a
  else begin
    let a' = a.acc and b' = b.acc in
    let n = a.n + b.n in
    let delta = b'.mean -. a'.mean in
    let nf = float_of_int n in
    let mean = a'.mean +. (delta *. float_of_int b.n /. nf) in
    let m2 =
      a'.m2 +. b'.m2
      +. (delta *. delta *. float_of_int a.n *. float_of_int b.n /. nf)
    in
    {
      n;
      acc =
        { mean; m2; min = Float.min a'.min b'.min; max = Float.max a'.max b'.max };
    }
  end

let pp ppf t =
  if t.n = 0 then Format.fprintf ppf "n=0"
  else
    Format.fprintf ppf "n=%d mean=%.4g sd=%.4g min=%.4g max=%.4g" t.n (mean t)
      (stddev t) t.acc.min t.acc.max
