(* The SplitMix64 state lives unboxed in an 8-byte buffer: an int64 record
   field holds a pointer to a boxed int64, so storing each advanced state
   would allocate.  The [%caml_bytes_{get,set}64u] primitives compile to
   one plain load and store, and the int64 arithmetic between them stays
   in registers.  No draw that returns an int or a bool allocates: helpers
   that would return an int64 or a float to their caller are [@inline], so
   those values never leave the function that consumes them. *)
type t = Bytes.t

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let golden_gamma = 0x9E3779B97F4A7C15L

let of_state s =
  let t = Bytes.create 8 in
  set64 t 0 s;
  t

let create ~seed = of_state (Int64.of_int seed)
let copy = Bytes.copy

(* Advance the state, then apply the SplitMix64 output function (Steele,
   Lea & Flood 2014). *)
let[@inline] next t =
  let z = Int64.add (get64 t 0) golden_gamma in
  set64 t 0 z;
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

(* 53 high bits scaled to [0, 1).  The top 53 bits fit an OCaml int, so the
   conversion goes through int rather than Int64.to_float. *)
let[@inline] unit_float t =
  float_of_int (Int64.to_int (Int64.shift_right_logical (next t) 11))
  *. (1.0 /. 9007199254740992.0)

let bits64 t = next t
let split t = of_state (next t)
let float t = unit_float t

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Rejection sampling to avoid modulo bias. *)
  let bound64 = Int64.of_int bound in
  let limit = Int64.sub Int64.max_int (Int64.sub bound64 1L) in
  let v = ref (-1) in
  while !v < 0 do
    let r = Int64.shift_right_logical (next t) 1 in
    let m = Int64.rem r bound64 in
    if Int64.sub r m <= limit then v := Int64.to_int m
  done;
  !v

let int_in t lo hi =
  if lo > hi then invalid_arg "Rng.int_in: lo > hi";
  lo + int t (hi - lo + 1)

let bool t = Int64.logand (next t) 1L = 1L

let bernoulli t ~p =
  if p <= 0.0 then false
  else if p >= 1.0 then true
  else unit_float t < p

let exponential t ~rate =
  if rate <= 0.0 then invalid_arg "Rng.exponential: rate must be positive";
  let u = 1.0 -. unit_float t in
  -.log u /. rate

(* Poisson draws.  Knuth's product method below mean 30, a normal
   approximation (Box-Muller, continuity-corrected) above.  Means above
   2^52 are rejected: the approximation's result must fit an int, and
   Box-Muller's normal is bounded by sqrt (2 * 53 * ln 2) < 9, so the count
   stays far below max_int. *)
let poisson_max_mean = 0x1p52

let check_mean what lambda =
  if not (lambda >= 0.0 && lambda <= poisson_max_mean) then
    invalid_arg
      (Printf.sprintf "Rng.%s: lambda must be finite, >= 0 and <= 2^52" what)

let[@inline] knuth t limit =
  let k = ref 0 and prod = ref (unit_float t) in
  while !prod > limit do
    incr k;
    prod := !prod *. unit_float t
  done;
  !k

let[@inline] normal_approx t lambda =
  let u1 = 1.0 -. unit_float t in
  let u2 = unit_float t in
  let normal = sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2) in
  let x = (normal *. sqrt lambda) +. lambda +. 0.5 in
  if x < 0.0 then 0 else int_of_float x

(* The one dispatch between the two methods; [limit] is [exp (-. lambda)],
   which only the Knuth branch reads. *)
let[@inline] poisson_dispatch t lambda limit =
  if lambda = 0.0 then 0
  else if lambda < 30.0 then knuth t limit
  else normal_approx t lambda

let poisson t ~lambda =
  check_mean "poisson" lambda;
  poisson_dispatch t lambda (exp (-.lambda))

(* All-float record: its fields are stored and read unboxed. *)
type poisson = { lambda : float; limit : float }

let poisson_of_mean lambda =
  check_mean "poisson_of_mean" lambda;
  { lambda; limit = exp (-.lambda) }

let poisson_mean p = p.lambda
let poisson_draw t p = poisson_dispatch t p.lambda p.limit

let geometric t ~p =
  if p <= 0.0 || p > 1.0 then invalid_arg "Rng.geometric: p must be in (0, 1]";
  if p = 1.0 then 0
  else
    let u = 1.0 -. unit_float t in
    int_of_float (Float.floor (log u /. log (1.0 -. p)))

let pareto_int t ~alpha ~max:cap =
  if alpha <= 0.0 then invalid_arg "Rng.pareto_int: alpha must be positive";
  if cap < 1 then invalid_arg "Rng.pareto_int: max must be >= 1";
  let u = 1.0 -. unit_float t in
  let x = Float.pow u (-1.0 /. alpha) in
  if x >= float_of_int cap then cap else int_of_float x

let pareto_int_mean ~alpha ~max:cap =
  if alpha <= 0.0 then invalid_arg "Rng.pareto_int_mean: alpha must be positive";
  if cap < 1 then invalid_arg "Rng.pareto_int_mean: max must be >= 1";
  (* E[X] = sum_(x=1..max) P(X >= x) = sum x^(-alpha). *)
  let mean = ref 0.0 in
  for x = 1 to cap do
    mean := !mean +. Float.pow (float_of_int x) (-.alpha)
  done;
  !mean

let weighted t weights ~total =
  let last = Array.length weights - 1 in
  if last < 0 then invalid_arg "Rng.weighted: empty weights";
  let x = unit_float t *. total in
  (* Linear scan over the running sum; the last index takes what rounding
     leaves over. *)
  let i = ref 0 and acc = ref 0.0 in
  while
    !i < last
    &&
    (acc := !acc +. Array.unsafe_get weights !i;
     not (x < !acc))
  do
    incr i
  done;
  !i

let choose t arr =
  if Array.length arr = 0 then invalid_arg "Rng.choose: empty array";
  arr.(int t (Array.length arr))
