(** Deterministic pseudo-random number generation (SplitMix64).

    Every stochastic component of the simulator draws from an explicit [Rng.t]
    so that experiments are reproducible from a single seed and independent
    streams can be split off for independent traffic sources.

    The state is held unboxed, so draws that return an [int] or a [bool]
    allocate nothing; {!bits64}, {!float} and {!exponential} allocate only
    the box of their result.  Traffic generators on the per-slot hot path
    therefore use the int and bool draws ({!poisson_draw}, {!weighted},
    ...). *)

type t

val create : seed:int -> t
(** A fresh generator.  Equal seeds yield equal streams. *)

val split : t -> t
(** A statistically independent generator derived from [t]'s stream.
    Advances [t]. *)

val copy : t -> t
(** A generator with identical future output to [t]. *)

val bits64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int t bound] is uniform on [0, bound).  [bound] must be positive. *)

val int_in : t -> int -> int -> int
(** [int_in t lo hi] is uniform on [lo, hi] inclusive.  Requires [lo <= hi]. *)

val float : t -> float
(** Uniform on [0, 1). *)

val bool : t -> bool

val bernoulli : t -> p:float -> bool
(** [true] with probability [p] (clamped to [0, 1]). *)

val exponential : t -> rate:float -> float
(** Exponential variate with the given rate (mean [1 /. rate]).
    [rate] must be positive. *)

val poisson : t -> lambda:float -> int
(** Poisson variate.  Uses Knuth's product method for small means and a
    normal approximation for large ones.
    @raise Invalid_argument unless [lambda] is in [\[0, 2^52\]] (NaN and
    infinities included), so the count is never negative. *)

type poisson
(** A Poisson mean with Knuth's [exp (-. lambda)] limit computed once. *)

val poisson_of_mean : float -> poisson
(** @raise Invalid_argument on the means {!poisson} rejects. *)

val poisson_mean : poisson -> float

val poisson_draw : t -> poisson -> int
(** [poisson_draw t (poisson_of_mean lambda)] consumes the stream and
    returns exactly what [poisson t ~lambda] does. *)

val geometric : t -> p:float -> int
(** Number of failures before the first success, [p] in (0, 1]. *)

val pareto_int : t -> alpha:float -> max:int -> int
(** Heavy-tailed integer on [1, max]: [floor(U^(-1/alpha))] clamped, so
    [P(X >= x) = x^(-alpha)] below the cap.  [alpha] must be positive,
    [max >= 1]. *)

val pareto_int_mean : alpha:float -> max:int -> float
(** Exact mean of {!pareto_int}: [sum_(x=1..max) x^(-alpha)]. *)

val weighted : t -> float array -> total:float -> int
(** Index drawn proportionally to non-negative [weights], whose sum is
    [total]: one {!float} draw scaled by [total], then a linear scan over
    the running sum (the last index takes any rounding remainder).
    @raise Invalid_argument on an empty array. *)

val choose : t -> 'a array -> 'a
(** Uniform element of a non-empty array. *)
