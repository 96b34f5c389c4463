open Smbm_prelude

(* The Poisson mean and Knuth's limit are prepared once, at [create]: an
   on-slot then costs one [Rng.poisson_draw], which allocates nothing. *)
type emission =
  | Poisson of Rng.poisson
  | Batch of { sample : Rng.t -> int; mean : float }

type t = {
  rng : Rng.t;
  p_on_to_off : float;
  p_off_to_on : float;
  emission : emission;
  mutable on : bool;
}

let stationary_on ~p_on_to_off ~p_off_to_on =
  if p_on_to_off +. p_off_to_on = 0.0 then 0.5
  else p_off_to_on /. (p_on_to_off +. p_off_to_on)

let check_probabilities ~p_on_to_off ~p_off_to_on =
  let check p what =
    (* Written so that NaN fails too. *)
    if not (p >= 0.0 && p <= 1.0) then
      invalid_arg (Printf.sprintf "Mmpp.create: %s must be in [0, 1]" what)
  in
  check p_on_to_off "p_on_to_off";
  check p_off_to_on "p_off_to_on"

let make ~rng ~p_on_to_off ~p_off_to_on ~emission ~start_on =
  check_probabilities ~p_on_to_off ~p_off_to_on;
  let on =
    match start_on with
    | Some b -> b
    | None -> Rng.bernoulli rng ~p:(stationary_on ~p_on_to_off ~p_off_to_on)
  in
  { rng; p_on_to_off; p_off_to_on; emission; on }

let create ~rng ~p_on_to_off ~p_off_to_on ~rate_on ?start_on () =
  let poisson =
    match Rng.poisson_of_mean rate_on with
    | p -> p
    | exception Invalid_argument _ ->
      invalid_arg "Mmpp.create: rate_on must be finite, >= 0 and <= 2^52"
  in
  make ~rng ~p_on_to_off ~p_off_to_on ~emission:(Poisson poisson) ~start_on

let create_batch ~rng ~p_on_to_off ~p_off_to_on ~sample ~mean ?start_on () =
  if not (mean >= 0.0 && Float.is_finite mean) then
    invalid_arg "Mmpp.create_batch: mean must be finite and >= 0";
  make ~rng ~p_on_to_off ~p_off_to_on ~emission:(Batch { sample; mean })
    ~start_on

let step t =
  let flip_p = if t.on then t.p_on_to_off else t.p_off_to_on in
  if Rng.bernoulli t.rng ~p:flip_p then t.on <- not t.on;
  if t.on then
    match t.emission with
    | Poisson p -> Rng.poisson_draw t.rng p
    | Batch { sample; _ } ->
      let n = sample t.rng in
      if n < 0 then invalid_arg "Mmpp.step: batch sampler returned negative"
      else n
  else 0

let is_on t = t.on

let duty_cycle t =
  stationary_on ~p_on_to_off:t.p_on_to_off ~p_off_to_on:t.p_off_to_on

let mean_rate t =
  let on_mean =
    match t.emission with
    | Poisson p -> Rng.poisson_mean p
    | Batch { mean; _ } -> mean
  in
  duty_cycle t *. on_mean
