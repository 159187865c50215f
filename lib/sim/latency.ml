module Rng = Causalb_util.Rng

type t =
  | Constant of float
  | Uniform of { lo : float; hi : float }
  | Exponential of { mean : float; floor : float }
  | Lognormal of { mu : float; sigma : float; floor : float }
  | Pareto of { scale : float; shape : float }

(* A non-finite parameter would draw NaN or infinite delays, and a
   negative floor negative ones: the engine would refuse them only once
   a copy is being scheduled.  [Float.is_finite] rejects NaN and both
   infinities. *)
let finite = Float.is_finite

let check_floor who floor =
  if not (finite floor && floor >= 0.0) then
    invalid_arg ("Latency." ^ who ^ ": floor must be finite and >= 0")

let constant d =
  if not (finite d && d > 0.0) then
    invalid_arg "Latency.constant: delay must be positive and finite";
  Constant d

let uniform ~lo ~hi =
  if not (finite lo && finite hi && lo > 0.0 && hi >= lo) then
    invalid_arg "Latency.uniform: need finite 0 < lo <= hi";
  Uniform { lo; hi }

let exponential ?(floor = 0.0) ~mean () =
  if not (finite mean && mean > 0.0) then
    invalid_arg "Latency.exponential: mean must be positive and finite";
  check_floor "exponential" floor;
  Exponential { mean; floor }

let lognormal ?(floor = 0.0) ~mu ~sigma () =
  if not (finite sigma && sigma >= 0.0) then
    invalid_arg "Latency.lognormal: sigma must be finite and >= 0";
  if not (finite mu) then invalid_arg "Latency.lognormal: mu must be finite";
  check_floor "lognormal" floor;
  Lognormal { mu; sigma; floor }

let pareto ~scale ~shape =
  if not (finite scale && finite shape && scale > 0.0 && shape > 0.0) then
    invalid_arg "Latency.pareto: scale and shape must be positive and finite";
  Pareto { scale; shape }

(* The samplers.  Each distribution's arithmetic is written here once,
   over [Rng.bits53] draws: an immediate crosses from [Rng], and every
   float stays in this module.  [below rng b], uniform in [0, b), is
   [Rng.float rng b] on the same draw, bit for bit. *)
let[@inline] below rng bound =
  bound *. (float_of_int (Rng.bits53 rng) /. 9007199254740992.0)

(* Inlined into both entries below: [add_sample] then adds the draw to
   the cell without boxing it. *)
let[@inline] draw rng = function
  | Constant d -> d
  | Uniform { lo; hi } -> lo +. below rng (hi -. lo)
  | Exponential { mean; floor } ->
    let u = 1.0 -. below rng 1.0 in
    floor +. (-.mean *. log u)
  | Lognormal { mu; sigma; floor } ->
    (* Box–Muller; the pair's second normal is discarded *)
    let u1 = 1.0 -. below rng 1.0 in
    let u2 = below rng 1.0 in
    let z = sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2) in
    floor +. exp (mu +. (sigma *. z))
  | Pareto { scale; shape } ->
    let u = 1.0 -. below rng 1.0 in
    scale /. (u ** (1.0 /. shape))

let sample rng t = draw rng t

let add_sample rng t (cell : Engine.cell) =
  cell.time <- cell.time +. draw rng t

let add_uniform rng bound (cell : Engine.cell) =
  cell.time <- cell.time +. below rng bound

let mean = function
  | Constant d -> d
  | Uniform { lo; hi } -> (lo +. hi) /. 2.0
  | Exponential { mean; floor } -> floor +. mean
  | Lognormal { mu; sigma; floor } ->
    floor +. exp (mu +. (sigma *. sigma /. 2.0))
  | Pareto { scale; shape } ->
    if shape <= 1.0 then infinity else scale *. shape /. (shape -. 1.0)

let pp ppf = function
  | Constant d -> Format.fprintf ppf "constant(%.3gms)" d
  | Uniform { lo; hi } -> Format.fprintf ppf "uniform(%.3g..%.3gms)" lo hi
  | Exponential { mean; floor } ->
    Format.fprintf ppf "exp(mean=%.3gms,floor=%.3g)" mean floor
  | Lognormal { mu; sigma; floor } ->
    Format.fprintf ppf "lognormal(mu=%.3g,sigma=%.3g,floor=%.3g)" mu sigma floor
  | Pareto { scale; shape } ->
    Format.fprintf ppf "pareto(scale=%.3g,shape=%.3g)" scale shape

let to_string t = Format.asprintf "%a" pp t

let lan = Lognormal { mu = 0.0; sigma = 0.5; floor = 0.1 }

let wan = Lognormal { mu = 3.0; sigma = 0.8; floor = 5.0 }
