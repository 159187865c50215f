(** Link-latency models for the simulated network.

    The 1994 paper ran on LAN workstations; we replace the testbed with
    parameterised delay distributions so experiments can sweep the
    variance that drives message reordering (the phenomenon causal
    delivery must mask).  All times are in simulated milliseconds. *)

type t = private
  | Constant of float
  | Uniform of { lo : float; hi : float }
  | Exponential of { mean : float; floor : float }
      (** [floor] is a minimum propagation delay added to the draw. *)
  | Lognormal of { mu : float; sigma : float; floor : float }
  | Pareto of { scale : float; shape : float }

(** The constructors below are the only way to build a model.  Each
    @raise Invalid_argument on a non-finite parameter (NaN or an
    infinity), on a negative [floor], and on a parameter outside the
    distribution's domain. *)

val constant : float -> t

val uniform : lo:float -> hi:float -> t

val exponential : ?floor:float -> mean:float -> unit -> t

val lognormal : ?floor:float -> mu:float -> sigma:float -> unit -> t
(** [floor + exp (mu + sigma * N(0,1))]; the normal comes from a
    Box–Muller pair of draws. *)

val pareto : scale:float -> shape:float -> t
(** Minimum [scale], tail index [shape]. *)

(** {1 Sampling}

    Every distribution's arithmetic lives in this module, fed by
    [Causalb_util.Rng.bits53] draws: a sample consumes the same draws
    whichever entry takes it. *)

val sample : Causalb_util.Rng.t -> t -> float
(** A delay [>= 0] drawn from the model. *)

val add_sample : Causalb_util.Rng.t -> t -> Engine.cell -> unit
(** [add_sample rng m c] adds [sample rng m] to [c.time].  The draw
    never leaves this module as a float, so it allocates nothing: the
    per-copy path of [Net] computes arrival times with it. *)

val add_uniform : Causalb_util.Rng.t -> float -> Engine.cell -> unit
(** [add_uniform rng bound c] adds a draw uniform in [\[0, bound)] to
    [c.time], allocating nothing; its value and its draw are
    [Causalb_util.Rng.float rng bound]'s.  [Net]'s fault jitter. *)

val mean : t -> float
(** Analytic mean (for reporting; Pareto with shape ≤ 1 reports [infinity]). *)

val pp : Format.formatter -> t -> unit

val to_string : t -> string

val lan : t
(** Default used across experiments: lognormal with ~1 ms median and a
    heavy-ish tail, floor 0.1 ms — a plausible shared-segment LAN. *)

val wan : t
(** Higher-latency, higher-variance profile for stress experiments. *)
