(** Deterministic, splittable pseudo-random number generator (SplitMix64).

    Every stochastic component of the simulator draws from an [Rng.t] so
    that a run is a pure function of its seed: re-running an experiment
    with the same seed replays the identical event sequence.  [split]
    derives an independent stream, letting each simulated node or workload
    own its generator without cross-talk when the composition of the
    system changes. *)

type t

val create : int -> t
(** [create seed] is a fresh generator.  Equal seeds yield equal streams. *)

val split : t -> t
(** [split t] advances [t] and returns a new generator whose stream is
    statistically independent of the remainder of [t]'s stream. *)

val copy : t -> t
(** [copy t] duplicates the current state; both copies then produce the
    same stream. *)

val int64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)].  @raise Invalid_argument if
    [bound <= 0]. *)

val bits53 : t -> int
(** The next output's 53 high bits, uniform in [\[0, 2{^53})].  An
    immediate, so a caller in another module gets a draw without a
    box; [float t bound] is [bound *. (float_of_int (bits53 t) /. 2{^53})]
    on the same draw. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. *)

val bool : t -> bool

val bernoulli : t -> float -> bool
(** [bernoulli t p] is [true] with probability [p]. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)

val pick : t -> 'a array -> 'a
(** Uniformly chosen element.  @raise Invalid_argument on empty array. *)

val pick_list : t -> 'a list -> 'a
