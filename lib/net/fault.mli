(** Fault-injection policy for the simulated network.

    The 1994 model assumes a reliable broadcast substrate; faults are
    injected here to test that the ordering layers stay {e safe} (never
    deliver out of causal order) even when the transport misbehaves, and
    to measure how loss/duplication stall stable-point detection. *)

type t = private {
  drop_prob : float;       (** probability a unicast copy is lost *)
  dup_prob : float;        (** probability a copy is delivered twice *)
  jitter : float;          (** extra delay, uniform in [0, jitter] ms *)
}

val none : t

val make : ?drop_prob:float -> ?dup_prob:float -> ?jitter:float -> unit -> t
(** The only way to build a profile besides {!none}.  @raise
    Invalid_argument if a probability is outside [0,1] or NaN, or if
    jitter is negative or not finite. *)

val pp : Format.formatter -> t -> unit
