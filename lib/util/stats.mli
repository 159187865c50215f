(** Online and batch statistics for experiment measurements.

    A {!t} accumulates floating-point samples (latencies, counts, …) and
    answers summary queries.  Mean and variance are maintained online
    (Welford); order statistics are computed on demand from the stored
    samples.  Storage is exact — experiments in this repository produce at
    most a few million samples, well within memory. *)

type t

val create : unit -> t

val add : t -> float -> unit

val add_list : t -> float list -> unit

val count : t -> int

val total : t -> float

val mean : t -> float
(** Mean of the samples; [nan] when empty. *)

val variance : t -> float
(** Unbiased sample variance; [0.] with fewer than two samples. *)

val min_value : t -> float
(** Smallest sample; [nan] when empty. *)

val max_value : t -> float

val percentile : t -> float -> float
(** [percentile t p] with [p] in [\[0, 100\]], linear interpolation between
    closest ranks; [nan] when empty. *)

val median : t -> float

val samples : t -> float array
(** Copy of all samples in insertion order. *)

val merge : t -> t -> t
(** [merge a b] is a fresh accumulator holding the samples of both. *)

val summary : t -> string
(** One-line rendering: count, mean, p50, p99, max. *)

(** {1 Histograms} *)

module Histogram : sig
  type h

  val create : ?bins:int -> lo:float -> hi:float -> unit -> h
  (** Fixed-width bins over [\[lo, hi\]]; out-of-range samples are clamped
      into the first/last bin.  Default 32 bins. *)

  val add : h -> float -> unit

  val counts : h -> int array

  val render : ?width:int -> h -> string
  (** ASCII rendering, one line per bin. *)
end
