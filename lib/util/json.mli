(** Minimal JSON for the harness.

    The worker pool ({!Causalb_harness.Pool}) streams one JSON object per
    finished task over a pipe, and [causalb hunt --json] prints its
    verdicts with it; both use this module so the repo needs no
    external JSON dependency.  Numbers are [float] (integral
    values emit without a fractional part); object fields keep insertion
    order. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

exception Parse_error of string

val to_string : t -> string
(** Compact, single-line rendering — the pipe framing of the pool is one
    object per line, so emitted strings never contain raw newlines. *)

val to_string_pretty : t -> string
(** Two-space indented rendering with a trailing newline, for artifacts
    meant to be read (and diffed) by humans. *)

val of_string : string -> t
(** @raise Parse_error on malformed input or trailing garbage. *)

(** {1 Shape accessors} *)

val member : string -> t -> t option
(** Field lookup on an object; [None] on missing field or non-object. *)

val get_string : t -> string
val get_float : t -> float
val get_int : t -> int
val get_bool : t -> bool
val get_list : t -> t list
(** @raise Parse_error when the value has a different shape. *)
