(** Minimal JSON output for the harness.

    [causalb hunt --json] prints its verdict lines, and [causalb-check]
    and [causalb-lint] print their [--json] diagnostics, through this
    module, so the repo needs no external JSON dependency.  Numbers are [float] (integral values emit without
    a fractional part); object fields keep insertion order. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact, single-line rendering: emitted strings never contain raw
    newlines, so each value is one line of output. *)
