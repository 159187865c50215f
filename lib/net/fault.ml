type t = { drop_prob : float; dup_prob : float; jitter : float }

let none = { drop_prob = 0.0; dup_prob = 0.0; jitter = 0.0 }

(* Written negated so NaN fails the check too. *)
let check_prob name p =
  if not (p >= 0.0 && p <= 1.0) then
    invalid_arg (Printf.sprintf "Fault.make: %s must be in [0,1]" name)

let make ?(drop_prob = 0.0) ?(dup_prob = 0.0) ?(jitter = 0.0) () =
  check_prob "drop_prob" drop_prob;
  check_prob "dup_prob" dup_prob;
  if not (jitter >= 0.0 && Float.is_finite jitter) then
    invalid_arg "Fault.make: jitter must be finite and >= 0";
  { drop_prob; dup_prob; jitter }

let pp ppf t =
  Format.fprintf ppf "faults(drop=%.2f,dup=%.2f,jitter=%.2gms)" t.drop_prob
    t.dup_prob t.jitter
