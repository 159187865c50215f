type kind = Commutative | Non_commutative

let to_string = function
  | Commutative -> "commutative"
  | Non_commutative -> "non-commutative"

let pp ppf k = Format.pp_print_string ppf (to_string k)

let class_of = function
  | Commutative -> Causalb_core.Stable_points.Concurrent
  | Non_commutative -> Causalb_core.Stable_points.Sync
