type kind = Commutative | Non_commutative

let to_string = function
  | Commutative -> "commutative"
  | Non_commutative -> "non-commutative"

let pp ppf k = Format.pp_print_string ppf (to_string k)
