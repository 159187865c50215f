(** Operation classification (paper §6).

    The generic access protocol rests on one bit of application knowledge
    per operation: whether it commutes with the other operations of its
    window.  Commutative operations ([inc]/[dec], concurrent queries) may
    be processed in any order at different replicas; non-commutative ones
    ([read], [update]) are synchronization points and close a cycle.

    Note the paper's convention, which we follow: a [read] is classified
    non-commutative even though it does not change the state — its
    {e return value} depends on its position in the sequence, so it must
    sit at a stable point to return the same value at every member. *)

type kind =
  | Commutative
  | Non_commutative

val to_string : kind -> string

val pp : Format.formatter -> kind -> unit
