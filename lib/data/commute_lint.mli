(** Soundness lint for the {!Seq_spec} commutativity relations.

    Deriving [Cid] from a declared relation is only as safe as the
    relation: a pair of classes declared commuting that is not would let
    the §6.1 protocol deliver genuinely conflicting operations in
    different orders at different members.  This lint discharges exactly
    those proof obligations: for every {e declared-commuting} class pair
    ({!Seq_spec.class_pairs}) it samples operation pairs at states
    reachable by random walks from [init] and checks
    {!Seq_spec.commute_at}.  (Declared {e non}-commuting pairs need
    no check — demotion to [Ncid] costs concurrency, never safety.)

    Runs inside [causalb-check --self-test]: the suite over the real
    specs must report zero violations, and a deliberately mislabeled
    spec must be caught. *)

type violation = {
  class_a : string;
  class_b : string;
  state : string;  (** pretty-printed witness state *)
  op_a : string;
  op_b : string;
}

type report = {
  spec_name : string;
  pairs_checked : int;  (** declared-commuting pairs with sampled ops *)
  pairs_skipped : int;  (** pairs the generator produced no ops for *)
  checks : int;         (** commute_at evaluations *)
  violations : violation list;
}

val ok : report -> bool
(** No violations and nothing silently skipped. *)

val pp_report : Format.formatter -> report -> unit

val check :
  ('op, 'state) Seq_spec.t ->
  gen_op:(Causalb_util.Rng.t -> 'op) ->
  seed:int ->
  unit ->
  report
(** [check spec ~gen_op ~seed ()] explores 40 random walks of length up
    to 12 (uniform per walk) and, at each reached state, tests 8
    operation pairs for every declared-commuting class pair.  [gen_op]
    must cover every class for full coverage; classes it never produces
    are counted in [pairs_skipped].  Deterministic in [seed]. *)

val suite : seed:int -> report list
(** The lint over every spec shipped in this library: the seven
    {!Datatypes} and the five {!Objects}. *)
