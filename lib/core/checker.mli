(** Execution verifiers.

    Pure predicates over delivery sequences, used by the test suite and
    asserted (in debug runs) by the experiment harness.  Each corresponds
    to a guarantee the paper's model promises:

    - causal safety: every member's delivery order is a linear extension
      of the application's dependency graph (§3);
    - set agreement: all members deliver the same message set;
    - total-order agreement: all members deliver the identical sequence
      (the [ASend] guarantee, §5.2).

    Window agreement (the stable-point guarantee, §4) is checked over
    replicas by [Causalb_data.Consistency.window_sets_agree]. *)

val causal_safety :
  Causalb_graph.Depgraph.t -> Causalb_graph.Label.t list -> bool
(** The sequence never delivers a message before an ancestor its
    predicate names (ancestors outside the sequence are ignored). *)

val causal_safety_all :
  Causalb_graph.Depgraph.t -> Causalb_graph.Label.t list list -> bool

val same_set : Causalb_graph.Label.t list list -> bool
(** Every sequence contains the same labels (each exactly once). *)

val identical_orders : Causalb_graph.Label.t list list -> bool

val violations :
  Causalb_graph.Depgraph.t ->
  Causalb_graph.Label.t list ->
  (Causalb_graph.Label.t * Causalb_graph.Label.t) list
(** Pairs [(ancestor, descendant)] delivered in the wrong relative order —
    the diagnostic form of {!causal_safety}. *)
