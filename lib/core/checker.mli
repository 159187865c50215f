(** Execution verifiers.

    Pure predicates over delivery sequences, used by the test suite and
    asserted (in debug runs) by the experiment harness.  Each corresponds
    to a guarantee the paper's model promises:

    - causal safety: every member's delivery order is a linear extension
      of the application's dependency graph (§3);
    - set agreement: all members deliver the same message set;
    - total-order agreement: all members deliver the identical sequence
      (the [ASend] guarantee, §5.2);
    - window agreement: all members partition the execution into the same
      cycle windows (the stable-point guarantee, §4). *)

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

val windows_agree : Causalb_graph.Label.Set.t list list -> bool
(** Given each member's list of closed-window sets (see
    {!Stable_points.window_sets}), checks members agree cycle by cycle on
    the common prefix of closed cycles. *)
