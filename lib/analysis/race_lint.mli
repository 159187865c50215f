(** Pass 2 of the static consistency verifier: the whole-workload
    causal-race lint.

    Bouajjani et al. ({e On Verifying Causal Consistency}) isolate the
    expensive core of causal-consistency checking as the pairs of
    non-commuting concurrent writes.  With the commutativity relation
    {e declared} per class ({!Causalb_data.Seq_spec}) and the intended
    [R(M)] available before execution ({!Workload}), exactly those pairs
    are statically decidable: a {e race} is a pair of operations on the
    same object, in non-commuting classes, that is not ordered by [R(M)]
    reachability — and whose arbitration the stack's top-of-stack
    guarantee does not fix either.  Every race means two members may
    apply genuinely conflicting operations in different orders: the
    dynamic oracle could only flag the divergence after spending the
    simulation budget; this lint rejects the configuration up front.

    What covers a conflicting pair, from cheapest to strongest:
    {ul
    {- {b R(M) reachability} — needs a pipeline that enforces the
       explicit relation: [Causal].  A sync point between the two is a
       case of it, not a criterion of its own: [a → s → b] in [R(M)]
       makes [a] an ancestor of [b];}
    {- {b same origin} — per-sender FIFO already serializes the pair
       identically everywhere: [Fifo] suffices;}
    {- {b nothing} — only a deterministic total order arbitrates the
       pair: [Causal_total].}}

    One sweep over the O(sites²) pairs ({!analyse}) grades every pair
    against a {!Causalb_graph.Depgraph.reach} index of [R(M)], over
    integers resolved once per site, and yields
    both the races and the workload's {e demand}: the minimal
    top-of-stack guarantee under which it is race-free. *)

module Label := Causalb_graph.Label
module Guarantee := Causalb_stackbase.Guarantee

type race = {
  a : Workload.site;
  b : Workload.site;          (** the offending non-commuting pair *)
  need : Guarantee.t;         (** minimal guarantee covering the pair *)
  top : Guarantee.t;          (** what the stack was assumed to provide *)
  missing : Label.t list;
      (** the missing edge: [[a; b]] — ordering either way (an
          [Occurs_After] predicate, directly or through an interposed
          sync point) resolves the race *)
}

type report = {
  races : race list;
      (** over a pipeline providing the [top] given to {!analyse}, in
          submission order of the first site *)
  demand : Guarantee.t;
      (** the minimal [top] under which there would be no race;
          [Unordered] when every pair commutes *)
}

val analyse :
  ?reach:Causalb_graph.Depgraph.reach -> ?top:Guarantee.t -> Workload.t -> report
(** The one pair sweep: races over a pipeline providing [top] (default
    [Causal], the §6.1 protocol's setting) and the demand.  No race
    means: every non-commuting pair is ordered by [R(M)] reachability,
    pinned by per-sender FIFO, or arbitrated by a total order.

    Each site's object, class, label and reach rank are resolved once,
    so the sweep compares integers and reads a per-object table of
    class conflicts; it grades every pair as {!pair_need} does, in the
    same order.  [reach] is [Depgraph.reach] of the workload's graph
    (built here when absent): a caller that also runs
    {!Causalb_check.Spec_lint.lint} over that graph shares one index.
    @raise Invalid_argument if [reach] does not index the workload's
    graph ({!Causalb_graph.Depgraph.indexes}).
    @raise Not_found on a conflicting cross-origin pair whose label is
    absent from the graph, as {!pair_need} does. *)

val check : ?top:Guarantee.t -> Workload.t -> race list
(** [(analyse ?top w).races]. *)

val required : Workload.t -> Guarantee.t
(** [(analyse w).demand]. *)

val pair_need : Workload.t -> Workload.site -> Workload.site -> Guarantee.t option
(** The guarantee a single pair needs — [None] when the sites do not
    conflict, otherwise [Fifo] (same origin), [Causal] (ordered by
    [R(M)] reachability, sync-separated pairs included), or
    [Causal_total] (concurrent, cross-origin). *)

val pp_race : Format.formatter -> race -> unit

val race_to_string : race -> string

val to_diag : race -> Causalb_check.Diag.t
(** Check name ["race:causal"]; the chain carries the offending pair. *)

val to_diags : race list -> Causalb_check.Diag.t list
