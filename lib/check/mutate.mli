(** Seeded violations for auditing the checkers themselves.

    Each mutator takes a {e clean} trace (and the dependency graph used to
    resolve its tags) and plants one known violation, returning the
    mutated trace plus the records/labels involved — or [None] when the
    trace contains no site for that violation.  The mutation harness
    (tests, [causalb-check --self-test]) asserts that the corresponding
    checker rejects every mutated trace it accepts clean.

    Mutations never modify the input trace; they rebuild a copy. *)

module Trace := Causalb_sim.Trace
module Label := Causalb_graph.Label
module Depgraph := Causalb_graph.Depgraph

val swap_tags : Trace.t -> int -> int -> Trace.t
(** Exchange the tag/info payloads of records [i] and [j] (times and
    kinds stay in place) — the generic reordering primitive. *)

val reorder_causal :
  graph:Depgraph.t -> Trace.t -> (Trace.t * Trace.record * Trace.record) option
(** Find, at some node, two adjacent [Deliver] records where the first is
    a named ancestor of the second, and swap them: the descendant now
    arrives before its dependency.  {!Trace_check.causal} must reject the
    result. *)

val reorder_fifo :
  graph:Depgraph.t -> Trace.t -> (Trace.t * Trace.record * Trace.record) option
(** Swap two adjacent same-origin [Deliver] records at one node, breaking
    per-sender FIFO.  {!Trace_check.fifo} must reject the result. *)

val reorder_release :
  ?sync:Label.Set.t ->
  graph:Depgraph.t ->
  Trace.t ->
  (Trace.t * Trace.record * Trace.record) option
(** Swap two adjacent [Release] records at one node.  Without [sync]:
    any differing pair — breaks identical-order agreement
    ([Trace_check.total_order ~strict:true]).  With [sync]: an interior
    message and the synchronization point closing its window — the
    message migrates to the next window at that node only, breaking
    window agreement. *)

val duplicate_delivery :
  graph:Depgraph.t -> Trace.t -> (Trace.t * Trace.record) option
(** Repeat the first graph-known [Deliver] record at its node, right
    after the original: one message delivered twice.
    {!Trace_check.fifo} and {!Trace_check.causal} must both report it as
    ["duplicate"]. *)

val corrupt_mark : Trace.t -> (Trace.t * Trace.record) option
(** Tamper with the digest of the first stable-point [Mark] record.
    {!Trace_check.stable_points} must reject the result. *)

val drop_label : Depgraph.t -> Label.t -> Depgraph.t
(** Rebuild the graph without one label while every predicate that named
    it still does — the "dropped edge" specification bug.
    {!Spec_lint.lint} must flag the result (dangling/unsatisfiable). *)
