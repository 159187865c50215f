(** Offline trace checkers — the ordering oracle.

    Each checker consumes an execution trace ({!Causalb_sim.Trace.t}) and
    the message dependency graph ({!Causalb_graph.Depgraph.t}) and
    independently verifies one guarantee the paper's engines are supposed
    to provide, reporting violations as structured {!Diag.t} values
    (empty list = the property holds on this trace):

    - {!causal} — causal-delivery safety (§3–4): no member delivers a
      message before the ancestors its [R(M)] predicate names, nor one
      message twice;
    - {!fifo} — FIFO per sender: one origin's messages are delivered in
      send order, each once, at every member;
    - {!total_order} — agreement (§5.2 / §6.1): members release the same
      sequence up to commutative reordering between synchronization
      points, or the byte-identical sequence in [~strict] mode;
    - {!stable_points} — replica digests recorded via [Mark] events at
      each stable point match across members (§6.1).

    The checkers are pure trace analyses: they know nothing about which
    engine or stack composition produced the trace, so the same oracle
    audits every composition (and seeded mutations of their traces — see
    {!Mutate}). *)

val nodes : Causalb_sim.Trace.t -> int list
(** Distinct non-negative node ids appearing in the trace, sorted. *)

val deliver_records :
  Causalb_sim.Trace.t -> node:int -> Causalb_sim.Trace.record list
(** The node's causal-layer [Deliver] records, in order. *)

val release_records :
  Causalb_sim.Trace.t -> node:int -> Causalb_sim.Trace.record list
(** The node's application-visible sequence: its [Release] records when
    it has any, otherwise its [Deliver] records. *)

val causal :
  graph:Causalb_graph.Depgraph.t -> Causalb_sim.Trace.t -> Diag.t list
(** Causal-delivery safety: scanning each node's [Deliver] sequence, the
    [Occurs_After] predicate of every graph-known message must already be
    satisfied by the node's delivered set ([After]/[After_all]: every
    named ancestor delivered; [After_any]: at least one alternative).
    Each violation names the offending records and a minimal dependency
    chain.  Tags the graph does not know are skipped.  A [Deliver] tag
    seen twice at one node is reported under the check name
    ["duplicate"], with the first and the repeated record. *)

val fifo :
  graph:Causalb_graph.Depgraph.t -> Causalb_sim.Trace.t -> Diag.t list
(** FIFO per sender: at every node, the sequence numbers of each origin's
    delivered messages must be strictly increasing.  A decrease is a
    ["fifo"] violation; a repeat of the highest sequence number so far is
    reported as ["duplicate"]. *)

val total_order :
  ?strict:bool ->
  graph:Causalb_graph.Depgraph.t ->
  ?sync:Causalb_graph.Label.Set.t ->
  Causalb_sim.Trace.t ->
  Diag.t list
(** Agreement on the application-visible sequences ({!release_records})
    of all members.  Default mode: sequences must be equal up to
    commutative reordering between synchronization points — same sync
    order, equal interior {e set} per window ([sync] defaults to
    {!Causalb_graph.Depgraph.sync_points}; pass the empty set for plain
    same-set agreement).  [~strict:true] (the [ASend] guarantee, §5.2):
    sequences must be identical, element by element. *)

val stable_points : Causalb_sim.Trace.t -> Diag.t list
(** Stable-point agreement: [Mark] records whose tag is ["stable:<k>"]
    carry a replica digest in their [info]; for every cycle closed at two
    or more members, the digests must be equal. *)
