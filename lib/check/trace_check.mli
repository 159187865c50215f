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
    {!Mutate}).

    An audit that runs several checkers over one trace builds one
    {!index} and hands it to each [check_*] function: the trace is
    scanned once, and tags are resolved to graph labels once.  The
    [~graph trace] functions build an index per call. *)

val nodes : Causalb_sim.Trace.t -> int list
(** Distinct non-negative node ids appearing in the trace, sorted. *)

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
(** Agreement on the application-visible sequences of all members:
    each node's [Release] records when it has any, otherwise its
    [Deliver] records.  Default mode: sequences must be equal up to
    commutative reordering between synchronization points — same sync
    order, equal interior {e set} per window ([sync] defaults to
    {!Causalb_graph.Depgraph.sync_points}; pass the empty set for plain
    same-set agreement).  [~strict:true] (the [ASend] guarantee, §5.2):
    sequences must be identical, element by element. *)

val stable_points : Causalb_sim.Trace.t -> Diag.t list
(** Stable-point agreement: the {!Causalb_sim.Trace.stable_mark} records
    carry each member's digest of a cycle; for every cycle closed at two
    or more members, the digests must be equal.  Each cycle is compared
    against the lowest node that recorded its tag, so a cycle the lowest
    marking node never closed is still cross-checked among the others.
    Disagreements with the lowest marking node are reported first, node
    by node; the rest follow. *)

(** {1 One index per audit} *)

type index
(** One pass over a trace for a given graph: the nodes that recorded
    [Deliver], [Release] or stable-point [Mark] records, each node's
    records of those kinds in trace order, every [Deliver]/[Release] tag
    numbered once, and each number resolved to the graph label rendering
    to it ([Causalb_graph.Label.to_string]).  Node ids are member
    indices: the index keeps a table as long as the largest one.  The
    index does not follow later records. *)

val index :
  graph:Causalb_graph.Depgraph.t -> Causalb_sim.Trace.t -> index

val check_causal : index -> Diag.t list
(** {!causal} over the index's trace and graph. *)

val check_fifo : index -> Diag.t list
(** {!fifo} over the index's trace and graph. *)

val check_total_order :
  ?strict:bool -> ?sync:Causalb_graph.Label.Set.t -> index -> Diag.t list
(** {!total_order} over the index's trace and graph. *)

val check_stable_points : index -> Diag.t list
(** {!stable_points} over the index's trace. *)
