(** Replica-consistency verifiers (paper §4–6).

    These predicates give the paper's informal guarantees an executable
    form; the test suite asserts them on simulated runs and the harness
    uses them as run-time sanity checks:

    {ul
    {- {b agreement at stable points}: all replicas pass through the same
       sequence of stable states (§4.1 — stable points are reproducible);}
    {- {b window agreement}: each closed cycle contains the same operation
       set at every replica, though possibly in different orders (§3.2);}
    {- {b transition preservation}: every window's operations pairwise
       commute from the window's start state, so any interleaving reaches
       the same stable state (§4.1, §5.1);}
    {- {b one-copy serializability}: the common stable-state sequence is
       produced by some single serial execution of all operations (§2.2's
       claim that [inc → rd] ordering "also guarantees 1-copy
       serializability").}}

    Each check that receives replicas reads the object's spec from them
    ({!Replica.spec}).  The cross-replica checks walk every pair of
    replicas once over the pair's common prefix of closed cycles, so
    they cost time linear in cycles. *)

val agreement_at_stable_points : ('op, 'state) Replica.t list -> bool
(** Stable states agree cycle-by-cycle on each pair's common prefix of
    closed cycles ([first_disagreement] is [None]). *)

val stable_digests_agree : ('op, 'state) Replica.t list -> bool
(** Cycle-by-cycle agreement of the spec's {e canonical} state
    digests over each pair's common prefix of closed cycles.  Strictly
    weaker than {!agreement_at_stable_points} on the states themselves,
    but it is the form the offline checker can audit from a trace alone
    — the digests are what {!Service} stamps into its stable-point
    [Mark] records — and it additionally exercises the digest's
    canonicity: replicas that applied a window in different orders must
    still emit equal digests whatever internal shape (map balancing,
    list order) their states carry. *)

val first_disagreement : ('op, 'state) Replica.t list -> int option
(** Earliest cycle index [i] at which two replicas that both closed
    cycle [i] hold stable states the spec's [equal] tells apart. *)

val window_sets_agree : ('op, 'state) Replica.t list -> bool
(** Same label set in two replicas' cycle [i], for every pair and every
    [i] both closed. *)

val windows_transition_preserving : ('op, 'state) Replica.t -> bool
(** For every closed cycle: all pairs of interior operations commute from
    the cycle's start state ([F(mb, F(ma, s)) = F(ma, F(mb, s))]); with
    the closing sync applied last this makes every interleaving reach the
    cycle's [end_state] ({!Seq_spec.commute_at}). *)

val serial_witness : ('op, 'state) Replica.t -> 'op list option
(** A single serial schedule (the replica's own applied order) that
    reproduces every stable state — [Some ops] iff replaying the
    replica's cycles sequentially through its spec reproduces each
    recorded [end_state] (one-copy serializability witness). *)

val divergence_fraction :
  spec:('op, 'state) Seq_spec.t ->
  states:'state list list ->
  float
(** Given per-sample lists of replica states (e.g. sampled by the harness
    at fixed virtual-time intervals), the fraction of samples in which at
    least two replicas disagreed — the paper's "tolerated transient
    inconsistency between stable points". *)
