(** Composable ordering stack: one layered delivery pipeline.

    The paper's architecture (Fig. 4) is a stack — transport at the
    bottom, a causal broadcast layer above it, an optional interposed
    total-order function above that, the application on top.  The seed
    code had one bespoke wiring per engine; this module builds any
    composition

    {v transport -> (per-link fifo) -> causal -> (total) -> app v}

    from interchangeable parts:

    {ul
    {- {b causal}: {!ordering} selects per-sender FIFO only, vector-clock
       BSS, Psync conversations, or explicit-dependency OSend;}
    {- {b total}: {!total} selects nothing ([Pass]), the sync-anchored
       deterministic merge, the count-closed merge, or a fixed
       sequencer (OSend only — it rides the causal chain).}}

    Every layer reports the same {!Metrics.t}, so the same workload run
    over different compositions produces directly comparable tables.
    The stack wires the engines of [Causalb_core] directly, unchanged;
    on the same seed, a composed run consumes the exact random stream of
    the corresponding standalone driver, so delivery counts and
    forced-wait numbers match the pre-stack code. *)

module Label := Causalb_graph.Label
module Message := Causalb_core.Message
module Metrics := Causalb_stackbase.Metrics

(** The one generic group wrapper (members + network wiring) that the
    per-engine [Group] submodules of [Causalb_core] are built on. *)
module Group = Causalb_stackbase.Sgroup

type ordering =
  | Fifo   (** per-sender FIFO only — the under-ordered baseline *)
  | Bss    (** vector-clock CBCAST: inferred potential causality *)
  | Psync  (** conversation contexts: explicit graph, inferred relation *)
  | Osend  (** explicit application dependencies (paper §3.3) *)
  | Pc
      (** PC-broadcast: constant-size headers, causal order from FIFO
          links ([Causalb_core.Pcbcast]).  Requires [fifo = true] — the
          static verifier flags the unsound composition otherwise. *)

type 'a total =
  | Pass  (** causal delivery goes straight to the application *)
  | Merge of ('a Message.t -> bool)
      (** sync-anchored deterministic merge; the predicate recognises the
          closing sync message (paper §6.1) *)
  | Counted of int
      (** batch released every [n] causal deliveries (paper §6.2) *)
  | Sequencer of { node : int }
      (** fixed sequencer at [node]; requires [ordering = Osend].  The
          submission hop uses the stack's transport latency model. *)

type 'a t

val compose :
  ?ordering:ordering ->
  ?total:'a total ->
  ?latency:Causalb_sim.Latency.t ->
  ?fifo:bool ->
  ?trace:Causalb_sim.Trace.t ->
  ?on_deliver:(node:int -> time:float -> 'a Message.t -> unit) ->
  Causalb_sim.Engine.t ->
  nodes:int ->
  unit ->
  'a t
(** Build the pipeline over a fresh, fault-free network on [engine].
    Defaults: [ordering = Osend], [total = Pass],
    [latency = Latency.lan], [fifo = true] (per-link FIFO transport).
    Faults arrive later, through {!install_nemesis}.
    [on_deliver] fires at each node as the top layer releases a
    message.
    @raise Invalid_argument for a sequencer over a non-OSend causal
    layer, or a sequencer node out of range. *)

val submit : 'a t -> src:int -> ?name:string -> ?dep:Causalb_graph.Dep.t ->
  'a -> Label.t option
(** Hand one application message to the stack at [src].  [dep] is the
    explicit ordering predicate; layers that infer their own ordering
    (FIFO, BSS, Psync) ignore it.  Returns the message's label — [None]
    under a sequencer, which allocates the label after the submission
    hop. *)

val run : 'a t -> unit
(** Drain the engine ([Engine.run]). *)

val delivered_order : 'a t -> int -> Label.t list
(** Labels in the order the application saw them at a node (after any
    total-order layer). *)

val all_delivered_orders : 'a t -> Label.t list list

val delivered_count : 'a t -> int -> int

val messages_sent : 'a t -> int
(** Unicast copies on the wire. *)

val blocked_on : 'a t -> int -> Label.t list
(** Ancestor labels a node's causal layer is missing entirely (never
    received) — non-empty when a partition swallowed messages.  Always
    empty for FIFO/BSS/Pc, which do not name ancestors. *)

val osend_group : 'a t -> 'a Causalb_core.Group.t option
(** The underlying OSend group when [ordering = Osend] — recovery
    protocols (and tests) use it to re-inject lost labelled messages. *)

val graph : 'a t -> Causalb_graph.Depgraph.t option
(** The dependency graph member 0's causal engine extracted from the
    messages it has seen — the [R(M)] the offline checkers audit delivery
    against.  [Some] for the engines that build one (OSend, Psync, and
    Pc's shared audit graph), [None] for FIFO/BSS, which never name
    ancestors.  Do not mutate. *)

val partition : 'a t -> int list list -> unit
(** Partition the underlying network (see {!Causalb_net.Net.partition}). *)

val heal : 'a t -> unit

val lost_copies : 'a t -> int
(** Copies the transport dropped before arrival (partition + injected
    loss, see {!Causalb_net.Net.lost_copies}).  [0] iff the run's
    completeness properties are checkable. *)

val install_nemesis : 'a t -> Causalb_net.Nemesis.t -> unit
(** Arm a timed fault schedule on the stack's engine, driving this
    stack's partition, heal and fault-profile swaps (timed
    loss/dup/jitter phases). *)

val metrics : 'a t -> Metrics.t list
(** One row per layer, bottom-up: transport, causal, and the total-order
    layer when present.  Counters are summed across members; latency is
    the stack-measured submit-to-release distribution of that layer. *)

val layer_guarantees :
  ordering:ordering ->
  total:'a total ->
  fifo:bool ->
  (string * Causalb_stackbase.Guarantee.t * Causalb_stackbase.Guarantee.t)
  list
(** Bottom-up [(layer, requires, provides)] descriptors of the pipeline
    [compose] would build from the same arguments — the input of the
    static verifier ([Causalb_analysis.Stack_verify]).  The transport row
    provides [Fifo] under per-link FIFO ([fifo = true]) and [Unordered]
    otherwise; every other row carries the [requires]/[provides]
    declaration of the engine implementing it. *)

val describe : 'a t -> string
(** ["transport -> causal:osend -> total:merge -> app"]. *)

val pp_metrics : Format.formatter -> 'a t -> unit
