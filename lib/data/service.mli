(** A complete replicated service: [n] replicas of one object, given by
    its sequential specification, over a simulated network, driven
    through a §6.1 front-end manager that labels each operation by the
    spec's derived [Cid]/[Ncid] classes, with built-in measurement.

    This is the assembly used by the examples and by experiments T1–T4:
    create a service, submit operations (the front-end adds the causal
    ordering), run the simulation, then read the metrics and consistency
    verdicts.

    Latency metrics are collected per (operation, replica) pair:
    {ul
    {- {e delivery latency} — submit time to causal delivery/application
       at a replica;}
    {- {e stability latency} — submit time to the close of the cycle that
       contains the operation, i.e. when its effect becomes part of an
       agreed value.}} *)

type ('op, 'state) t

val create :
  Causalb_sim.Engine.t ->
  replicas:int ->
  spec:('op, 'state) Seq_spec.t ->
  ?latency:Causalb_sim.Latency.t ->
  ?fifo:bool ->
  ?trace:Causalb_sim.Trace.t ->
  unit ->
  ('op, 'state) t

val engine : ('op, 'state) t -> Causalb_sim.Engine.t

val group : ('op, 'state) t -> 'op Causalb_core.Group.t

val frontend : ('op, 'state) t -> 'op Frontend.t

val replica : ('op, 'state) t -> int -> ('op, 'state) Replica.t

val replicas : ('op, 'state) t -> ('op, 'state) Replica.t list

val size : ('op, 'state) t -> int

val submit :
  ('op, 'state) t -> src:int -> ?name:string -> ?primary:int -> 'op ->
  Causalb_graph.Label.t
(** Submit through the shared front-end manager at virtual-now.
    [primary] (§6.1: "designate a replica as primary in rqst message",
    default [src]) is the replica whose application of the operation
    counts as the client's response; its latency feeds
    {!response_latency}. *)

val run : ?until:float -> ('op, 'state) t -> unit
(** Drain the simulation. *)

val delivery_latency : ('op, 'state) t -> Causalb_util.Stats.t

val response_latency : ('op, 'state) t -> Causalb_util.Stats.t
(** Submit → application at the designated primary replica. *)

val stability_latency : ('op, 'state) t -> Causalb_util.Stats.t

val messages_sent : ('op, 'state) t -> int
(** Unicast copies the transport carried. *)

val check : ('op, 'state) t -> (string * bool) list
(** All consistency predicates of {!Consistency} plus causal safety of
    every replica's delivery order, as named booleans — the harness
    asserts they are all [true]. *)
