(** Simulated message network over a discrete-event engine.

    Nodes are numbered [0 .. nodes-1].  Each unicast copy draws an
    independent delay from the latency model; a broadcast is realised as
    [n] unicasts (plus an immediate self-delivery when [self] is set), so
    different members receive the same broadcast at different times and
    possibly in different relative orders — the reordering the causal
    layer must repair.

    [fifo] mode forces per-link FIFO (arrival times on one (src,dst) link
    are non-decreasing), matching the channel guarantees of ISIS/Psync;
    non-FIFO mode exposes raw datagram behaviour.  Fault injection and
    partitions apply before scheduling a copy. *)

type 'a t

val create :
  Causalb_sim.Engine.t ->
  nodes:int ->
  ?latency:Causalb_sim.Latency.t ->
  ?fifo:bool ->
  ?fault:Fault.t ->
  ?trace:Causalb_sim.Trace.t ->
  unit ->
  'a t
(** Defaults: [latency = Latency.lan], [fifo = true], no faults, no trace.
    @raise Invalid_argument if [nodes <= 0]. *)

val engine : 'a t -> Causalb_sim.Engine.t

val nodes : 'a t -> int

val set_handler : 'a t -> int -> (src:int -> 'a -> unit) -> unit
(** Install the receive callback for a node (replacing any previous one).
    Messages arriving at a node with no handler are counted as dropped. *)

(** {1 Dynamic membership}

    Endpoints can be registered and retired while the simulation runs —
    the substrate for PC-broadcast's join/leave protocol.  Node ids are
    never reused: a removed endpoint's id stays dead forever. *)

val add_node : 'a t -> int
(** Register a fresh endpoint and return its id ([nodes t] before the
    call; {!nodes} grows by one).  The new node has no handler until
    {!set_handler}; under an active {!partition} it joins as a singleton
    cell and sees nobody until the next {!heal}. *)

val remove_node : 'a t -> int -> unit
(** Retire an endpoint.  From this instant every copy addressed to it or
    sent by it is dropped (counted in {!dropped_by_departure}), including
    copies already in flight.  Departure is permanent: neither {!heal}
    nor a new {!partition} brings the endpoint back, and {!broadcast}
    stops addressing it entirely.  Idempotent. *)

val is_departed : 'a t -> int -> bool

val send : 'a t -> src:int -> dst:int -> size:int -> 'a -> unit
(** Unicast.  [size] (abstract bytes; plain callers pass 1, framed ones
    the frame's encoded length) feeds the traffic accounting only.  It
    is mandatory, as in {!bcast}, so a forwarding hop allocates no
    optional-argument box per copy.  On a net without a trace, a copy
    allocates nothing on its way to the handler: the arrival time is
    computed in a [Causalb_sim.Engine.cell] and no float crosses a
    module boundary boxed. *)

val broadcast : 'a t -> src:int -> ?self:bool -> ?size:int -> 'a -> unit
(** One copy to every node; [self] (default [true]) also delivers to the
    sender — immediately, matching local processing of one's own
    message.  The self copy counts in {!messages_sent} {e and}
    {!bytes_sent}, exactly like a remote copy. *)

val bcast : 'a t -> src:int -> ?self:bool -> size:int -> 'a -> unit
(** Batched fan-out for pre-encoded frames: the same copy loop as
    {!broadcast} (identical per-copy RNG draw order, pooled packets, one
    shared payload pointer for all recipients), but [size] is mandatory —
    callers pass the frame's encoded length so {!bytes_sent} counts real
    wire bytes instead of the abstract default.  Serialize once with
    [Causalb_util.Wire], then hand the frame here; recipients decode a
    shared view ([Causalb_core.Codec.view]) rather than re-allocating
    stamps per copy. *)

val set_fault : 'a t -> Fault.t -> unit

val partition : 'a t -> int list list -> unit
(** Installs a partition: messages between nodes in different cells are
    dropped.  Nodes absent from every cell form implicit singletons.
    @raise Invalid_argument if a node is listed in more than one cell
    (including twice in the same cell) — silently letting the last cell
    win would make a mis-specified nemesis schedule unreproducible. *)

val heal : 'a t -> unit
(** Removes any partition. *)

val messages_sent : 'a t -> int
(** Unicast copies handed to the transport (a broadcast counts [n]). *)

val messages_delivered : 'a t -> int

val messages_dropped : 'a t -> int
(** All copies that never reached a handler — the sum of the four
    per-cause counters below. *)

val dropped_by_partition : 'a t -> int
(** Copies dropped because source and destination were in different
    partition cells at send time. *)

val dropped_by_loss : 'a t -> int
(** Copies removed by injected loss ({!Fault.t}[.drop_prob]). *)

val dropped_no_handler : 'a t -> int
(** Copies that arrived at a node with no handler installed. *)

val dropped_by_departure : 'a t -> int
(** Copies dropped because one end had been removed with {!remove_node}.
    Kept separate from partition/loss drops: departure drops do not
    threaten the safety of the surviving members (nothing a survivor
    delivers depended on a copy addressed to a dead endpoint arriving),
    so the causal oracle stays armed under pure churn while
    completeness checks still see the loss. *)

val lost_copies : 'a t -> int
(** Copies that left the wire before arrival: partition + injected loss
    + departure.  [0] means every scheduled copy arrived somewhere, so
    completeness properties (same-set delivery, release agreement) are
    checkable; no-handler drops are excluded — the copy did arrive. *)

val bytes_sent : 'a t -> int

val in_flight : 'a t -> int
(** Copies scheduled but not yet handed to a receiver — the transport
    layer's buffered gauge in the ordering stack. *)
