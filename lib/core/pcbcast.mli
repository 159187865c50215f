(** PC-broadcast: causal order from FIFO links with constant-size
    headers, plus π_lock link establishment for dynamic membership.

    The engine of the Nédelec–Molli–Mostéfaoui construction ("Breaking
    the Scalability Barrier of Causal Broadcast", PAPERS.md): no
    piggybacked vector clocks — a message carries only its origin id
    and a per-origin sequence number, and causal delivery order is
    inherited from the FIFO channels it floods over.  Every member
    forwards a first-received message to all its open out-links {e
    before} delivering it; per-origin cursors discard the duplicate
    copies the flood produces, and {!Causalb_core.Fifo}-style
    reverse-indexed wakeup queues park the stray out-of-order copy.

    New links are dangerous — they can deliver messages that causally
    follow traffic the receiver has not yet seen through its old links —
    so every link opens under a π_lock barrier: the opener sends {!Lock}
    point-to-point down the new link and broadcasts an {!Unlock}
    causally through the existing overlay; the receiver buffers the new
    link until the barrier delivers.  {!Group.join} bootstraps through a
    contact member (whose link pair needs no barrier) and
    retro-disseminates a {!Joined} control broadcast that triggers the
    remaining links.

    Causal safety assumes reliable links: under injected loss the
    algorithm has no way to detect a missing cross-origin dependency.
    FIFO per origin holds unconditionally (gaps park, they never skip);
    the offline oracle arms the causal checker only on runs with zero
    partition/loss drops — departure drops are harmless to survivors. *)

module Label := Causalb_graph.Label
module Depgraph := Causalb_graph.Depgraph
module Metrics := Causalb_stackbase.Metrics

type ctrl =
  | Unlock of { target : int }
      (** π_lock barrier: when [target] delivers this, the link from the
          broadcast's origin to [target] is safe to un-buffer *)
  | Joined of { node : int }
      (** retro-dissemination: [node] joined; members open barriered
          links to it on delivery *)

type 'a body = App of 'a | Ctrl of ctrl

type 'a envelope = { origin : int; seq : int; tag : string; body : 'a body }
(** The constant-size header is exactly [(origin, seq)] — two varints on
    the wire, whatever the group size. *)

type 'a wire = Env of 'a envelope | Lock
(** What travels on a link: an envelope, or the point-to-point [Lock]
    marker that starts π_lock buffering at the receiver. *)

val payload : 'a envelope -> 'a option
(** The application payload, [None] for control traffic. *)

val label_of : 'a envelope -> Label.t
(** [(origin, seq)] as a label, named by the tag when non-empty — the
    identity under which the message appears in the extracted R(M) and
    the trace. *)

type 'a member

val member :
  id:int ->
  send:(dst:int -> 'a wire -> unit) ->
  ?deliver:('a envelope -> unit) ->
  ?on_causal:(Label.t -> unit) ->
  ?graph:Depgraph.t ->
  unit ->
  'a member
(** A standalone member (no peers, no links) — the unit under test for
    the receive-path microbench and the member-local scaling sweep.
    [deliver] fires for application bodies only; [on_causal] for every
    causal delivery, control barriers included.  [graph] shares an
    audit graph across members ({!Group} passes one) and turns on the
    member's audit context: its previous send and the labels delivered
    since, from which each send's dependencies enter [graph].  A member
    without a [graph] keeps no state per delivery, and without an
    [on_causal] too it builds no label per delivery. *)

val receive : 'a member -> src:int -> ?emit:(dst:int -> unit) -> 'a wire -> unit
(** Process one copy arriving on the link from [src].  [emit] resends
    this exact physical copy to another link — the framed path passes a
    frame-sharing closure so flooding never re-serializes; when absent
    the decoded value is re-sent. *)

val discard : 'a member -> src:int -> 'a wire -> bool
(** [discard m ~src w] is [true] when [w] is a copy whose seq [m]'s
    cursor for its origin has already passed, arriving on a link that
    π_lock is not buffering: it counts the receipt and drops the copy,
    exactly as {!receive} would.  Otherwise it does nothing and is
    [false].  Lets a caller skip building {!receive}'s [emit] for the
    flood's duplicates — most copies on a sparse overlay. *)

val bcast_member : 'a member -> ?tag:string -> 'a -> Label.t
(** Broadcast from this member: flood to its out-links, deliver locally,
    return the message's label (already inserted into the audit graph,
    if the member has one, with its true potential-causality
    dependencies). *)

val next_envelope : 'a member -> ?tag:string -> 'a -> 'a envelope * Label.t
(** The encode-once seam: assign the next sequence number and record the
    audit dependencies (when the member has a graph), but do not send —
    the caller encodes the envelope once and then {!publish}es it. *)

val publish : 'a member -> 'a envelope -> emit:(dst:int -> unit) -> unit
(** Flood [emit] to every out-link, then deliver locally.  Pair with
    {!next_envelope}; plain callers use {!bcast_member} instead. *)

val member_id : 'a member -> int

val delivered_count : 'a member -> int

val pending_count : 'a member -> int
(** Copies currently parked (seq gaps) or π_lock-buffered. *)

val buffered_ever : 'a member -> int

val metrics : 'a member -> Metrics.t
(** The member's ["causal:pc"] metrics. *)

val peers_for : n:int -> degree:int option -> int -> int list
(** The deterministic static overlay: full mesh when [degree] is [None]
    or >= n-1, else a bidirectional ring plus power-of-two chords capped
    at [degree] out-links; the overlay {!init_static} builds. *)

val init_static : 'a member -> n:int -> degree:int option -> unit
(** Configure a founding member of a static group: overlay links from
    {!peers_for} and per-origin cursors at 0 for all [n] initial origins
    (static membership is common knowledge, so adopt-first never fires
    among founders; any later origin, a joiner, still adopts).  Call it
    on a fresh member: it replaces the cursors.  {!Group.create} and the
    framed group call this. *)

(** Group wrapper: one member per network node, flooding over a static
    overlay, with dynamic join/leave. *)
module Group : sig
  type 'a t

  val create :
    ?degree:int ->
    'a wire Causalb_net.Net.t ->
    ?on_deliver:(node:int -> time:float -> 'a envelope -> unit) ->
    ?on_causal:(node:int -> label:Label.t -> unit) ->
    unit ->
    'a t
  (** One member per current network node.  [degree] selects the sparse
      overlay ({!peers_for}); the default full mesh is right for
      correctness runs, the sparse one for scale.  The network must be
      FIFO ([Net.create ~fifo:true]) — PC-broadcast over a non-FIFO
      transport is unsound, and the stack verifier will flag it. *)

  val net : 'a t -> 'a wire Causalb_net.Net.t

  val size : 'a t -> int
  (** Members ever created, departed ones included. *)

  val member : 'a t -> int -> 'a member

  val graph : 'a t -> Depgraph.t
  (** The extracted R(M): every broadcast's true potential-causality
      dependencies (sender's previous message plus its deliveries since),
      accumulated audit-side, never on the wire.  What [causalb-check]
      verifies delivery order against. *)

  val alive : 'a t -> int list

  val is_alive : 'a t -> int -> bool

  val bcast : 'a t -> src:int -> ?tag:string -> 'a -> Label.t
  (** @raise Invalid_argument if [src] has departed. *)

  val join : 'a t -> contact:int -> int
  (** A fresh member joins through [contact]: new network endpoint,
      unbarriered bootstrap link pair with the contact, and a [Joined]
      retro-dissemination that makes every other member establish a
      π_lock-barriered link pair with the joiner.  Returns the new id.
      @raise Invalid_argument if [contact] has departed. *)

  val leave : 'a t -> int -> unit
  (** Permanent departure: the endpoint is removed from the network
      ({!Causalb_net.Net.remove_node}) and survivors prune it from
      their overlays at once.  Copies in flight to it become departure
      drops.  Idempotent. *)
end

val provides : Causalb_stackbase.Guarantee.t
(** [Causal]. *)

val requires : Causalb_stackbase.Guarantee.t
(** [Fifo] — the links themselves must be ordered; that is where the
    causal information lives. *)
