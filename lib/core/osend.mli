(** Per-member causal delivery engine for [OSend] messages (paper §3.3).

    A member receives envelopes in arbitrary transport order and releases
    them to the application as soon as their [Occurs_After] predicate is
    satisfied by the already-delivered set.  The member keeps one table
    with a slot per label it has received or a parked message names: the
    label's state (named only, seen, delivered) and the reverse index of
    the messages parked on it.  Delivering a label wakes exactly the
    messages waiting on it — amortized O(outstanding dependency edges)
    rather than a rescan of the whole pending pool per delivery.  A
    delivery may unblock a cascade of pending messages; cascades release
    in arrival order per wakeup generation, bit-identical to the seed
    list-scan engine (kept as the oracle in [Causalb_reference]).

    Properties enforced (and tested):
    {ul
    {- {b causal safety} — a message is never delivered before an ancestor
       named by its predicate;}
    {- {b liveness} — once every ancestor has arrived, the message is
       delivered (in the same [receive] call);}
    {- {b duplicate suppression} — an envelope with an already seen label
       is ignored;}
    {- {b graph extraction} — the member extracts the dependency graph of
       everything it has seen, which equals the graph at every other
       member on the same message set (§3.2).  R(M) is a function of the
       first receipts in arrival order, so the member logs those and
       {!graph} replays the ones not yet extracted: every call returns the
       graph an eager build would hold at that moment, and delivery itself
       builds no graph.}} *)

type 'a t

val create :
  id:int -> ?deliver:('a Message.t -> unit) -> unit -> 'a t
(** [deliver] is invoked for each message as it is released, in delivery
    order. *)

val id : 'a t -> int

val receive : 'a t -> 'a Message.t -> unit
(** Hand a transport-received envelope to the member.
    @raise Invalid_argument if the envelope's predicate names its own
    label (the label then counts as seen, so later copies are ignored). *)

val delivered_order : 'a t -> Causalb_graph.Label.t list
(** Labels in the order the application saw them. *)

val delivered_count : 'a t -> int

val is_delivered : 'a t -> Causalb_graph.Label.t -> bool

val pending : 'a t -> 'a Message.t list
(** Envelopes received but still blocked, in arrival order. *)

val pending_count : 'a t -> int

val buffered_ever : 'a t -> int
(** Messages that were not deliverable on arrival and had to wait for an
    ancestor — the forced-wait counter compared against {!Bss} in
    experiment T6. *)

val metrics : 'a t -> Causalb_stackbase.Metrics.t
(** The member's uniform layer metrics (see {!Causalb_stackbase.Metrics}). *)

val provides : Causalb_stackbase.Guarantee.t
(** [Causal] — explicit [Occurs_After] predicates, exactly [R(M)]. *)

val requires : Causalb_stackbase.Guarantee.t
(** [Unordered] — predicates carry all the ordering the layer needs. *)

val graph : 'a t -> Causalb_graph.Depgraph.t
(** The extracted dependency graph over every message seen (delivered or
    pending), brought up to date on each call.  The same value is
    returned every time and keeps growing with later calls.  Do not
    mutate. *)

val blocked_on : 'a t -> Causalb_graph.Label.t list
(** Ancestor labels that pending messages are waiting for and that have
    not been received at all — the set a recovery protocol would fetch —
    sorted by {!Causalb_graph.Label.compare}.  Costs one walk over the
    parked messages. *)
