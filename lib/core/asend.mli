(** [ASend] — total ordering of spontaneously generated messages
    (paper §5.2, relation (5), and Fig. 4).

    The paper interposes a function between the causal broadcast layer and
    the application that (i) imposes an arbitrary delivery order on a set
    of concurrent messages and (ii) enforces that order identically at all
    members.  The total order is defined over a message set bracketed by
    an ascendant node [lbl_a] and a descendant node [lbl_d] of the
    dependency graph.  Because every member sees the same bracketed set
    (causal broadcast makes the graph stable information), sorting the set
    with a deterministic comparator yields the same sequence everywhere —
    {e without any extra protocol messages}.

    Three realisations:
    {ul
    {- {!Merge}: the bracket is closed by a {e sync} message that
       AND-depends on the whole set (the §6.1 access-protocol shape);}
    {- {!Counted}: the bracket is closed when a predetermined number of
       messages has arrived (the §6.2 arbitration shape — "on receiving
       specific predetermined number of LOCK messages");}
    {- {!Sequencer}: a conventional fixed-sequencer baseline that funnels
       every message through one member, for the cost comparison in
       experiment T1.}} *)

(** Sync-anchored deterministic merge.  Feed it each causally delivered
    message; spontaneous messages buffer until the closing sync message
    arrives, then the whole batch is released in sorted order followed by
    the sync message itself. *)
module Merge : sig
  type 'a t

  val create :
    is_sync:('a Message.t -> bool) ->
    ?compare:('a Message.t -> 'a Message.t -> int) ->
    ?deliver:('a Message.t -> unit) ->
    unit ->
    'a t
  (** [compare] defaults to {!Causalb_graph.Label.compare} on labels —
      any deterministic comparator gives a valid (arbitrary) total
      order, as the paper requires. *)

  val on_causal_deliver : 'a t -> 'a Message.t -> unit

  val buffered : 'a t -> int
  (** Spontaneous messages awaiting their closing sync. *)

  val batches : 'a t -> int
  (** Completed brackets so far. *)

  val metrics : 'a t -> Causalb_stackbase.Metrics.t
  (** Uniform layer metrics (see {!Causalb_stackbase.Metrics}). *)

  val provides : Causalb_stackbase.Guarantee.t
  (** [Causal_total] — identical release sequence at every member. *)

  val requires : Causalb_stackbase.Guarantee.t
  (** [Causal] — the bracketed set is stable information only under
      causal delivery; over a weaker feed members disagree on batches. *)
end

(** Count-closed deterministic merge: a batch is released once
    [batch_size] messages have been causally delivered. *)
module Counted : sig
  type 'a t

  val create :
    batch_size:int ->
    ?compare:('a Message.t -> 'a Message.t -> int) ->
    ?deliver:('a Message.t -> unit) ->
    unit ->
    'a t
  (** @raise Invalid_argument if [batch_size <= 0]. *)

  val on_causal_deliver : 'a t -> 'a Message.t -> unit

  val buffered : 'a t -> int

  val batches : 'a t -> int

  val metrics : 'a t -> Causalb_stackbase.Metrics.t
  (** Uniform layer metrics (see {!Causalb_stackbase.Metrics}). *)

  val provides : Causalb_stackbase.Guarantee.t
  (** [Causal_total] — identical release sequence at every member. *)

  val requires : Causalb_stackbase.Guarantee.t
  (** [Causal] — count-closure picks the same batch everywhere only when
      every member sees the same causally ordered prefix. *)
end

(** Decentralised timestamp total order (Lamport 1978, the paper's
    reference [6]): every message carries the sender's Lamport clock;
    members deliver in [(timestamp, sender)] order once they have heard a
    higher clock value from {e every} other member (acknowledgement
    broadcasts fill the gaps).  No distinguished node, at the cost of
    n² ack traffic — the other classic point in the total-order design
    space, used by the ablation benches.

    Requires a per-link FIFO transport (each sender's timestamps must
    arrive non-decreasing). *)
module Timestamp : sig
  type 'a t

  type 'a envelope

  val create :
    'a envelope Causalb_net.Net.t ->
    ?on_deliver:(node:int -> time:float -> tag:string -> 'a -> unit) ->
    unit ->
    'a t

  val bcast : 'a t -> src:int -> ?tag:string -> 'a -> unit

  val delivered_tags : 'a t -> int -> string list

  val pending : 'a t -> int -> int
  (** Messages buffered at a node awaiting clock cover. *)

  val acks_sent : 'a t -> int

  val provides : Causalb_stackbase.Guarantee.t
  (** [Causal_total] — [(timestamp, sender)] order at every member. *)

  val requires : Causalb_stackbase.Guarantee.t
  (** [Fifo] — each sender's timestamps must arrive non-decreasing, so
      the transport below must be per-link FIFO. *)
end

(** Fixed-sequencer total order: members submit to a distinguished node
    (one extra unicast hop) which rebroadcasts on a causal chain — each
    broadcast [Occurs_After] the previous one, so causal delivery alone
    yields the identical sequence everywhere. *)
module Sequencer : sig
  type 'a t

  val create :
    'a Group.t ->
    ?node:int ->
    ?submit_latency:Causalb_sim.Latency.t ->
    unit ->
    'a t
  (** [node] (default 0) is the sequencer.  [submit_latency] (default
      {!Causalb_sim.Latency.lan}) models the submission hop for
      non-sequencer sources. *)

  val asend : 'a t -> src:int -> ?name:string -> 'a -> unit
  (** Submit a message for totally ordered broadcast.  Delivery arrives
      through the group's [on_deliver] callback. *)

  val sequenced : 'a t -> int
  (** Messages the sequencer has broadcast so far. *)

  val metrics : 'a t -> Causalb_stackbase.Metrics.t
  (** Uniform layer metrics: [received] counts submissions, [delivered]
      counts sequenced broadcasts, [buffered] is the in-flight gap. *)

  val provides : Causalb_stackbase.Guarantee.t
  (** [Causal_total] — the sequencer's causal chain is one sequence. *)

  val requires : Causalb_stackbase.Guarantee.t
  (** [Causal] — the chain rides [Occurs_After] predicates, so the layer
      below must deliver them causally (OSend). *)
end
