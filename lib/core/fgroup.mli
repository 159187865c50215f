(** Framed group wrappers — causal broadcast over encoded frames.

    The siblings of [Bss.Group] and [Pcbcast.Group] that put the
    {!Codec} on the delivery path: the sender stamps once and encodes
    once into an immutable frame (pooled scratch, [Wire]); [Net.bcast]
    fans the single frame out to every recipient; recipients decode a
    {e shared} view (first toucher decodes, the rest reuse the memo).
    Per message: one encode + one decode.  Per recipient: a pointer.

    Byte accounting is real on this path: [Net.bytes_sent] advances by
    frame length per copy, and each member's [Metrics.wire_bytes] is
    charged per received copy, so [Metrics.bytes_per_delivery] measures
    the §6.1 stamp overhead on the wire.

    Same-seed equivalence: [Net.bcast] makes exactly the RNG draws
    [Net.broadcast] makes, so a framed group's delivered orders are
    identical to the plain group's for the same seed and workload —
    asserted in [test/test_wire.ml], which keeps the frozen
    [lib/reference] engines as the end oracle.  The delivery engines
    themselves ([Bss.member], [Pcbcast.member]) are reused unchanged;
    only the transport hop differs. *)

module B := Bss
module P := Pcbcast

(** Framed Birman–Schiper–Stephenson broadcast (vector stamps). *)
module Bss : sig
  type 'a t

  val create :
    'a B.envelope Codec.framed Causalb_net.Net.t ->
    enc:'a Codec.enc ->
    dec:'a Codec.dec ->
    ?on_deliver:(node:int -> time:float -> 'a B.envelope -> unit) ->
    unit ->
    'a t

  val size : 'a t -> int

  val bcast : 'a t -> src:int -> ?tag:string -> 'a -> unit
  (** Stamp ({!B.next_envelope}), encode once, fan the frame out
      (self copy included, as in [Bss.Group.bcast]). *)

  val member : 'a t -> int -> 'a B.member

  val metrics : 'a t -> int -> Causalb_stackbase.Metrics.t

  val wire_bytes : 'a t -> int
  (** Total encoded bytes received across members. *)
end

(** Framed PC-broadcast (constant-size headers, flooding overlay).

    The O(1)-metadata counterpart to {!Bss}: a broadcast encodes once —
    two varints of control header regardless of group size — and every
    hop of the flood re-emits the {e same} physical frame, so recipients
    decode a shared view and charge the control/payload split the sender
    measured ([Metrics.control_bytes_per_delivery] is the §6.1 number
    experiment M1 reports against BSS's O(n) stamps).  Static
    membership only; churn runs on the plain [Pcbcast.Group].  The
    network must be FIFO ([Net.create ~fifo:true]).  Unaudited: no
    member keeps an audit graph or a causality context per delivery,
    so a member's memory does not grow with the run; the audited PC
    path is [Pcbcast.Group]. *)
module Pc : sig
  type 'a t

  val create :
    ?degree:int ->
    'a P.wire Codec.framed Causalb_net.Net.t ->
    enc:'a Codec.enc ->
    dec:'a Codec.dec ->
    ?on_deliver:(node:int -> time:float -> 'a P.envelope -> unit) ->
    unit ->
    'a t
  (** [degree] selects the sparse overlay ({!P.peers_for}); default is
      the full mesh. *)

  val size : 'a t -> int

  val member : 'a t -> int -> 'a P.member

  val bcast : 'a t -> src:int -> ?tag:string -> 'a -> Causalb_graph.Label.t
  (** Stamp ({!P.next_envelope}), encode once ({!Codec.encode_pc}),
      flood the shared frame and deliver locally ({!P.publish}). *)

  val metrics : 'a t -> int -> Causalb_stackbase.Metrics.t

  val wire_bytes : 'a t -> int
end
