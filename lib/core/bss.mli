(** Vector-clock causal broadcast — the Birman–Schiper–Stephenson CBCAST
    baseline (paper reference [7]).

    Unlike [OSend], the application states no dependencies: the protocol
    {e infers} causality from the potential-causality order of the
    execution (everything a sender had delivered before sending is treated
    as a dependency).  Footnote 1 of the paper (and reference [9]) argues
    this "incidental ordering" over-constrains delivery; experiment T6
    quantifies the effect by running the same workload through both
    engines and counting forced waits that the semantic graph does not
    require.

    Delivery rule at member [p] for a message from [q] stamped [V]:
    [V.(q) = D.(q) + 1] and [V.(k) <= D.(k)] for all [k <> q], where [D]
    counts the messages [p] has delivered per origin. *)

type 'a envelope = {
  sender : int;
  stamp : Causalb_clock.Vector_clock.t;
  tag : string;      (** correlation tag for traces and experiments *)
  payload : 'a;
}

type 'a member

val member :
  id:int -> group_size:int -> ?deliver:('a envelope -> unit) -> unit ->
  'a member

val receive : 'a member -> 'a envelope -> unit
(** Deliver the envelope, with any buffered ones it unblocks, or buffer
    it, or discard it as a duplicate.  The delivery check and the
    buffering each make one pass over the stamp
    ({!Causalb_clock.Vector_clock.deliverable},
    {!Causalb_clock.Vector_clock.iter_unmet}).
    @raise Invalid_argument if the stamp does not have [group_size]
    components or the sender is not in [0 .. group_size-1]; stamps
    decoded from the wire can have any size.  The member is left
    unchanged. *)

val delivered_count : 'a member -> int

val pending_count : 'a member -> int

val buffered_ever : 'a member -> int
(** Messages that could not be delivered on arrival and had to wait — the
    forced-wait counter of T6. *)

val metrics : 'a member -> Causalb_stackbase.Metrics.t
(** The member's uniform layer metrics (see {!Causalb_stackbase.Metrics}). *)

val provides : Causalb_stackbase.Guarantee.t
(** [Causal] — vector-clock potential causality. *)

val requires : Causalb_stackbase.Guarantee.t
(** [Unordered] — stamps carry all the ordering the layer needs. *)

val clock : 'a member -> Causalb_clock.Vector_clock.t
(** The member's current vector clock (delivered counts + own sends). *)

val next_envelope : 'a member -> ?tag:string -> 'a -> 'a envelope
(** Tick the member's send counter and stamp a fresh envelope with its
    clock — the sending half of {!Group.bcast}, split out so framed
    transports ({!Causalb_core.Fgroup}) can stamp once, encode once, and
    hand the frame to [Net.bcast] themselves. *)

(** Group wrapper wiring members over the simulated network. *)
module Group : sig
  type 'a t

  val create :
    'a envelope Causalb_net.Net.t ->
    ?on_deliver:(node:int -> time:float -> 'a envelope -> unit) ->
    unit ->
    'a t

  val size : 'a t -> int

  val bcast : 'a t -> src:int -> ?tag:string -> 'a -> unit
  (** Stamp with the sender's clock (own component ticked) and broadcast,
      including a local copy. *)

  val member : 'a t -> int -> 'a member
end
