(** Per-sender FIFO broadcast — the under-ordered baseline.

    Delivers each origin's messages in send order but imposes no
    cross-origin constraints at all.  It is cheaper than causal delivery
    and is the "no ordering knowledge" end of the spectrum in experiments
    T1/T6: workloads whose semantic graph has cross-origin edges violate
    their constraints under FIFO, which the checker detects. *)

type 'a envelope = { sender : int; seq : int; tag : string; payload : 'a }

type 'a member

val member : id:int -> group_size:int -> ?deliver:('a envelope -> unit) ->
  unit -> 'a member

val receive : 'a member -> 'a envelope -> unit

val delivered_count : 'a member -> int

val pending_count : 'a member -> int

val buffered_ever : 'a member -> int
(** Arrivals that had to wait for an earlier message from the same origin
    — the uniform forced-wait counter of the ordering stack. *)

val metrics : 'a member -> Causalb_stackbase.Metrics.t
(** The member's uniform layer metrics (see {!Causalb_stackbase.Metrics}). *)

val provides : Causalb_stackbase.Guarantee.t
(** [Fifo] — per-sender order, nothing across senders. *)

val requires : Causalb_stackbase.Guarantee.t
(** [Unordered] — the layer reorders raw transport arrivals itself. *)

module Group : sig
  type 'a t

  val create :
    'a envelope Causalb_net.Net.t ->
    ?on_deliver:(node:int -> time:float -> 'a envelope -> unit) ->
    unit ->
    'a t

  val size : 'a t -> int

  val bcast : 'a t -> src:int -> ?tag:string -> 'a -> unit

  val member : 'a t -> int -> 'a member
end
