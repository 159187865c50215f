(** Stable-point detection (paper §4.1, §5.1, §6.1).

    The §6.1 access protocol processes messages in repetitive cycles
    [rqst_nc(r−1) → ‖{rqst_c(r,k)} → rqst_nc(r)]: a non-commutative
    message opens/closes a cycle and the interior is a set of concurrent
    commutative messages.  Each member runs one tracker over its causal
    delivery sequence; because the closing message causally depends on the
    whole interior set, every member closes each cycle on the same message
    set — a stable point detected {e locally}, with no agreement round.

    The tracker also hosts deferred actions (the paper's deferred reads,
    §5.1): an action registered mid-window runs at the next stable point,
    when the member's state is guaranteed to agree with every other
    member's.

    A tracker keeps only the open cycle: its interior messages and the
    actions deferred to its close.  Both are handed over and forgotten
    when the cycle closes; what a consumer wants to remember of a closed
    cycle, it keeps itself. *)

(** One closed cycle, as handed to [on_stable] and to deferred actions. *)
type 'a point = {
  cycle : int;                 (** 0-based cycle number *)
  window : 'a Message.t list;  (** interior set, delivery order *)
  closed_by : 'a Message.t;    (** the sync message *)
}

type 'a t

val create :
  is_sync:('a Message.t -> bool) -> on_stable:('a point -> unit) -> 'a t
(** [is_sync m] classifies [m] as the non-commutative (Ncid) message that
    closes the open cycle; every other message joins its window.
    [on_stable] fires at each close, before the deferred actions run. *)

val on_deliver : 'a t -> 'a Message.t -> unit
(** Feed each causally delivered message, in delivery order. *)

val defer : 'a t -> ('a point -> unit) -> unit
(** Run the action at the next stable point (after [on_stable]), in
    registration order.  An action registered while the actions of a
    close run waits for the following close. *)

val cycles_closed : 'a t -> int

val deferred_count : 'a t -> int
(** Actions waiting for the next stable point. *)
