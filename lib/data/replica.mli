(** A data replica: one object's sequential specification driven by
    causally delivered operations, with stable-point detection and
    deferred reads (paper §4–6.1).

    Feed {!on_deliver} with each operation message released by the causal
    layer, in delivery order.  The replica applies the spec's transition
    function and hands the message to its
    {!Causalb_core.Stable_points} tracker, classified by the spec's
    derived labeling (an [Ncid] operation closes the cycle).  At each
    close it records the cycle, whose [end_state] is the state that must
    agree across replicas, for the consistency checker.  The replica
    keeps the whole spec, so everything it declares ([observe] included)
    is available wherever a replica is.

    Reads come in the two flavours the paper discusses:
    {ul
    {- a {e broadcast read} is an ordinary non-commutative operation — it
       closes the window and every replica answers it from the same
       agreed state;}
    {- a {e deferred read} ({!read_deferred}) is local: the value is taken
       at the next stable point, so the replica returns the same value as
       every other member without broadcasting anything (§5.1).}} *)

type ('op, 'state) t

(** Everything recorded about one closed processing cycle. *)
type ('op, 'state) cycle = {
  index : int;
  start_state : 'state;                      (** state at the opening stable point *)
  window : (Causalb_graph.Label.t * 'op) list;  (** interior ops, applied order *)
  closed_by : Causalb_graph.Label.t * 'op;   (** the sync operation *)
  end_state : 'state;                        (** the new stable state *)
}

val create :
  id:int ->
  spec:('op, 'state) Seq_spec.t ->
  ?on_stable:(('op, 'state) cycle -> unit) ->
  unit ->
  ('op, 'state) t
(** [on_stable] fires as each cycle closes, before deferred reads run. *)

val id : ('op, 'state) t -> int

val spec : ('op, 'state) t -> ('op, 'state) Seq_spec.t
(** The object's spec, as given to {!create}. *)

val on_deliver : ('op, 'state) t -> 'op Causalb_core.Message.t -> unit

val state : ('op, 'state) t -> 'state
(** Current (possibly mid-window, unagreed) state. *)

val stable_state : ('op, 'state) t -> 'state
(** State at the last stable point (the last agreed value); [init] if no
    cycle has closed yet. *)

val read_deferred : ('op, 'state) t -> ('state -> unit) -> unit
(** Invoke the continuation with the state at the next stable point. *)

val cycles : ('op, 'state) t -> ('op, 'state) cycle list
(** Closed cycles, oldest first. *)

val cycles_closed : ('op, 'state) t -> int

val applied : ('op, 'state) t -> Causalb_graph.Label.t list
(** Labels in application order. *)

val applied_count : ('op, 'state) t -> int

val pending_reads : ('op, 'state) t -> int
