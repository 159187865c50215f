(** A data replica: a state machine driven by causally delivered
    operations, with stable-point detection and deferred reads
    (paper §4–6.1).

    Feed {!on_deliver} with each operation message released by the causal
    layer, in delivery order.  The replica applies the transition
    function and hands the message to its
    {!Causalb_core.Stable_points} tracker, classified by the machine's
    [kind] (an [Op.Non_commutative] operation closes the cycle).  At
    each close it snapshots its state (the states that must agree across
    replicas) and records the cycle for the consistency checker.

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
  machine:('op, 'state) State_machine.t ->
  ?on_stable:(('op, 'state) cycle -> unit) ->
  unit ->
  ('op, 'state) t
(** [on_stable] fires as each cycle closes, before deferred reads run. *)

val id : ('op, 'state) t -> int

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

val snapshots : ('op, 'state) t -> 'state list
(** [end_state] of each closed cycle, oldest first. *)

val pending_reads : ('op, 'state) t -> int
