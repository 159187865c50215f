(** A dynamically replicated service: the §6.1 stable-point access
    protocol running over virtually synchronous group membership.

    Replicas can join (receiving the current state by transfer) and leave
    while clients keep submitting operations.  A view boundary is itself
    a stable point: the flush protocol guarantees every surviving member
    has applied the same operation set, and since open windows contain
    only commutative operations, the per-member states coincide at the
    install — so the §6.1 window bookkeeping can simply restart in the
    new view.

    Submissions race view changes safely: operations submitted while a
    change is in flight are parked and re-enter in the next view. *)

type ('op, 'state) t

val create :
  Causalb_sim.Engine.t ->
  nodes:int ->
  initial:int list ->
  spec:('op, 'state) Seq_spec.t ->
  ?latency:Causalb_sim.Latency.t ->
  unit ->
  ('op, 'state) t
(** [nodes] is the address space; [initial] the starting replica set. *)

val submit : ('op, 'state) t -> src:int -> 'op -> unit
(** Submit through the shared front-end manager (src must be a current
    member; operations submitted mid-view-change are parked and re-issued
    in the next view). @raise Invalid_argument if [src] is not a member. *)

val join : ('op, 'state) t -> node:int -> unit

val leave : ('op, 'state) t -> node:int -> unit

val is_member : ('op, 'state) t -> int -> bool

val state : ('op, 'state) t -> int -> 'state
(** The node's current local state. *)

val applied_count : ('op, 'state) t -> int -> int

val run : ?until:float -> ('op, 'state) t -> unit

val check : ('op, 'state) t -> (string * bool) list
(** Named verdicts: view agreement, virtual synchrony, stable-snapshot
    agreement per view, and survivor-state agreement. *)
