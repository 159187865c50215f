(** Objects from sequential specifications.

    The paper's §6 access protocol asks the application for exactly one
    bit per operation — [Cid] (commutative, may sit inside a window) or
    [Ncid] (synchronization point).  Mostéfaoui/Perrin/Raynal show the
    principled generalization: {e any} object given by a sequential
    specification — an initial state, a transition function, and a
    commutativity relation over its operations — yields a causally
    consistent replicated object, with the [Cid]/[Ncid] labeling a
    {e derived} quantity rather than a hand-marked one.

    A [Seq_spec.t] is that specification as a first-class record.  The
    operation alphabet is partitioned into finitely many named
    {e classes} ([class_of]); the relation [commutes] is declared
    class-against-class and must under-approximate true state
    commutativity (the lint of {!Causalb_data.Commute_lint} samples
    reachable states and validates the declaration against
    {!commute_at}).  An {e observer} class is one whose
    return value is order-sensitive even when its state transition
    commutes — the paper's convention that a [read] closes a cycle.

    From the declaration, {!make} derives the set of [Cid] classes: the
    largest conflict-free subset of non-observer, self-commuting classes
    (computed by a deterministic greedy fixpoint — repeatedly dropping
    the class with the most conflicts, ties resolved against the
    later-declared class).  Everything else is [Ncid].  No constructor
    is ever hand-marked.

    The spec is the data layer's one object type: the replica, the
    services, the consistency checkers and the harness drivers all take
    a [Seq_spec.t], so one replica implementation serves every object. *)

type ('op, 'state) t = {
  name : string;
  init : 'state;
  apply : 'state -> 'op -> 'state;  (** the transition function [F] *)
  equal : 'state -> 'state -> bool;
  classes : string list;            (** the finite operation classes, in
                                        declaration order *)
  class_of : 'op -> string;         (** total; must land in [classes] *)
  commutes : string -> string -> bool;
      (** declared class-level commutativity; must be symmetric and a
          sound under-approximation of {!commute_at} *)
  observer : string -> bool;
      (** return value order-sensitive — forces [Ncid] even when the
          transition commutes (the paper's [read] convention) *)
  observe : 'state -> 'op -> string option;
      (** pure query result: what an observer returns when it lands on a
          stable point ([None] for pure mutators) *)
  digest : 'state -> int;
      (** canonical state digest: equal states must digest equally
          whatever internal representation (map balancing, list order)
          they carry — this is what stable-point agreement compares
          across replicas *)
  pp_state : Format.formatter -> 'state -> unit;
  pp_op : Format.formatter -> 'op -> unit;
  cid : string list;
      (** derived by {!make}: the classes labeled [Cid]; everything else
          is [Ncid].  Do not populate by hand. *)
}

val make :
  name:string ->
  init:'state ->
  apply:('state -> 'op -> 'state) ->
  equal:('state -> 'state -> bool) ->
  classes:string list ->
  class_of:('op -> string) ->
  commutes:(string -> string -> bool) ->
  ?observer:(string -> bool) ->
  ?observe:('state -> 'op -> string option) ->
  ?digest:('state -> int) ->
  ?pp_state:(Format.formatter -> 'state -> unit) ->
  ?pp_op:(Format.formatter -> 'op -> unit) ->
  unit ->
  ('op, 'state) t
(** Build a spec and derive its [Cid] classes.  [observer] defaults to
    no class; [digest] to [Hashtbl.hash] (override it whenever equal
    states can differ representationally); [observe] to [None].
    @raise Invalid_argument if [classes] is empty, contains duplicates,
    or [commutes] is asymmetric on it. *)

val cid_classes : ('op, 'state) t -> string list
(** The derived [Cid] classes, in declaration order. *)

val kind : ('op, 'state) t -> 'op -> Op.kind
(** The derived labeling: [Commutative] iff [class_of op] is a [Cid]
    class. *)

val is_cid : ('op, 'state) t -> 'op -> bool

val commute_at : ('op, 'state) t -> 'state -> 'op -> 'op -> bool
(** [commute_at t s a b] iff applying [a; b] and [b; a] from [s] reach
    equal states — the paper's concurrency test [F(mb, F(ma, s)) =
    F(ma, F(mb, s))]. *)

val class_pairs : ('op, 'state) t -> (string * string) list
(** Every unordered pair (including reflexive) the spec declares
    commuting — the proof obligations the commutativity lint samples. *)
