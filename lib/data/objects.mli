(** Replicated objects defined purely as sequential specifications.

    These are the classic convergent datatypes, but nothing here is a
    CRDT implementation in the merge-function sense: each is an ordinary
    sequential specification ({!Seq_spec.t}, the one object type
    {!Replica} and {!Service} run) whose commutativity relation the
    {!Seq_spec} layer turns into a [Cid]/[Ncid] labeling, and the §6
    access protocol supplies exactly the delivery order the relation
    requires.  Operations whose classes always commute ride the causal
    broadcast concurrently; everything order-sensitive is a sync point.

    All states carry canonical digests (independent of map/set internal
    shape), so stable-point digest agreement can be audited offline by
    [causalb-check]. *)

(** An integer counter: concurrent additions commute; reading the total
    is an observer. *)
module Counter : sig
  type op =
    | Add of int   (** negative for decrement *)
    | Value        (** observer — read the total *)

  type state = int

  val spec : (op, state) Seq_spec.t
end

(** A grow-only set: adds are idempotent unions and always commute. *)
module Gset : sig
  module String_set : Set.S with type elt = string

  type op =
    | Add of string
    | Elements  (** observer — read the membership *)

  type state = String_set.t

  val spec : (op, state) Seq_spec.t

  val elements : state -> string list
end

(** An observed-remove set.  Each add carries a unique tag; a remove
    erases the tags of an element it has {e observed}, so it is an
    observer class (it reads the tag set) and lands at a sync point —
    concurrent adds it did not see survive, which is exactly the
    add-wins semantics, obtained here from the ordering protocol rather
    than from merge metadata. *)
module Or_set : sig
  type op =
    | Add of string * int  (** element, unique tag (e.g. from {!Causalb_graph.Label}) *)
    | Remove of string     (** erase every observed tag of the element *)
    | Elements             (** observer — read the membership *)

  type state

  val spec : (op, state) Seq_spec.t

  val mem : state -> string -> bool

  val elements : state -> string list
  (** Distinct elements with at least one surviving tag, sorted. *)

  val tags : state -> string -> int list
  (** Surviving tags of an element, sorted. *)
end

(** A last-writer-wins map.  Every mutation carries a (timestamp, source)
    pair and each key keeps the entry that is largest in the total order
    over [(timestamp, source, value)] — a per-key max, so puts and
    removes {e all} commute with each other and the whole mutation
    surface is [Cid]; only reads are sync points. *)
module Lww_map : sig
  type op =
    | Put of { key : string; ts : int; src : int; value : string }
    | Remove of { key : string; ts : int; src : int }
        (** a tombstone entry: wins like a put, maps the key to nothing *)
    | Get of string  (** observer *)

  type state

  val spec : (op, state) Seq_spec.t

  val find : state -> string -> string option

  val bindings : state -> (string * string) list
  (** Live (non-tombstoned) bindings, sorted by key. *)
end

(** An RGA-style collaborative sequence (replicated growable array).
    The state is a grow-only map of element nodes (each anchored after
    another element's id) plus a tombstone set; the linear text is
    computed {e at observation} by the RGA traversal (children of each
    anchor in descending id order).  Because inserts only ever add a
    node under a globally unique id and deletes only ever add a
    tombstone, {e both} mutators commute and ride the concurrent window;
    reading the text is the only sync point. *)
module Rga : sig
  type id = int * int
  (** (sequence number, source) — unique per insert, ordered
      lexicographically; the larger id wins the race for the same
      anchor, i.e. sorts earlier in the text. *)

  type op =
    | Insert of { id : id; after : id option; ch : string }
        (** [after = None] anchors at the document head *)
    | Delete of id
    | Read  (** observer — the linear text *)

  type state

  val spec : (op, state) Seq_spec.t

  val to_text : state -> string
  (** The RGA linearisation: depth-first from each anchor, children in
      descending id order, tombstoned elements skipped (their subtrees
      are not). *)

  val size : state -> int
  (** Live (non-tombstoned) elements. *)
end
