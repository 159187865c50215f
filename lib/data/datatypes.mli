(** The shared-data types used by the paper's examples, packaged as
    sequential specifications.

    Each corresponds to a workload the paper names: the integer with
    inc/dec/read (§2.2, §5.1), multiple independent integer items
    (decomposition of X̄ into items, §5.1), the name-service registry with
    update/query (§5.2), the collaboratively annotated design document
    (§1, §5.2, ref [11]) and the multiplayer card game (§5.1).

    Every module declares a {!Seq_spec.t} — transition function plus a
    class-level commutativity relation — and that [spec] is what
    {!Replica}, {!Service} and the harness drivers run: the [Cid]/[Ncid]
    labeling is {e derived} from the relation, not hand-marked per
    constructor, and {!Commute_lint} checks the relation against
    {!Seq_spec.commute_at} from reachable states. *)

(** Integer data with commutative increment/decrement and non-commutative
    set/read (the paper's running example). *)
module Int_register : sig
  type op =
    | Inc of int
    | Dec of int
    | Set of int   (** overwrite — does not commute with inc/dec *)
    | Read         (** identity on the state; sync because its return
                       value is order-sensitive (observer class) *)

  type state = int

  val spec : (op, state) Seq_spec.t

  val pp_op : Format.formatter -> op -> unit
end

(** A vector of independent integer items: operations on distinct items
    always commute; inc/dec on the same item commute; set/read do not
    (§5.1's "decomposition of X̄ into distinct items").  The class-level
    relation is conservative — "set" conflicts even across items; the
    per-item front-end recovers that concurrency by scoping windows. *)
module Multi_register : sig
  type op =
    | Inc of int * int  (** item, amount *)
    | Dec of int * int
    | Set of int * int
    | Read_all

  type state = int array

  val spec : items:int -> (op, state) Seq_spec.t
  (** @raise Invalid_argument if [items <= 0]. *)
end

(** Name-service registry (§5.2): conflicting updates, commutative
    queries.  A query is the identity on the state; the protocol layer
    ({!Causalb_protocols.Name_service}) adds the context check that
    detects order-sensitive query results, which is why "qry" is
    deliberately {e not} an observer class here.  The derivation also
    discovers that deletes commute with each other (removals are
    idempotent), so [Del] lands in [Cid]. *)
module Kv_store : sig
  type op =
    | Upd of string * string
    | Del of string
    | Qry of string

  type state = string Map.Make(String).t

  val spec : (op, state) Seq_spec.t

  val lookup : state -> string -> string option
end

(** Collaborative design document (distributed conferencing, refs [11]):
    participants annotate sections concurrently (commutative, set
    semantics); an editor's commit replaces a section body
    (non-commutative). *)
module Document : sig
  module String_set : Set.S with type elt = string

  type op =
    | Annotate of int * string  (** section, annotation text *)
    | Commit of int * string    (** section, new body *)
    | Review                    (** read the whole document — sync *)

  type section = { body : string; annotations : String_set.t }

  type state = section array

  val spec : sections:int -> (op, state) Seq_spec.t

  val render : state -> string
end

(** An append-only shared log (chat room, audit journal).  Entries carry
    their author and a per-author sequence number and the log is kept in
    canonical [(author, seq)] order, so concurrent appends commute
    structurally; sealing a segment (rotating the journal) reads the
    whole set and is non-commutative. *)
module Log : sig
  type entry = { author : int; seq : int; text : string }

  type op =
    | Append of entry
    | Seal          (** close the current segment — sync *)

  type state = { sealed : entry list list; open_ : entry list }

  val spec : (op, state) Seq_spec.t

  val entry : author:int -> seq:int -> string -> entry
end

(** A bank account replicated across branches — the classic illustration
    of commutativity classes: unconditional deposits/withdrawals commute
    (the balance is a sum), while a checked withdrawal (only succeeds on
    sufficient funds) and an audit are order-sensitive and must sit at
    stable points. *)
module Bank_account : sig
  type op =
    | Deposit of int
    | Withdraw of int          (** unconditional; may overdraw *)
    | Withdraw_checked of int  (** applies only if balance suffices *)
    | Audit                    (** read balance + count — sync *)

  type state = { balance : int; rejected : int }

  val spec : (op, state) Seq_spec.t
end

(** Multiplayer card game (§5.1): players' cards within one round are
    concurrent; a round marker closes the trick.  The state records, per
    round, the set of cards on the table. *)
module Card_table : sig
  type op =
    | Play of int * string  (** player, card *)
    | Round_end

  type round = (int * string) list (* sorted by player *)

  type state = { finished : round list; table : round }

  val spec : (op, state) Seq_spec.t
end
