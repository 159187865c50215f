(** The ordering-guarantee lattice.

    Every delivery pipeline the stack can compose sits somewhere on one
    axis: how much of the causal order of §3 it promises the application.
    The four points form a chain

    {v Unordered ⊑ Fifo ⊑ Causal ⊑ Causal_total v}

    — each guarantee subsumes the ones below it (a causally ordered
    delivery is in particular per-sender FIFO; a causal {e total} order
    is in particular causal).  Layers declare what they {!require} from
    the composition below and what they {e provide} above (each
    engine's [requires]/[provides] values, listed per pipeline by
    [Causalb_stack.Stack.layer_guarantees]), and the static verifier
    ([causalb.analysis]) folds a pipeline bottom-up through this
    lattice: a layer whose requirement is not met by the guarantee
    available below it is a composition bug caught before any message is
    sent.

    The chain is also how workload demands are expressed: the causal-race
    lint computes the {e minimal} guarantee under which a workload's
    non-commuting operation pairs are all arbitrated identically at every
    member, and that demand is compared against the top of the stack. *)

type t =
  | Unordered     (** bare transport: no ordering promise at all *)
  | Fifo          (** per-sender FIFO: one sender's messages arrive in
                      send order, senders mutually unordered *)
  | Causal        (** causal order: every delivery respects the message
                      dependency relation [R(M)] (vector-clock potential
                      causality for BSS, explicit [Occurs_After]
                      predicates for OSend/Psync) *)
  | Causal_total  (** causal {e and} identical total order at every
                      member (merge / counted batch / sequencer) *)

val leq : t -> t -> bool
(** [leq a b] iff [a ⊑ b]: every delivery satisfying [b] also satisfies
    [a].  A total order on this lattice (it is a chain). *)

val join : t -> t -> t
(** Least upper bound — the guarantee of a pipeline stage that enforces
    both arguments. *)

val meet : t -> t -> t
(** Greatest lower bound — what survives when either ordering may be the
    one that applies. *)

val bot : t
(** [Unordered], the lattice bottom. *)

val top : t
(** [Causal_total], the lattice top. *)

val compare : t -> t -> int
(** The chain order; consistent with {!leq}. *)

val equal : t -> t -> bool

val to_string : t -> string
(** Stable machine-readable name: ["unordered"], ["fifo"], ["causal"],
    ["causal-total"]. *)

val of_string : string -> t option
(** Inverse of {!to_string} (case-insensitive); [None] on anything else. *)

val pp : Format.formatter -> t -> unit
