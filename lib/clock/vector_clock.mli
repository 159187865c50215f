(** Vector clocks over a fixed group of [n] processes.

    Vector timestamps characterise Lamport's happens-before exactly: for
    events [e], [f] with timestamps [V(e)], [V(f)], [e → f] iff
    [V(e) < V(f)] componentwise.  The Birman–Schiper–Stephenson causal
    broadcast baseline ({!Causalb_core.Bss}) piggybacks a vector clock on
    every message; experiment T6 compares the dependencies it *infers*
    against the explicit dependencies the application states via [OSend]. *)

type t

(** Result of comparing two vector timestamps under the causal partial
    order. *)
type ordering =
  | Before      (** strictly happens-before *)
  | After       (** strictly happens-after *)
  | Equal
  | Concurrent

val create : int -> t
(** [create n] is the zero vector for an [n]-process group.
    @raise Invalid_argument if [n <= 0]. *)

val init : int -> (int -> int) -> t
(** [init n f] is the clock whose component [i] is [f i].  [f] is
    applied to [0 .. n-1] in order, so a stateful reader can decode
    straight into the clock.
    @raise Invalid_argument if [n <= 0]. *)

val size : t -> int

val get : t -> int -> int
(** Component for process [i].  @raise Invalid_argument if out of range. *)

val tick : t -> int -> t
(** [tick v i] increments component [i] — a local event at process [i]. *)

val merge : t -> t -> t
(** Componentwise maximum (least upper bound).
    @raise Invalid_argument on size mismatch. *)

val receive : local:t -> remote:t -> me:int -> t
(** Message-receipt rule: merge then tick own component.  One allocation
    (the result vector). *)

(** {1 In-place operations}

    Hot paths deliver one message per call and would otherwise allocate a
    fresh vector each time; these mutate an owned clock instead.  A clock
    obtained from a message stamp is shared — mutate only clocks this
    process created (via {!create}, {!copy}, {!of_array} or
    {!with_component}). *)

val copy : t -> t
(** An independent clock with the same components. *)

val merge_into : into:t -> t -> unit
(** [merge_into ~into v] sets [into] to the componentwise maximum of the
    two clocks.  Allocation-free.
    @raise Invalid_argument on size mismatch. *)

val receive_into : local:t -> remote:t -> me:int -> unit
(** In-place {!receive}: [local] becomes [merge local remote] with
    component [me] ticked.  Allocation-free; agrees with the pure
    {!receive} (property-tested in [test/test_clock.ml]). *)

val bump : t -> int -> unit
(** In-place {!tick}: increments component [i] without copying. *)

val with_component : t -> int -> int -> t
(** [with_component v i x] is a fresh clock equal to [v] except component
    [i] holds [x] — a snapshot in a single allocation.  The BSS stamp
    (delivered counts with the sender's own component swapped for its
    send count) is built with this. *)

val compare_causal : t -> t -> ordering

val leq : t -> t -> bool
(** [leq a b] iff [a] ≤ [b] componentwise. *)

val lt : t -> t -> bool
(** Strictly less: [leq] and differing in some component. *)

val concurrent : t -> t -> bool

val equal : t -> t -> bool

val dominates_all : t -> t list -> bool
(** [dominates_all v vs] iff every element of [vs] is ≤ [v]. *)

val of_array : int array -> t

val pp : Format.formatter -> t -> unit

val to_string : t -> string

(** {1 Causal delivery kernels}

    The Birman–Schiper–Stephenson delivery rule ({!Causalb_core.Bss}),
    each as one pass over the two clocks.  Both check the sizes and the
    sender index once before they scan. *)

val deliverable : delivered:t -> stamp:t -> sender:int -> bool
(** [deliverable ~delivered ~stamp ~sender] iff
    [stamp.(sender) = delivered.(sender) + 1] and
    [stamp.(k) <= delivered.(k)] for every [k <> sender].  Stops at the
    first unmet component.
    @raise Invalid_argument if the sizes differ or [sender] is out of
    range. *)

val iter_unmet :
  delivered:t -> stamp:t -> sender:int -> (int -> int -> unit) -> unit
(** [iter_unmet ~delivered ~stamp ~sender f] calls [f k v] once for each
    threshold [delivered.(k)] has yet to reach before [stamp] can be
    delivered: first [f sender (stamp.(sender) - 1)] when
    [delivered.(sender) < stamp.(sender) - 1], then [f k stamp.(k)] for
    every [k <> sender] with [delivered.(k) < stamp.(k)], in ascending
    [k].
    @raise Invalid_argument if the sizes differ or [sender] is out of
    range. *)
