(** Imperative FIFO queue with O(1) push, pop and length.

    The wakeup buckets of the indexed hold-back queues (see
    {!Causalb_core.Fifo} and {!Causalb_core.Bss}) append a waiter per unmet
    threshold at buffer time and consume the whole bucket when it fires; both
    ends must be constant-time and iteration must preserve insertion
    (arrival) order, which is the delivery tie-break.  The standard
    library [Queue] would do; this variant adds the non-destructive
    traversals the engines and their tests need. *)

type 'a t

val create : unit -> 'a t

val length : 'a t -> int

val is_empty : 'a t -> bool

val push : 'a t -> 'a -> unit
(** Append at the tail.  O(1). *)

val pop : 'a t -> 'a option
(** Remove and return the head (oldest element).  O(1). *)

val peek : 'a t -> 'a option

val iter : ('a -> unit) -> 'a t -> unit
(** Head-to-tail traversal; the queue is not modified. *)

val fold : ('acc -> 'a -> 'acc) -> 'acc -> 'a t -> 'acc

val drain : ('a -> unit) -> 'a t -> unit
(** [iter] then [clear]: consume every element in insertion order. *)

val to_list : 'a t -> 'a list
(** Elements head-to-tail; the queue is not modified. *)

val clear : 'a t -> unit
