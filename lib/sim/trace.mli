(** Execution traces.

    Engines and protocols append timestamped records; verifiers and the
    experiment harness read them back.  A trace is append-only and cheap
    enough to leave enabled in benchmarks (it is the measurement source,
    not an afterthought).  Records are stored in fixed-size chunks of an
    array, so the scan functions ({!iter}, {!fold}) allocate nothing per
    record — the offline checkers of [Causalb_check] walk full bench
    traces with them — and appending never copies a record: each chunk
    fits the minor heap, so a record stored in a fresh chunk costs the
    write barrier no remembered-set entry. *)

type kind =
  | Send        (** message handed to the transport *)
  | Receive     (** message arrived at a node, pre-ordering *)
  | Deliver     (** message released by the causal layer *)
  | Release     (** a total-order layer (or the stack's application
                    hand-off) released a buffered message *)
  | Drop        (** fault injection removed the message *)
  | Mark        (** free-form protocol milestone (stable point, lock grant …) *)

type record = {
  time : float;
  node : int;      (** acting node; [-1] for global events *)
  kind : kind;
  tag : string;    (** message label or milestone name *)
  info : string;   (** free-form detail *)
}

type t

val create : ?capacity:int -> unit -> t

val record : t -> time:float -> node:int -> kind:kind -> tag:string ->
  ?info:string -> unit -> unit

val length : t -> int

val get : t -> int -> record
(** The [i]-th record in recording order.
    @raise Invalid_argument when out of range. *)

val iter : t -> (record -> unit) -> unit
(** Apply to every record in recording order, without materialising the
    record list. *)

val fold : t -> init:'acc -> f:('acc -> record -> 'acc) -> 'acc
(** Fold over records in recording order, without materialising the
    record list. *)

val events : t -> record list
(** In recording order (which equals virtual-time order when produced by
    one engine). *)

val filter : t -> (record -> bool) -> record list

val deliveries_at : t -> int -> (float * string) list
(** [(time, tag)] of every [Deliver] {e and} [Release] at the given node,
    in order.  Total-order layers release buffered messages with a
    separate [Release] record, so a message that passed through one
    appears twice: once when the causal layer delivered it and once when
    the total-order layer released it — the pairing the checkers and the
    layer metrics need. *)

val delivery_order : t -> int -> string list
(** Tags in the order the application saw them at the node: the [Release]
    sequence when the node recorded any (a total-order layer or the stack
    released messages there), otherwise the causal [Deliver] sequence. *)

val find_delivery : t -> node:int -> tag:string -> float option
(** Virtual time at which the node first delivered/released the tagged
    message. *)

val stable_mark :
  t -> time:float -> node:int -> cycle:int -> digest:int -> unit
(** Record that [node] closed §6.1 cycle [cycle] (0-based): a [Mark]
    tagged ["stable:<cycle>"] whose [info] is ["digest=<8 hex>"], the low
    32 bits of [digest].  Members that closed the same cycle on the same
    window and state write the same digest; [Causalb_check.Trace_check]
    compares them. *)

val is_stable_mark : record -> bool
(** The record is a {!stable_mark}. *)

val kind_to_string : kind -> string

val pp_record : Format.formatter -> record -> unit

val pp : Format.formatter -> t -> unit
