(** Uniform per-layer delivery metrics for the ordering stack.

    Every layer of a composed pipeline — transport, causal broadcast,
    interposed total-order layer — exposes one {!t}, so an experiment can
    report the same four columns for any composition: how much the layer
    received from below, how much it released above, how often an arrival
    was forced to wait, and how long messages spent between entering the
    pipeline and leaving the layer.

    The counter fields are updated by the delivery engines themselves
    (they are the source of truth for forced waits); the [latency]
    accumulator is fed by whichever component knows the virtual clock —
    standalone engines leave it empty, {!Causalb_stack.Stack} fills it. *)

module Stats := Causalb_util.Stats

type t = {
  name : string;  (** layer name, e.g. ["causal:bss"] *)
  mutable received : int;
      (** messages handed to the layer from the layer below *)
  mutable delivered : int;
      (** messages released to the layer above (or the application) *)
  mutable forced_waits : int;
      (** arrivals that could not be released immediately and had to
          buffer — the T6 counter, uniform across engines *)
  mutable buffered : int;  (** currently held by the layer *)
  mutable wire_bytes : int;
      (** encoded bytes this layer moved over the wire — fed by the
          framed delivery path ({!Causalb_core.Fgroup}); zero for
          in-memory groups, which never serialize.  Always the sum of
          {!field-control_bytes}, {!field-payload_bytes}, and any
          unsplit {!on_wire} charges, so pre-split consumers reconcile *)
  mutable control_bytes : int;
      (** the metadata share of [wire_bytes]: headers, stamps, causal
          barriers — O(n) per copy for vector-clock engines, O(1) for
          PC-broadcast.  The headline axis of experiment M1 *)
  mutable payload_bytes : int;
      (** the application-data share of [wire_bytes] *)
  latency : Stats.t;
      (** per-message time from pipeline entry to release by this layer *)
}

val create : ?name:string -> unit -> t

val on_receive : t -> unit

val on_deliver : t -> unit
(** Count a release. *)

val on_buffer : t -> unit
(** Count a forced wait and raise the buffered gauge. *)

val on_unbuffer : t -> unit
(** Lower the buffered gauge when a parked message is released. *)

val on_wire : t -> int -> unit
(** Charge [n] encoded bytes to the layer (one frame length per
    delivered copy on the framed path).  Unsplit: the bytes land in
    [wire_bytes] only.  Prefer {!on_wire_split} where the frame layout
    is known. *)

val on_wire_split : t -> control:int -> payload:int -> unit
(** Charge one copy's bytes split into metadata and application data.
    [wire_bytes] receives the sum, so v3 consumers of the lumped
    counter keep reconciling. *)

val bytes_per_delivery : t -> float
(** [wire_bytes / delivered] — the wire cost per delivery; NaN before
    the first delivery. *)

val control_bytes_per_delivery : t -> float
(** [control_bytes / delivered]: the O(n)-vs-O(1) scaling axis — what
    experiment M1 reports per member count.  NaN before the first
    delivery. *)

val snapshot :
  name:string -> ?received:int -> ?delivered:int -> ?buffered:int -> unit -> t
(** A free-standing view built from externally maintained counters (used
    for the transport layer, whose counters live in [Net]). *)

val combine : ?latency:Stats.t -> name:string -> t list -> t
(** Sum the counters of several per-member metrics into one per-layer
    view.  Latency samples of the inputs are pooled unless a pre-pooled
    [latency] accumulator is supplied. *)

val row : t -> string list
(** [name; received; delivered; forced_waits; buffered; p50; p95] cells
    for table rendering. *)

val columns : string list
(** Header matching {!row}. *)

val pp : Format.formatter -> t -> unit
