(** Binary codecs for the protocol's wire values.

    {!Causalb_util.Wire} provides the primitives (pooled writers,
    immutable frames, bounds-checked readers); this module provides the
    codecs for the values that actually cross the simulated wire —
    vector clocks, [Bss.envelope] and [Pcbcast.wire] — plus the
    {!framed} wrapper {!Fgroup} broadcasts, a frame paired with a
    memoized decoded view so a fan-out of [n] copies decodes once, not
    [n] times.

    Every codec is a [put]/[get] pair with [get (put v) = v] (the qcheck
    round-trip property in [test/test_wire.ml]); [get] on a truncated or
    corrupted frame raises [Wire.Corrupt], never returns garbage. *)

module Wire := Causalb_util.Wire

type 'a enc = Wire.writer -> 'a -> unit

type 'a dec = Wire.reader -> 'a

(** {1 Payload codecs} *)

val put_str : string enc

val get_str : string dec

val put_int : int enc

val get_int : int dec

(** {1 Protocol values} *)

val put_clock : Causalb_clock.Vector_clock.t enc

val get_clock : Causalb_clock.Vector_clock.t dec

val put_envelope : 'a enc -> 'a Bss.envelope enc

val get_envelope : 'a dec -> 'a Bss.envelope dec

val put_envelope_header : 'a Bss.envelope enc
(** Everything but the payload (sender, stamp, tag) — the control span
    of a BSS frame, O(n) because of the stamp.  [put_envelope] is this
    followed by the payload; pair them through {!encode_split}. *)

val put_pc : 'a enc -> 'a Pcbcast.wire enc
(** PC-broadcast wire codec: one discriminator byte, then the
    constant-size header (origin and seq varints, tag) and the case's
    body.  Control frames ([Lock], barriers, joins) are all control
    bytes. *)

val get_pc : 'a dec -> 'a Pcbcast.wire dec

val put_pc_header : 'a Pcbcast.envelope enc
(** The constant-size control span of an envelope (origin, seq, tag) —
    what the scaling sweep measures against [put_envelope_header]. *)

(** {1 Whole frames} *)

val encode : Wire.pool -> 'a enc -> 'a -> Wire.frame
(** One pooled writer, one sealed frame. *)

val encode_pc : Wire.pool -> 'a enc -> 'a Pcbcast.wire -> Wire.frame * int
(** {!put_pc} with the App payload span measured in the same pass —
    returns [(frame, payload_bytes)]; control frames measure 0. *)

val encode_split :
  Wire.pool -> header:'a enc -> payload:'a enc -> 'a -> Wire.frame * int
(** Encode [header] then [payload] into one frame, measuring the
    payload's encoded span with a writer mark — no second encode.
    Returns the frame and the payload byte count; the control share is
    [Wire.length frame - span].  Feed the span to {!framed} so
    receivers can charge {!Causalb_stackbase.Metrics.on_wire_split}. *)

val decode : 'a dec -> Wire.frame -> 'a
(** Decode a whole frame; raises [Wire.Corrupt] on trailing bytes. *)

(** {1 Shared decoded views}

    The encode-once/decode-many discipline: a broadcast enqueues one
    {!framed} value to every recipient; the first receiver decodes and
    the rest reuse the memoized view — zero per-recipient stamp
    allocation, matching the in-memory sharing the plain groups already
    rely on (stamps are documented read-only). *)

type 'a framed = {
  frame : Wire.frame;
  payload_bytes : int option;
      (** encoded span of the application payload within [frame], from
          {!encode_split}; [None] when unmeasured, in which case byte
          charges stay unsplit *)
  mutable view : 'a option;
}

val framed : ?payload_bytes:int -> Wire.frame -> 'a framed

val view : 'a framed -> dec:'a dec -> 'a
(** The decoded value, decoding (and memoizing) on first use. *)
