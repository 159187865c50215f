(** Compact binary wire codec: the Bytes-based sibling of {!Json}.

    The hot path of the §6.1 protocol broadcasts every stamp to every
    member, so serialization cost must be paid {e once per message}, not
    once per recipient.  This module provides the primitives for that
    encode-once / decode-many discipline:

    - a {!writer} borrows a scratch buffer from a caller-owned {!pool}
      (so a steady-state broadcast loop allocates no fresh buffers),
    - {!finish} seals the scratch into an immutable {!frame} — the one
      value every recipient shares on the wire,
    - a {!reader} is a bounds-checked cursor over a frame; any read past
      the end (a truncated or corrupt frame) raises {!Corrupt} instead of
      returning garbage.

    Integers use LEB128 varints (unsigned for counters and sizes, zigzag
    for possibly-negative payload values), so a typical vector-stamp
    component costs one byte instead of the 8–20 a textual encoding pays.
    The Message/envelope codecs built on these primitives live in
    [Causalb_core.Codec] (they need [Label]/[Dep]/[Vector_clock], which
    sit above this library).

    A pool is single-owner: one pool per group, per bench loop, or per
    worker domain ("per-domain free-lists").  Pools are deliberately not
    shared behind a lock — sharing one across domains is a bug. *)

type frame
(** An immutable encoded message.  Structurally a [string], so frames can
    be shared across any number of recipients (and across domains)
    without copying or defensive ownership. *)

type pool
(** A free list of scratch buffers for encoding. *)

type writer
(** An append-only encoder over a pooled scratch buffer. *)

type reader
(** A bounds-checked decode cursor over a frame. *)

exception Corrupt of string
(** Raised by every [read_*] on truncation or malformed data, and by
    {!expect_end} on trailing bytes. *)

val pool : unit -> pool

val writer : pool -> writer
(** Borrow a scratch buffer (reusing a released one when available).
    @raise Invalid_argument if the writer of a previous [writer] call on
    this pool was never finished — writers are used one at a time. *)

val finish : writer -> frame
(** Seal the bytes written so far into a frame and return the scratch
    buffer to the pool.  The writer must not be used afterwards. *)

(** {1 Writing} *)

val u8 : writer -> int -> unit
(** One raw byte; the value must be in [0, 255]. *)

val uint : writer -> int -> unit
(** Unsigned LEB128 varint.  @raise Invalid_argument on negatives. *)

val int : writer -> int -> unit
(** Zigzag-encoded varint: small magnitudes of either sign stay short. *)

val str : writer -> string -> unit
(** Length-prefixed bytes. *)

val written : writer -> int
(** Bytes appended so far.  Taking the mark before and after a field
    group measures its encoded span — how the framed delivery path
    splits a frame into control and payload bytes without a second
    encode.  @raise Invalid_argument after {!finish}. *)

(** {1 Reading} *)

val length : frame -> int
(** Wire size in bytes — what the transport's byte accounting and the
    bytes-per-delivery metric charge per copy. *)

val reader : frame -> reader
(** A fresh cursor at offset 0.  Readers are cheap; every recipient (or
    the one shared decode) makes its own. *)

val r_u8 : reader -> int

val r_uint : reader -> int

val r_int : reader -> int

val r_str : reader -> string

val remaining : reader -> int

val expect_end : reader -> unit
(** @raise Corrupt if the cursor has not consumed the whole frame. *)

(** {1 Tests and diagnostics} *)

val to_string : frame -> string
(** The raw bytes (a copy-free view — frames are immutable). *)

val of_string : string -> frame
(** Wrap raw bytes as a frame, e.g. to decode a truncated prefix in
    tests. *)

val prefix : frame -> int -> frame
(** [prefix f n] is the first [n] bytes of [f] — a deliberately truncated
    frame for decoder hardening tests.
    @raise Invalid_argument if [n] exceeds [length f]. *)
