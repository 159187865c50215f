(* Binary codecs for the protocol's wire values, on the Wire primitives.

   Layering note: Wire (lib/util) knows nothing about clocks, envelopes
   or PC wire values — those sit above it — so the per-type codecs live
   here in lib/core, next to Bss/Pcbcast, and Fgroup composes them into
   the encode-once/decode-many delivery path. *)

module Wire = Causalb_util.Wire
module Vc = Causalb_clock.Vector_clock

type 'a enc = Wire.writer -> 'a -> unit

type 'a dec = Wire.reader -> 'a

(* --- payload codecs --- *)

let put_str = Wire.str

let get_str = Wire.r_str

let put_int = Wire.int

let get_int = Wire.r_int

(* --- vector clocks --- *)

let put_clock w v =
  let n = Vc.size v in
  Wire.uint w n;
  for i = 0 to n - 1 do
    Wire.uint w (Vc.get v i)
  done

let get_clock r =
  let n = Wire.r_uint r in
  if n = 0 then raise (Wire.Corrupt "clock of size 0");
  (* Every component takes at least one byte, so a count the frame
     cannot hold is corrupt — caught before it sizes an allocation. *)
  if n > Wire.remaining r then
    raise
      (Wire.Corrupt
         (Printf.sprintf "clock of %d components in %d bytes" n
            (Wire.remaining r)));
  Vc.init n (fun _ -> Wire.r_uint r)

(* --- BSS envelopes --- *)

(* Every envelope codec here puts the application payload last, so one
   writer mark ([Wire.written]) before it splits the frame into control
   and payload spans — see [encode_split]. *)
let put_envelope_header w (e : 'a Bss.envelope) =
  Wire.uint w e.Bss.sender;
  put_clock w e.Bss.stamp;
  Wire.str w e.Bss.tag

let put_envelope put_payload w (e : 'a Bss.envelope) =
  put_envelope_header w e;
  put_payload w e.Bss.payload

let get_envelope get_payload r =
  let sender = Wire.r_uint r in
  let stamp = get_clock r in
  let tag = Wire.r_str r in
  let payload = get_payload r in
  { Bss.sender; stamp; tag; payload }

(* --- PC-broadcast wire values --- *)

(* The whole point: the header is two varints plus the tag, independent
   of group size.  One leading byte discriminates the wire cases; the
   App payload (and only it) counts as payload bytes. *)
let put_pc_header w (e : 'a Pcbcast.envelope) =
  Wire.uint w e.Pcbcast.origin;
  Wire.uint w e.Pcbcast.seq;
  Wire.str w e.Pcbcast.tag

let put_pc put_payload w = function
  | Pcbcast.Lock -> Wire.u8 w 0
  | Pcbcast.Env e -> (
    match e.Pcbcast.body with
    | Pcbcast.App p ->
      Wire.u8 w 1;
      put_pc_header w e;
      put_payload w p
    | Pcbcast.Ctrl (Pcbcast.Unlock { target }) ->
      Wire.u8 w 2;
      put_pc_header w e;
      Wire.uint w target
    | Pcbcast.Ctrl (Pcbcast.Joined { node }) ->
      Wire.u8 w 3;
      put_pc_header w e;
      Wire.uint w node)

let get_pc get_payload r =
  let env body =
    let origin = Wire.r_uint r in
    let seq = Wire.r_uint r in
    let tag = Wire.r_str r in
    let body = body () in
    Pcbcast.Env { Pcbcast.origin; seq; tag; body }
  in
  match Wire.r_u8 r with
  | 0 -> Pcbcast.Lock
  | 1 -> env (fun () -> Pcbcast.App (get_payload r))
  | 2 ->
    env (fun () ->
        Pcbcast.Ctrl (Pcbcast.Unlock { target = Wire.r_uint r }))
  | 3 ->
    env (fun () -> Pcbcast.Ctrl (Pcbcast.Joined { node = Wire.r_uint r }))
  | tag -> raise (Wire.Corrupt (Printf.sprintf "bad pc wire tag %d" tag))

(* --- whole-frame helpers --- *)

let encode pool enc v =
  let w = Wire.writer pool in
  enc w v;
  Wire.finish w

(* Encode with the control/payload boundary measured: [header] writes
   everything up to the payload, [payload] the rest.  Returns the frame
   and the payload's encoded span; control bytes are the difference. *)
let encode_split pool ~header ~payload v =
  let w = Wire.writer pool in
  header w v;
  let mark = Wire.written w in
  payload w v;
  let span = Wire.written w - mark in
  (Wire.finish w, span)

(* [put_pc] with the payload span measured in the same pass — only App
   envelopes carry payload bytes; every other wire case is pure
   control. *)
let encode_pc pool put_payload wv =
  let w = Wire.writer pool in
  let span =
    match wv with
    | Pcbcast.Lock ->
      Wire.u8 w 0;
      0
    | Pcbcast.Env e -> (
      match e.Pcbcast.body with
      | Pcbcast.App p ->
        Wire.u8 w 1;
        put_pc_header w e;
        let mark = Wire.written w in
        put_payload w p;
        Wire.written w - mark
      | Pcbcast.Ctrl (Pcbcast.Unlock { target }) ->
        Wire.u8 w 2;
        put_pc_header w e;
        Wire.uint w target;
        0
      | Pcbcast.Ctrl (Pcbcast.Joined { node }) ->
        Wire.u8 w 3;
        put_pc_header w e;
        Wire.uint w node;
        0)
  in
  (Wire.finish w, span)

let decode dec frame =
  let r = Wire.reader frame in
  let v = dec r in
  Wire.expect_end r;
  v

(* --- shared decoded views --- *)

type 'a framed = {
  frame : Wire.frame;
  payload_bytes : int option;
      (* encoded span of the application payload within [frame]
         ([encode_split]); [None] when the producer did not measure —
         the charge then lands unsplit *)
  mutable view : 'a option;
}

let framed ?payload_bytes frame = { frame; payload_bytes; view = None }

let view fr ~dec =
  match fr.view with
  | Some v -> v
  | None ->
    let v = decode dec fr.frame in
    fr.view <- Some v;
    v
