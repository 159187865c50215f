(* Binary wire codec primitives.  See wire.mli for the discipline; the
   implementation notes here are about allocation:

   - a [writer] appends into a Bytes scratch borrowed from its pool and
     grown by doubling, so a steady-state encode loop allocates only the
     final frame (one [Bytes.sub_string]);
   - a [frame] is a string: immutable, shareable, and free to alias
     across every recipient of a broadcast;
   - a [reader] is a 2-word cursor; decode never copies except for
     [r_str]'s payload bytes.

   Varints are LEB128: 7 value bits per byte, high bit = continuation.
   OCaml ints are 63-bit, so a varint is at most 9 bytes; the decoder
   rejects longer (or overflowing) sequences as corrupt rather than
   silently wrapping. *)

type frame = string

type writer = {
  mutable scratch : Bytes.t;
  mutable len : int;
  mutable open_ : bool;
  home : pool;
}

and pool = { mutable free : Bytes.t list }

type reader = { src : string; mutable pos : int }

exception Corrupt of string

let corrupt fmt = Printf.ksprintf (fun m -> raise (Corrupt m)) fmt

let pool () = { free = [] }

let writer p =
  let scratch =
    match p.free with
    | b :: rest ->
      p.free <- rest;
      b
    | [] -> Bytes.create 256
  in
  { scratch; len = 0; open_ = true; home = p }

let check_open w op =
  if not w.open_ then invalid_arg ("Wire." ^ op ^ ": writer already finished")

let reserve w extra =
  let need = w.len + extra in
  if need > Bytes.length w.scratch then begin
    let cap = ref (max 8 (Bytes.length w.scratch)) in
    while !cap < need do
      cap := 2 * !cap
    done;
    let bigger = Bytes.create !cap in
    Bytes.blit w.scratch 0 bigger 0 w.len;
    w.scratch <- bigger
  end

let u8 w v =
  check_open w "u8";
  if v < 0 || v > 0xff then invalid_arg "Wire.u8: value out of byte range";
  reserve w 1;
  Bytes.unsafe_set w.scratch w.len (Char.unsafe_chr v);
  w.len <- w.len + 1

(* LEB128 of [v]'s 63-bit pattern taken as unsigned ([lsr], not [asr]),
   so zigzagged values with the top bit set — the encodings of large
   negatives — loop to termination like any other. *)
let uleb w v =
  reserve w 9;
  let n = ref v in
  let continue_ = ref true in
  while !continue_ do
    let b = !n land 0x7f in
    n := !n lsr 7;
    if !n = 0 then begin
      Bytes.unsafe_set w.scratch w.len (Char.unsafe_chr b);
      w.len <- w.len + 1;
      continue_ := false
    end
    else begin
      Bytes.unsafe_set w.scratch w.len (Char.unsafe_chr (b lor 0x80));
      w.len <- w.len + 1
    end
  done

let uint w v =
  check_open w "uint";
  if v < 0 then invalid_arg "Wire.uint: negative value";
  uleb w v

(* Zigzag maps ..,-2,-1,0,1,2,.. to 3,1,0,2,4,.. so small magnitudes of
   either sign encode in one byte.  The result is an unsigned 63-bit
   pattern (for [min_int] it has all bits set), hence [uleb]. *)
let int w v =
  check_open w "int";
  uleb w ((v lsl 1) lxor (v asr 62))

let str w s =
  check_open w "str";
  uint w (String.length s);
  reserve w (String.length s);
  Bytes.blit_string s 0 w.scratch w.len (String.length s);
  w.len <- w.len + String.length s

let written w =
  check_open w "written";
  w.len

let finish w =
  check_open w "finish";
  w.open_ <- false;
  let f = Bytes.sub_string w.scratch 0 w.len in
  w.home.free <- w.scratch :: w.home.free;
  f

let length = String.length

let reader f = { src = f; pos = 0 }

let remaining r = String.length r.src - r.pos

let r_u8 r =
  if r.pos >= String.length r.src then corrupt "truncated at offset %d" r.pos;
  let v = Char.code (String.unsafe_get r.src r.pos) in
  r.pos <- r.pos + 1;
  v

(* Inverse of [uleb]: at most 9 bytes (63 bits / 7); the 9th byte's
   payload lands in bits 56–62, so the full int range reconstructs and a
   10th continuation byte is corrupt, not wraparound. *)
let r_uleb r =
  let v = ref 0 and shift = ref 0 and continue_ = ref true in
  while !continue_ do
    if !shift >= 63 then corrupt "varint overflow at offset %d" r.pos;
    let b = r_u8 r in
    v := !v lor ((b land 0x7f) lsl !shift);
    shift := !shift + 7;
    if b land 0x80 = 0 then continue_ := false
  done;
  !v

let r_uint r =
  let v = r_uleb r in
  if v < 0 then corrupt "varint overflow at offset %d" r.pos;
  v

let r_int r =
  let u = r_uleb r in
  (u lsr 1) lxor (-(u land 1))

let r_str r =
  let n = r_uint r in
  if remaining r < n then
    corrupt "truncated string (%d of %d bytes) at offset %d" (remaining r) n
      r.pos;
  let s = String.sub r.src r.pos n in
  r.pos <- r.pos + n;
  s

let expect_end r =
  if remaining r > 0 then
    corrupt "%d trailing byte(s) after frame payload" (remaining r)

let to_string f = f

let of_string s = s

let prefix f n =
  if n > String.length f then invalid_arg "Wire.prefix: longer than frame";
  String.sub f 0 n
