(* SplitMix64 (Steele, Lea & Flood 2014): tiny state, good statistical
   quality, and a principled [split] — exactly what deterministic
   simulation needs.

   The 64-bit state lives unboxed in 8 bytes, read and written through
   the raw bytes primitives: an [int64] in a mutable field would be a
   fresh boxed value on every update.  The arithmetic stays inside this
   module — dev builds compile with [-opaque], so no caller can inline
   a draw, and an [int64] or [float] returned across modules is boxed.
   Within it, [@inline] carries the value unboxed from state to result:
   [int], [bits53], [bool] and [bernoulli] allocate nothing, and [float]
   only its boxed result.  The delay distributions live in
   [Causalb_sim.Latency], which draws [bits53] (an immediate) and does
   its float arithmetic there. *)
type t = bytes

external get_state : bytes -> int -> int64 = "%caml_bytes_get64u"
external set_state : bytes -> int -> int64 -> unit = "%caml_bytes_set64u"

let golden_gamma = 0x9E3779B97F4A7C15L

let[@inline] mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let of_state s =
  let t = Bytes.create 8 in
  set_state t 0 s;
  t

let create seed = of_state (mix64 (Int64.of_int seed))

let[@inline] next t =
  let s = Int64.add (get_state t 0) golden_gamma in
  set_state t 0 s;
  mix64 s

let split t = of_state (next t)

let copy t = Bytes.copy t

let int64 t = next t

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Keep 62 bits so the value fits OCaml's 63-bit native int without
     wrapping negative.  Rejection-free modulo is fine for simulation
     purposes: bias is < bound / 2^62, negligible for the bounds used
     here. *)
  let v = Int64.to_int (Int64.shift_right_logical (next t) 2) in
  v mod bound

let[@inline] bits53 t = Int64.to_int (Int64.shift_right_logical (next t) 11)

let[@inline] float t bound =
  (* 53 high bits -> uniform double in [0,1). *)
  bound *. (float_of_int (bits53 t) /. 9007199254740992.0)

let bool t = Int64.logand (next t) 1L = 1L

let bernoulli t p = float t 1.0 < p

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let pick t a =
  if Array.length a = 0 then invalid_arg "Rng.pick: empty array";
  a.(int t (Array.length a))

let pick_list t l = pick t (Array.of_list l)
