(* Tests for the binary wire codec and the framed delivery path.

   Three layers of assurance, mirroring the module layering:

   1. Wire primitives: qcheck round-trips (decode . encode = id) for
      varints, zigzag, strings (arbitrary bytes), bools; every strict
      prefix of a valid frame raises [Corrupt] — the decoder never
      returns garbage for truncated input.

   2. Codec: round-trips for clocks, BSS envelopes and PC wire values;
      every strict prefix of one of their frames raises [Corrupt]; a
      codec hop in front of the indexed BSS engine changes nothing
      against the frozen seed oracle in [Causalb_reference].

   3. Fgroup: a framed group run is envelope-for-envelope identical to
      the plain group run for the same seed and workload — encode-once/
      decode-many is an optimisation, not a semantics change — and the
      byte accounting (Metrics.wire_bytes, Net.bytes_sent) moves by real
      frame lengths. *)

module Wire = Causalb_util.Wire
module Vc = Causalb_clock.Vector_clock
module Engine = Causalb_sim.Engine
module Latency = Causalb_sim.Latency
module Net = Causalb_net.Net
module Codec = Causalb_core.Codec
module Bss = Causalb_core.Bss
module Fgroup = Causalb_core.Fgroup
module Pcb = Causalb_core.Pcbcast
module Rbss = Causalb_reference.Bss
module Metrics = Causalb_stackbase.Metrics

let test ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let check = Alcotest.(check bool)

let check_int = Alcotest.(check int)

let pool = Wire.pool ()

let roundtrip enc dec v = Codec.decode dec (Codec.encode pool enc v)

(* --- 1. primitives --- *)

let prop_uint_roundtrip =
  test "wire: uint round-trip" QCheck2.Gen.(0 -- max_int) (fun n ->
      roundtrip Wire.uint Wire.r_uint n = n)

let prop_int_roundtrip =
  test "wire: zigzag int round-trip" QCheck2.Gen.int (fun n ->
      roundtrip Wire.int Wire.r_int n = n)

let prop_str_roundtrip =
  test "wire: string round-trip (raw bytes)"
    QCheck2.Gen.(string_size ~gen:(char_range '\000' '\255') (0 -- 64))
    (fun s -> roundtrip Wire.str Wire.r_str s = s)

let test_extremes () =
  List.iter
    (fun n -> check_int "zigzag extreme" n (roundtrip Wire.int Wire.r_int n))
    [ max_int; min_int; 0; -1; 1; min_int + 1; max_int - 1 ];
  check_int "uint max" max_int (roundtrip Wire.uint Wire.r_uint max_int);
  (* small magnitudes of either sign stay in one byte *)
  let size enc v = Wire.length (Codec.encode pool enc v) in
  check_int "zigzag -64 is 1 byte" 1 (size Wire.int (-64));
  check_int "zigzag 63 is 1 byte" 1 (size Wire.int 63);
  check_int "uint 127 is 1 byte" 1 (size Wire.uint 127);
  check "uint rejects negatives" true
    (try
       ignore (Codec.encode pool Wire.uint (-1));
       false
     with Invalid_argument _ -> true);
  check "u8 rejects 256" true
    (try
       ignore (Codec.encode pool (fun w v -> Wire.u8 w v) 256);
       false
     with Invalid_argument _ -> true)

(* Large-magnitude varints: the PC header carries member ids and
   per-origin sequence numbers as bare varints, and long-lived dynamic
   groups push both past the one-, two- and three-byte boundaries —
   ids beyond 2^21, seqs beyond 2^28 must round-trip and stay compact. *)
let prop_varint_header_magnitudes =
  test "wire: varints at PC-header magnitudes"
    QCheck2.Gen.(
      pair (0x200000 -- 0x2000000) (0x10000000 -- 0x10000000000))
    (fun (id, seq) ->
      roundtrip Wire.uint Wire.r_uint id = id
      && roundtrip Wire.uint Wire.r_uint seq = seq
      && roundtrip Wire.int Wire.r_int (-seq) = -seq)

let test_varint_magnitude_sizes () =
  let size v = Wire.length (Codec.encode pool Wire.uint v) in
  (* 7 bits per byte: the boundaries where a varint grows *)
  check_int "2^21 id is 4 bytes" 4 (size 0x200000);
  check_int "2^28 seq is 5 bytes" 5 (size 0x10000000);
  check_int "2^28 - 1 is 4 bytes" 4 (size 0xFFFFFFF);
  List.iter
    (fun v -> check_int "uint large round-trip" v
        (roundtrip Wire.uint Wire.r_uint v))
    [ 0x200000; 0x200001; 0x10000000; 0x123456789A; max_int ]

(* --- generators for protocol values --- *)

let clock_gen =
  let open QCheck2.Gen in
  int_range 1 8 >>= fun n ->
  array_size (return n) (int_range 0 1000) >|= Vc.of_array

let envelope_gen =
  let open QCheck2.Gen in
  int_range 0 7 >>= fun sender ->
  clock_gen >>= fun stamp ->
  string_size ~gen:printable (0 -- 8) >>= fun tag ->
  string_size ~gen:printable (0 -- 16) >|= fun payload ->
  { Bss.sender; stamp; tag; payload }

(* --- 2. codec round-trips --- *)

let prop_clock_roundtrip =
  test "codec: clock round-trip" clock_gen (fun v ->
      Vc.equal v (roundtrip Codec.put_clock Codec.get_clock v))

let prop_envelope_roundtrip =
  test "codec: envelope round-trip" envelope_gen (fun e ->
      let e' =
        roundtrip
          (Codec.put_envelope Codec.put_str)
          (Codec.get_envelope Codec.get_str)
          e
      in
      e'.Bss.sender = e.Bss.sender
      && Vc.equal e'.Bss.stamp e.Bss.stamp
      && e'.Bss.tag = e.Bss.tag
      && e'.Bss.payload = e.Bss.payload)

(* PC wire frames: every discriminator case, with ids and seqs at the
   magnitudes a long-lived dynamic group reaches. *)
let pc_wire_gen =
  let open QCheck2.Gen in
  let* origin = oneof [ int_range 0 7; int_range 0x200000 0x2000000 ] in
  let* seq = oneof [ int_range 0 1000; int_range 0x10000000 0x20000000 ] in
  let* tag = string_size ~gen:printable (0 -- 8) in
  let* body =
    oneof
      [
        ( string_size ~gen:(char_range '\000' '\255') (0 -- 16) >|= fun p ->
          Pcb.App p );
        (int_range 0 0x300000 >|= fun t -> Pcb.Ctrl (Pcb.Unlock { target = t }));
        (int_range 0 0x300000 >|= fun n -> Pcb.Ctrl (Pcb.Joined { node = n }));
      ]
  in
  oneofl [ Pcb.Env { Pcb.origin; seq; tag; body }; Pcb.Lock ]

let prop_pc_roundtrip =
  test "codec: pc wire round-trip" pc_wire_gen (fun w ->
      roundtrip (Codec.put_pc Codec.put_str) (Codec.get_pc Codec.get_str) w
      = w)

(* The split the metrics layer charges: an App frame's control span is
   the whole frame minus the payload bytes; control frames are all
   control.  [encode_pc] must agree with what [put_pc] writes. *)
let test_pc_encode_split () =
  let app =
    Pcb.Env { Pcb.origin = 3; seq = 9; tag = "t"; body = Pcb.App "payload" }
  in
  let frame, span = Codec.encode_pc pool Codec.put_str app in
  check "pc app payload span positive" true (span > 0);
  check "pc app span < frame" true (span < Wire.length frame);
  check "pc app decodes" true
    (Codec.decode (Codec.get_pc Codec.get_str) frame = app);
  let lock_frame, lock_span = Codec.encode_pc pool Codec.put_str Pcb.Lock in
  check_int "pc lock is all control" 0 lock_span;
  check "pc lock decodes" true
    (Codec.decode (Codec.get_pc Codec.get_str) lock_frame = Pcb.Lock);
  let ctrl =
    Pcb.Env
      { Pcb.origin = 1; seq = 0; tag = ""; body = Pcb.Ctrl (Pcb.Joined { node = 5 }) }
  in
  let _, ctrl_span = Codec.encode_pc pool Codec.put_str ctrl in
  check_int "pc ctrl is all control" 0 ctrl_span

(* --- truncation hardening --- *)

(* A decoder over a strict prefix must fail cleanly: it needed every
   byte of the full frame, so some read hits the cut and raises
   [Corrupt] — never a silent wrong value, never an unchecked crash. *)
let prop_truncated_fails =
  test "codec: every strict prefix of a frame raises Corrupt"
    QCheck2.Gen.(pair (pair envelope_gen pc_wire_gen) (pair bool (0 -- 1000)))
    (fun ((e, w), (bss, cut)) ->
      (* a BSS envelope or a PC wire value: the two live decoders *)
      let frame, decode =
        if bss then
          ( Codec.encode pool (Codec.put_envelope Codec.put_str) e,
            fun f -> ignore (Codec.decode (Codec.get_envelope Codec.get_str) f) )
        else
          ( Codec.encode pool (Codec.put_pc Codec.put_str) w,
            fun f -> ignore (Codec.decode (Codec.get_pc Codec.get_str) f) )
      in
      let n = Wire.length frame in
      QCheck2.assume (n > 0);
      match decode (Wire.prefix frame (cut mod n)) with
      | () -> false
      | exception Wire.Corrupt _ -> true)

let test_trailing_bytes () =
  let frame = Codec.encode pool Wire.uint 7 in
  let padded = Wire.of_string (Wire.to_string frame ^ "\000") in
  check "trailing bytes raise Corrupt" true
    (match Codec.decode Wire.r_uint padded with
    | _ -> false
    | exception Wire.Corrupt _ -> true);
  check "bad pc wire tag raises Corrupt" true
    (match Codec.decode (Codec.get_pc Codec.get_str) (Wire.of_string "\009") with
    | _ -> false
    | exception Wire.Corrupt _ -> true);
  check "clock of size 0 raises Corrupt" true
    (match Codec.decode Codec.get_clock (Wire.of_string "\000") with
    | _ -> false
    | exception Wire.Corrupt _ -> true)

(* A clock's component count comes off the wire before any component
   does.  Every component takes at least one byte, so a count the frame
   cannot hold must raise [Corrupt] before it sizes an allocation — not
   allocate a gigabyte, run out of memory, or trip [Array.make]. *)
let test_clock_count_guard () =
  let word = float_of_int (Sys.word_size / 8) in
  List.iter
    (fun (name, n) ->
      let frame = Codec.encode pool Wire.uint n in
      let before = Gc.allocated_bytes () in
      let raised =
        match Codec.decode Codec.get_clock frame with
        | _ -> false
        | exception Wire.Corrupt _ -> true
      in
      let words = (Gc.allocated_bytes () -. before) /. word in
      check (name ^ " raises Corrupt") true raised;
      check
        (Printf.sprintf "%s: decode allocates %.0f words" name words)
        true (words < 4096.))
    [
      ("2^27 components", 1 lsl 27);
      ("2^40 components", 1 lsl 40);
      ("2^60 components", 1 lsl 60);
    ]

(* Every decoder is total over arbitrary bytes: a value or [Corrupt],
   never another exception.  Bytes are drawn half from the full range
   and half from 0-3, so tags, bools and counts are often valid and
   decoding reaches past the first field. *)
let fuzz_decoders =
  let dec d f = ignore (Codec.decode d f) in
  [
    dec Codec.get_clock;
    dec (Codec.get_envelope Codec.get_str);
    dec (Codec.get_pc Codec.get_str);
  ]

let prop_decoders_total =
  test ~count:2000 "codec: arbitrary bytes decode or raise Corrupt"
    QCheck2.Gen.(
      string_size
        ~gen:(oneof [ char_range '\000' '\255'; char_range '\000' '\003' ])
        (0 -- 64))
    (fun s ->
      let frame = Wire.of_string s in
      List.for_all
        (fun decode ->
          match decode frame with () -> true | exception Wire.Corrupt _ -> true)
        fuzz_decoders)

(* --- shared views decode once --- *)

let test_view_memoized () =
  let e =
    {
      Bss.sender = 1;
      stamp = Vc.of_array [| 1; 2; 3 |];
      tag = "t";
      payload = "p";
    }
  in
  let fr =
    Codec.framed (Codec.encode pool (Codec.put_envelope Codec.put_str) e)
  in
  let dec = Codec.get_envelope Codec.get_str in
  let v1 = Codec.view fr ~dec in
  let v2 = Codec.view fr ~dec in
  check "second view is the first (memoized)" true (v1 == v2);
  check "view decodes the envelope" true (Vc.equal v1.Bss.stamp e.Bss.stamp)

(* --- 3. codec hop vs the frozen seed oracle --- *)

(* Same arrival sequence: raw envelopes into the reference engine,
   encode/decode-hopped envelopes into the indexed engine.  Any codec
   bug that perturbs a stamp or tag shows up as a delivered-order
   mismatch against the oracle. *)
let bss_codec_oracle_gen =
  let open QCheck2.Gen in
  int_range 2 4 >>= fun nodes ->
  list_size (0 -- 24)
    (triple (int_range 0 (nodes - 1))
       (int_range 1 6)
       (list_size (return nodes) (int_range 0 6)))
  >|= fun raw -> (nodes, raw)

let prop_codec_hop_vs_oracle =
  test "codec: encode/decode hop = oracle on the BSS engine"
    bss_codec_oracle_gen
    (fun (nodes, raw) ->
      let reference = Rbss.member ~id:0 ~group_size:nodes () in
      let record, tags = Delivery_log.create () in
      let hopped =
        Bss.member ~id:0 ~group_size:nodes
          ~deliver:(fun e -> record ~node:0 e.Bss.tag)
          ()
      in
      let enc = Codec.put_envelope Codec.put_str in
      let dec = Codec.get_envelope Codec.get_str in
      List.iteri
        (fun i (s, seq, comps) ->
          let comps = Array.of_list comps in
          comps.(s) <- seq;
          let e =
            {
              Bss.sender = s;
              stamp = Vc.of_array comps;
              tag = Printf.sprintf "%d:%d" s i;
              payload = "x";
            }
          in
          Rbss.receive reference e;
          Bss.receive hopped (Codec.decode dec (Codec.encode pool enc e)))
        raw;
      Rbss.delivered_tags reference = tags 0
      && Rbss.pending_count reference = Bss.pending_count hopped
      && Rbss.buffered_ever reference = Bss.buffered_ever hopped)

(* --- framed groups = plain groups, same seed --- *)

let lat () = Latency.lognormal ~mu:0.3 ~sigma:0.9 ()

let nodes = 4

let ops = 60

(* Schedule op [i] at time i/2 from sender [i mod nodes]; the two runs
   share nothing but the seed, so equality means the framed path made
   exactly the same RNG draws and deliveries. *)
let schedule_ops engine f =
  for i = 0 to ops - 1 do
    Engine.schedule_at engine ~time:(0.5 *. float_of_int i) (fun () -> f i)
  done;
  Engine.run engine

(* Each node's delivered tags, collected from the group's [on_deliver]. *)
let tag_logs () =
  let record, tags = Delivery_log.create () in
  ( (fun ~node ~time:_ e -> record ~node e.Bss.tag),
    fun () -> List.init nodes tags )

let bss_plain seed =
  let engine = Engine.create ~seed () in
  let net = Net.create engine ~nodes ~latency:(lat ()) () in
  let on_deliver, orders = tag_logs () in
  let g = Bss.Group.create net ~on_deliver () in
  schedule_ops engine (fun i ->
      Bss.Group.bcast g ~src:(i mod nodes) ~tag:(Printf.sprintf "t%d" i)
        (Printf.sprintf "p%d" i));
  (orders (), Net.bytes_sent net)

let bss_framed seed =
  let engine = Engine.create ~seed () in
  let net = Net.create engine ~nodes ~latency:(lat ()) () in
  let on_deliver, orders = tag_logs () in
  let g =
    Fgroup.Bss.create net ~enc:Codec.put_str ~dec:Codec.get_str ~on_deliver ()
  in
  schedule_ops engine (fun i ->
      Fgroup.Bss.bcast g ~src:(i mod nodes) ~tag:(Printf.sprintf "t%d" i)
        (Printf.sprintf "p%d" i));
  (orders (), Net.bytes_sent net, g)

let test_bss_framed_equiv () =
  List.iter
    (fun seed ->
      let plain, plain_bytes = bss_plain seed in
      let framed, framed_bytes, g = bss_framed seed in
      check "bss: framed tags = plain tags (all members)" true (plain = framed);
      List.iter
        (fun tags -> check_int "bss: everyone delivered all" ops
            (List.length tags))
        framed;
      (* plain path books the abstract default size (1/copy); framed
         books real frame lengths, which include a stamp of [nodes]
         components and can only be bigger *)
      check "bss: framed bytes are real" true (framed_bytes > plain_bytes);
      (* every copy — including each sender's self copy — is charged on
         send and again on receive, and nothing is dropped here, so the
         two sides of the wire agree exactly *)
      check_int "bss: received bytes = sent bytes"
        framed_bytes (Fgroup.Bss.wire_bytes g);
      let m = Fgroup.Bss.metrics g 0 in
      check "bss: bytes/delivery populated" true
        (Metrics.bytes_per_delivery m > 0.0))
    [ 1; 7; 42; 1337 ]

let () =
  Alcotest.run "wire"
    [
      ( "primitives",
        [
          prop_uint_roundtrip;
          prop_int_roundtrip;
          prop_str_roundtrip;
          prop_varint_header_magnitudes;
          Alcotest.test_case "extremes and rejections" `Quick test_extremes;
          Alcotest.test_case "varint magnitude boundaries" `Quick
            test_varint_magnitude_sizes;
        ] );
      ( "codec",
        [
          prop_clock_roundtrip;
          prop_envelope_roundtrip;
          prop_pc_roundtrip;
          Alcotest.test_case "pc encode split" `Quick test_pc_encode_split;
          prop_truncated_fails;
          Alcotest.test_case "trailing/corrupt frames" `Quick
            test_trailing_bytes;
          Alcotest.test_case "clock count beyond the frame" `Quick
            test_clock_count_guard;
          prop_decoders_total;
          Alcotest.test_case "shared view decodes once" `Quick
            test_view_memoized;
          prop_codec_hop_vs_oracle;
        ] );
      ( "framed groups",
        [
          Alcotest.test_case "bss framed = plain (same seed)" `Quick
            test_bss_framed_equiv;
        ] );
    ]
