(* M1 — ordering metadata per member count: BSS's O(n) vector stamp
   against PC-broadcast's O(1) header (Nédelec/Molli/Mostéfaoui).

   Every column is a byte or copy count, so the table is a pure function
   of the code and runs take no timings (the timed hot paths are
   perfbench's workloads and the [micro] experiment).

   - headers: the control span one member's k-th message carries,
     encoded by the same [Codec] headers the framed groups put on the
     wire.  Sequence numbers are varints, so k moves the PC bytes;
     k = max 16 (min 256 (2^21 / n)) keeps the rows comparable with the
     member rows of the committed BENCH_PR10.json snapshot.
   - groups: whole framed groups through the simulated transport —
     full-mesh [Fgroup.Bss] against [Fgroup.Pc] flooding a degree-8
     overlay, FIFO links, 4 broadcasts from rotating origins — with the
     control bytes the metrics layer charges per received copy and the
     transport's copies, both per delivered message.
   - codec: the average binary frame of a BSS envelope with a 5-entry
     stamp and a string payload, over the first n envelopes (one per
     message) and the first n/8 (one per broadcast to 8 members). *)

module Vc = Causalb_clock.Vector_clock
module Engine = Causalb_sim.Engine
module Net = Causalb_net.Net
module Bss = Causalb_core.Bss
module Pcb = Causalb_core.Pcbcast
module Codec = Causalb_core.Codec
module Fgroup = Causalb_core.Fgroup
module Metrics = Causalb_stackbase.Metrics
module Wire = Causalb_util.Wire
module Table = Causalb_util.Table
module Printer = Causalb_util.Printer

let ratio ?(digits = 2) a b =
  Table.fmt_float ~digits (float_of_int a /. float_of_int b)

let header_row pool n =
  let k = max 16 (min 256 (2_097_152 / n)) in
  let bss =
    {
      Bss.sender = 1;
      stamp = Vc.of_array (Array.init n (fun j -> if j = 1 then k else 0));
      tag = "";
      payload = 0;
    }
  in
  let sender = Pcb.member ~id:1 ~send:(fun ~dst:_ _ -> ()) () in
  for _ = 2 to k do
    ignore (Pcb.next_envelope sender 0)
  done;
  let pc, _ = Pcb.next_envelope sender 0 in
  let bytes enc e = Wire.length (Codec.encode pool enc e) in
  [
    string_of_int n;
    string_of_int k;
    string_of_int (bytes Codec.put_envelope_header bss);
    string_of_int (bytes Codec.put_pc_header pc);
  ]

let rounds = 4

let group_run n ~create ~bcast ~metrics =
  let e = Engine.create ~seed:11 () in
  let net = Net.create e ~nodes:n ~fifo:true () in
  let g = create net in
  for r = 0 to rounds - 1 do
    bcast g ~src:(r mod n) r;
    Engine.run e
  done;
  let m = Metrics.combine ~name:"group" (List.init n (metrics g)) in
  ( Table.fmt_float ~digits:2 (Metrics.control_bytes_per_delivery m),
    ratio (Net.messages_sent net) m.Metrics.delivered )

let group_row n =
  let enc = Codec.put_int and dec = Codec.get_int in
  let bss_ctrl, bss_copies =
    group_run n
      ~create:(fun net -> Fgroup.Bss.create net ~enc ~dec ())
      ~bcast:(fun g ~src r -> Fgroup.Bss.bcast g ~src r)
      ~metrics:Fgroup.Bss.metrics
  in
  let pc_ctrl, pc_copies =
    group_run n
      ~create:(fun net -> Fgroup.Pc.create ~degree:8 net ~enc ~dec ())
      ~bcast:(fun g ~src r -> ignore (Fgroup.Pc.bcast g ~src r))
      ~metrics:Fgroup.Pc.metrics
  in
  [ string_of_int n; bss_ctrl; pc_ctrl; bss_copies; pc_copies ]

let codec_env i : string Bss.envelope =
  {
    Bss.sender = i mod 8;
    stamp = Vc.of_array [| i; i * 2 mod 97; 3; i mod 5; i mod 11 |];
    tag = (if i mod 3 = 0 then "t" ^ string_of_int i else "");
    payload = "payload-" ^ string_of_int (i mod 100);
  }

let codec_row pool ~shape n envelopes =
  let enc = Codec.put_envelope Codec.put_str in
  let total = ref 0 in
  for i = 0 to envelopes - 1 do
    total := !total + Wire.length (Codec.encode pool enc (codec_env i))
  done;
  [
    shape;
    string_of_int n;
    string_of_int envelopes;
    string_of_int !total;
    ratio ~digits:1 !total envelopes;
  ]

let run () =
  let pool = Wire.pool () in
  let headers =
    Table.create
      ~title:"M1 headers: control bytes of one member's k-th message"
      ~columns:[ "members"; "k"; "bss B"; "pc B" ]
  in
  List.iter
    (fun n -> Table.add_row headers (header_row pool n))
    [ 1_024; 10_240; 102_400 ];
  let groups =
    Table.create
      ~title:
        (Printf.sprintf
           "M1 groups: bss full mesh vs pc degree-8 overlay, %d broadcasts, \
            per delivery"
           rounds)
      ~columns:
        [ "members"; "bss ctrl B"; "pc ctrl B"; "bss copies"; "pc copies" ]
  in
  List.iter
    (fun n -> Table.add_row groups (group_row n))
    [ 16; 64; 256; 1_024 ];
  let codec =
    Table.create ~title:"M1 codec: binary frame bytes per bss envelope"
      ~columns:[ "shape"; "n"; "envelopes"; "frame B"; "B/envelope" ]
  in
  List.iter
    (fun (shape, per) ->
      List.iter
        (fun n -> Table.add_row codec (codec_row pool ~shape n (n / per)))
        [ 64; 512; 4096 ])
    [ ("wire.codec", 1); ("wire.fanout", 8) ];
  Table.print headers;
  Table.print groups;
  Table.print codec;
  Printer.line
    "Expected shape: the bss header grows with the member count (one\n\
     stamp entry per member) while the pc header stays a few bytes; in\n\
     whole groups pc's control bytes level off near 31 B, and it pays\n\
     instead in flooded copies, about 7.9 per delivery on the degree-8\n\
     overlay against bss's one."
