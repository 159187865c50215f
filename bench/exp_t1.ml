(* T1 — "more asynchronism": per-operation latency of the causal
   stable-point protocol vs the two total-order realisations, sweeping the
   group size.  Paper claim (§1, §3.2, §7): anchoring agreement on stable
   points instead of per-message total order yields more asynchronism in
   the execution; the gap should widen with group size and latency
   variance.

   T1 dominates the sweep's wall clock (the timestamp driver is O(n²)
   messages, and the n=32 row alone costs more than most whole
   experiments), so it is exposed to the parallel runner as [parts]: a
   header part, one part per group size, and a tail part.  Each row part
   renders against the same fixed column widths, so the captured chunks
   concatenate to exactly the sequential table — run order, not run
   placement, determines the bytes. *)

module Table = Causalb_util.Table
module Printer = Causalb_util.Printer
module Stats = Causalb_util.Stats
module Latency = Causalb_sim.Latency
open Exp_common

let workload = { ops = 300; spacing = 0.5; mix = Random 0.9 }

let sizes = [ 3; 5; 8; 12; 16; 24; 32 ]

let columns =
  [
    "n";
    "causal p50";
    "causal p95";
    "merge p50";
    "merge p95";
    "seq p50";
    "seq p95";
    "tstamp p50";
    "tstamp p95";
    "causal msgs";
    "tstamp msgs";
  ]

(* Fixed widths: wide enough for any cell every part can produce, so the
   parts line up without seeing each other's data. *)
let widths = List.map (fun h -> max (String.length h) 8) columns

let make_table () =
  let t =
    Table.create
      ~title:
        "T1: delivery latency (ms) vs group size — causal stable-point vs \
         ASend merge vs sequencer (90% commutative, lognormal LAN)"
      ~columns
  in
  Table.set_widths t widths;
  t

let head () = Printer.string (Table.render_header (make_table ()))

let row n =
  let t = make_table () in
  let run spec = run_stack ~seed:1 ~replicas:n spec workload in
  let causal = run Osend_stack in
  let merge = run Osend_merge in
  let seq = run Osend_sequencer in
  let tstamp = run_timestamp ~seed:1 ~replicas:n workload in
  assert causal.checks_ok;
  assert merge.checks_ok;
  assert seq.checks_ok;
  assert tstamp.checks_ok;
  Table.add_row t
    [
      string_of_int n;
      fmt (p50 causal.delivery);
      fmt (p95 causal.delivery);
      fmt (p50 merge.delivery);
      fmt (p95 merge.delivery);
      fmt (p50 seq.delivery);
      fmt (p95 seq.delivery);
      fmt (p50 tstamp.delivery);
      fmt (p95 tstamp.delivery);
      string_of_int causal.messages;
      string_of_int tstamp.messages;
    ];
  Printer.string (Table.render_data_rows t)

let tail () =
  Printer.string (Table.render_footer (make_table ()));
  Printer.newline ();
  Printer.line
    "Expected shape: the causal stable-point path is fastest at every n —\n\
     it processes immediately and only agrees at sync points.  Both total\n\
     orders are slower: the sequencer pays an extra hop plus\n\
     serialisation; the merge layer sends nothing extra but holds each\n\
     message until its bracket closes, so with long windows its\n\
     per-message latency is the window residence time.";

  (* variance sweep at fixed n: causal delivery is insensitive, total
     orders degrade with tail latency *)
  let t2 =
    Table.create
      ~title:"T1b: latency vs link variance (n=8, lognormal sigma sweep)"
      ~columns:[ "sigma"; "causal p95"; "merge p95"; "seq p95" ]
  in
  List.iter
    (fun sigma ->
      let latency = Latency.lognormal ~mu:0.5 ~sigma () in
      let run spec = run_stack ~seed:2 ~latency ~replicas:8 spec workload in
      let causal = run Osend_stack in
      let merge = run Osend_merge in
      let seq = run Osend_sequencer in
      Table.add_row t2
        [
          Printf.sprintf "%.1f" sigma;
          fmt (p95 causal.delivery);
          fmt (p95 merge.delivery);
          fmt (p95 seq.delivery);
        ])
    [ 0.2; 0.6; 1.0; 1.4 ];
  Table.print t2;
  ignore (Stats.count : Stats.t -> int)

let parts : (string * (unit -> unit)) list =
  (("head", head)
  :: List.map (fun n -> (Printf.sprintf "n=%d" n, fun () -> row n)) sizes)
  @ [ ("tail", tail) ]

let run () = List.iter (fun (_, f) -> f ()) parts
