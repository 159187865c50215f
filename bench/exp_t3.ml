(* T3 — agreement granularity (§3.2): the stable-point protocol agrees on
   *sets* of messages between synchronization points, not on individual
   messages.  Sweep the window size f̄ and compare, per operation: the
   number of ordering-constraint edges the protocol imposes, the forced
   waits at delivery, and how many operations each agreement point
   covers.  The per-message total order (sequencer chain) is the
   degenerate case f̄ = 0 taken to every message. *)

module Table = Causalb_util.Table
module Printer = Causalb_util.Printer
open Exp_common

let run () =
  let ops = 300 in
  let t =
    Table.create
      ~title:
        "T3: ordering constraints and waits per op vs window size fbar \
         (n=5, 300 ops)"
      ~columns:
        [
          "fbar";
          "stable points";
          "ops/agreement";
          "edges/op causal";
          "edges/op seq";
          "waits/op causal";
          "waits/op seq";
        ]
  in
  List.iter
    (fun fbar ->
      let w = { ops; spacing = 0.5; mix = Fixed_window fbar } in
      let causal = run_stack ~seed:3 ~replicas:5 Osend_stack w in
      let seq = run_stack ~seed:3 ~replicas:5 Osend_sequencer w in
      assert causal.checks_ok;
      assert seq.checks_ok;
      let per x = float_of_int x /. float_of_int (ops + 1) in
      Table.add_row t
        [
          string_of_int fbar;
          string_of_int causal.cycles;
          Printf.sprintf "%.1f"
            (float_of_int (ops + 1) /. float_of_int (max 1 causal.cycles));
          Printf.sprintf "%.2f" (per causal.edges);
          Printf.sprintf "%.2f" (per seq.edges);
          Printf.sprintf "%.2f" (per causal.buffered /. 5.0);
          Printf.sprintf "%.2f" (per seq.buffered /. 5.0);
        ])
    [ 0; 1; 5; 20; 50 ];
  Table.print t;
  Printer.line
    "Expected shape: the causal protocol keeps ~1-2 constraint edges per\n\
     op at any f̄ while each agreement point covers f̄+1 ops; the\n\
     sequencer chain forces a wait on nearly every delivery because each\n\
     message must follow its chain predecessor."
