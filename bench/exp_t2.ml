(* T2 — the commutativity dividend (§6.1): "typically 90% of the
   operations are commutative (e.g., as in many database applications).
   Thus, for example, f̄ = 20."  Sweep the commutative fraction and
   compare the stable-point protocol's per-op latency against the
   sequencer, which cannot exploit commutativity.  The benefit should grow
   with the commutative fraction. *)

module Table = Causalb_util.Table
module Printer = Causalb_util.Printer
module Stats = Causalb_util.Stats
open Exp_common

let run () =
  let t =
    Table.create
      ~title:
        "T2: latency vs commutative fraction p (n=5, 400 ops) — causal \
         applies commutative ops immediately; sequencer serialises all"
      ~columns:
        [
          "p";
          "~fbar";
          "cycles";
          "causal apply p50";
          "causal stable p50";
          "seq p50";
          "speedup (seq/causal)";
        ]
  in
  List.iter
    (fun p ->
      let w = { ops = 400; spacing = 0.5; mix = Random p } in
      let causal = run_stack ~seed:7 ~replicas:5 Osend_stack w in
      let seq = run_stack ~seed:7 ~replicas:5 Osend_sequencer w in
      assert causal.checks_ok;
      let fbar =
        if p >= 1.0 then infinity else p /. (1.0 -. p)
      in
      Table.add_row t
        [
          Printf.sprintf "%.2f" p;
          (if Float.is_integer fbar then Printf.sprintf "%.0f" fbar
           else Printf.sprintf "%.1f" fbar);
          string_of_int causal.cycles;
          fmt (p50 causal.delivery);
          fmt (p50 causal.stability);
          fmt (p50 seq.delivery);
          Printf.sprintf "%.2fx" (p50 seq.delivery /. p50 causal.delivery);
        ])
    [ 0.0; 0.5; 0.8; 0.9; 0.95; 0.99 ];
  Table.print t;
  Printer.line
    "Expected shape: the apply-latency speedup over the sequencer holds\n\
     across the sweep, and the paper's operating point (p=0.9, f̄≈20-ish\n\
     windows) gets the benefit on 90% of operations.  Stability latency\n\
     (time to the enclosing stable point) grows with p — the price of\n\
     deferring agreement, paid only by readers."
