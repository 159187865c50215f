(* T6 — semantic vs incidental ordering (footnote 1, refs [3,9]): the same
   workload through the explicit-dependency OSend engine and the
   vector-clock BSS engine.  BSS treats everything a sender had delivered
   as a dependency ("incidental ordering"), so semantically concurrent
   messages get false dependencies: forced waits and delivery-delay
   inflation that grow with latency variance.

   Workload: each node alternates between extending its own causal chain
   (real dependency) and emitting an independent message (no semantic
   dependency).  OSend states exactly the chain edges; BSS infers a
   superset.  Each run composes one [Stack] over the causal layer under
   test, on a non-FIFO transport, and the table reads that layer's row
   of [Stack.metrics]. *)

module Engine = Causalb_sim.Engine
module Latency = Causalb_sim.Latency
module Stack = Causalb_stack.Stack
module Metrics = Causalb_stackbase.Metrics
module Dep = Causalb_graph.Dep
module Table = Causalb_util.Table
module Printer = Causalb_util.Printer

let nodes = 5

let ops = 250

let spacing = 0.4

(* The workload through one causal layer, returning that layer's
   metrics.  Even ops pass their sender's chain (the last chained label)
   as the dependency; OSend reads it, while Psync and BSS infer their
   own ordering and ignore it. *)
let run_causal ordering ~latency =
  let engine = Engine.create ~seed:17 () in
  let stack = Stack.compose ~ordering ~latency ~fifo:false engine ~nodes () in
  let chains = Array.make nodes Dep.null in
  for i = 0 to ops - 1 do
    let src = i mod nodes in
    Engine.schedule_at engine ~time:(float_of_int i *. spacing) (fun () ->
        if i mod 2 = 0 then
          chains.(src) <-
            Dep.after (Option.get (Stack.submit stack ~src ~dep:chains.(src) i))
        else ignore (Stack.submit stack ~src i))
  done;
  Stack.run stack;
  match Stack.metrics stack with
  | [ _transport; causal ] -> causal
  | _ -> assert false

let run () =
  let t =
    Table.create
      ~title:
        "T6: explicit (OSend) vs inferred (BSS vector clocks) causality — \
         5 nodes, 250 ops, half chained / half independent"
      ~columns:
        [
          "sigma";
          "osend p95";
          "psync p95";
          "bss p95";
          "osend waits";
          "psync waits";
          "bss waits";
          "bss/osend p95";
        ]
  in
  List.iter
    (fun sigma ->
      let latency = Latency.lognormal ~mu:0.5 ~sigma () in
      let o = run_causal Stack.Osend ~latency in
      let p = run_causal Stack.Psync ~latency in
      let b = run_causal Stack.Bss ~latency in
      let p95 (m : Metrics.t) = Exp_common.p95 m.latency in
      Table.add_row t
        [
          Printf.sprintf "%.1f" sigma;
          Exp_common.fmt (p95 o);
          Exp_common.fmt (p95 p);
          Exp_common.fmt (p95 b);
          string_of_int o.forced_waits;
          string_of_int p.forced_waits;
          string_of_int b.forced_waits;
          Printf.sprintf "%.2fx" (p95 b /. p95 o);
        ])
    [ 0.2; 0.6; 1.0; 1.4; 1.8 ];
  Table.print t;
  Printer.line
    "Expected shape: both incidental-ordering substrates (Psync\n\
     conversations and BSS vector clocks) force waits that the explicit\n\
     semantic dependencies avoid, and their tail latency inflates with\n\
     link variance; OSend only ever waits on declared chain edges.  The\n\
     footnote's point is mechanism-independent: it is *what relation* is\n\
     captured (potential vs semantic causality), not how it is encoded."
