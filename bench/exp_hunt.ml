(* H1 — the fault campaign as a registered experiment: a fixed 28-case
   hunt (4 per composition) run in-process, reported as one table.

   Campaign cases and verdicts are pure functions of the base seed, so
   the table is byte-reproducible and participates in the sweep's
   parallel-equals-sequential byte check.  Cases run sequentially here:
   the experiment is itself one task of the sweep pool, and a nested
   pool inside a worker domain would spawn more domains than [-j]
   granted. *)

module C = Causalb_harness.Campaign
module D = Causalb_harness.Drivers
module Table = Causalb_util.Table
module Printer = Causalb_util.Printer

let seeds = 28

let run () =
  let cases = C.generate ~base_seed:2026 ~seeds () in
  let verdicts = List.map (fun c -> C.run_case c) cases in
  let t =
    Table.create
      ~title:
        (Printf.sprintf
           "H1: fault campaign — %d cases over every composition" seeds)
      ~columns:
        [ "case"; "spec"; "n"; "ops"; "nemesis"; "lost"; "msgs"; "verdict" ]
  in
  List.iter
    (fun (v : C.verdict) ->
      let c = v.C.case in
      Table.add_row t
        [
          c.C.name;
          D.stack_spec_name c.C.spec;
          string_of_int c.C.replicas;
          string_of_int c.C.workload.D.ops;
          (match c.C.nemesis with
          | [] -> "quiet"
          | es -> Printf.sprintf "%d events" (List.length es));
          string_of_int v.C.lost;
          string_of_int v.C.messages;
          (if v.C.ok then "ok" else "VIOLATION");
        ])
    verdicts;
  Table.print t;
  let failures = List.filter (fun v -> not v.C.ok) verdicts in
  let lossy = List.filter (fun v -> v.C.lost > 0) verdicts in
  Printer.line
    (Printf.sprintf
       "campaign verdict: %d/%d clean (%d ran under loss on the wire)"
       (List.length verdicts - List.length failures)
       (List.length verdicts) (List.length lossy));
  Printer.line
    "Expected shape: every case clean — under loss the oracle restricts\n\
     itself to the safety properties (causal/FIFO order of what WAS\n\
     delivered, stable-point digests), which the engines must uphold\n\
     through partitions, drops, duplication and jitter."
