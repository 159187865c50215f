(* The experiment registry: one declarative list of everything
   [causalb exp] can run.

   Each experiment is a list of [parts] — independently runnable units of
   work whose printed outputs, concatenated in part order, are the
   experiment's full output.  Most experiments are a single part;
   T1 (the sweep's wall-clock hog) is split per group size so the worker
   pool can spread its rows across domains.  Every part prints through
   [Causalb_util.Printer], the pool's only output capture.

   [kind] separates the byte-reproducible experiments from the
   timing-dependent ones: [Deterministic] output is a pure function of
   the code (seeds are fixed), so a parallel run must reproduce a
   sequential run byte for byte — the pool test asserts exactly that.
   [Timing] experiments (the bechamel micro-benchmarks) print measured
   durations and are excluded from byte comparison. *)

type kind = Deterministic | Timing

type part = { pname : string; prun : unit -> unit }

type experiment = {
  id : string;
  descr : string;
  kind : kind;
  parts : part list;
}

let mono id descr ?(kind = Deterministic) run =
  { id; descr; kind; parts = [ { pname = id; prun = run } ] }

let all : experiment list =
  [
    mono "figures" "F1-F5: executable reproductions of the paper's figures"
      Exp_figures.run;
    {
      id = "T1";
      descr = "latency vs group size: causal vs merge vs sequencer";
      kind = Deterministic;
      parts =
        List.map
          (fun (p, f) -> { pname = "T1:" ^ p; prun = f })
          Exp_t1.parts;
    };
    mono "T2" "latency vs commutative fraction (the f-bar=20 claim)"
      Exp_t2.run;
    mono "T3" "agreement granularity: constraints and waits per op" Exp_t3.run;
    mono "T4" "name service: app-check vs total order" Exp_t4.run;
    mono "T5" "lock arbitration scaling" Exp_t5.run;
    mono "T6" "explicit (OSend) vs inferred (BSS) causality" Exp_t6.run;
    mono "T7" "per-item vs global windows (the \xc2\xa75.1 decomposition)"
      Exp_t7.run;
    mono "T8" "causal DSM (ref [5]) vs the stable-point model" Exp_t8.run;
    mono "A1" "ablation: loss-recovery layer cost vs drop rate" Exp_a1.run;
    mono "A2" "ablation: view-change cost vs group size" Exp_a2.run;
    mono "A3" "ablation: stability GC of the repair stash" Exp_a3.run;
    mono "A4" "ablation: OR-dependency (first-response) extension" Exp_a4.run;
    mono "S1" "ordering stack: one workload over every composition"
      Exp_s1.run;
    mono "O1"
      "spec-derived objects: counter pipeline, or-set cart, rga collab edit"
      Exp_o1.run;
    mono "H1" "fault campaign: nemesis schedules over every composition"
      Exp_hunt.run;
    mono "M1" "ordering metadata: BSS O(n) stamps vs PC O(1) headers"
      Exp_m1.run;
    mono "micro" ~kind:Timing "bechamel micro-benchmarks of the hot paths"
      Micro.run;
  ]

let find id =
  List.find_opt
    (fun e -> String.lowercase_ascii e.id = String.lowercase_ascii id)
    all

let banner e = Printf.sprintf "\n######## %s — %s ########\n" e.id e.descr
