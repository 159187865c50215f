(* The fault campaign and determinism under faults.

   Two layers of guarantees:
   - same-seed replays under a nemesis schedule (partition/heal plus a
     loss/dup/jitter phase) are byte-identical and oracle-clean for
     every shipped composition and for the framed BSS group — faults
     never make a run less reproducible;
   - the campaign machinery itself is deterministic (generation, case
     verdicts, parallel sweeps) and its planted-bug self-test finds and
     shrinks a known violation. *)

module Engine = Causalb_sim.Engine
module Latency = Causalb_sim.Latency
module Trace = Causalb_sim.Trace
module Net = Causalb_net.Net
module Fault = Causalb_net.Fault
module Nemesis = Causalb_net.Nemesis
module Bss = Causalb_core.Bss
module Fgroup = Causalb_core.Fgroup
module Codec = Causalb_core.Codec
module D = Causalb_harness.Drivers
module C = Causalb_harness.Campaign

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

(* --- same-seed determinism under faults: the stack driver ----------- *)

(* One partition/heal pair and one injected-fault phase, spanning the
   middle of a ~20ms workload. *)
let nemesis_schedule =
  [
    { Nemesis.at = 3.0; action = Nemesis.Partition [ [ 0 ]; [ 1; 2 ] ] };
    { Nemesis.at = 8.0; action = Nemesis.Heal };
    {
      Nemesis.at = 12.0;
      action =
        Nemesis.Set_fault
          (Fault.make ~drop_prob:0.3 ~dup_prob:0.2 ~jitter:2.0 ());
    };
    { Nemesis.at = 18.0; action = Nemesis.Set_fault Fault.none };
  ]

let workload = { D.ops = 40; spacing = 0.5; mix = D.Fixed_window 3 }

let all_specs =
  [
    D.Fifo_only;
    D.Bss_stack;
    D.Psync_stack;
    D.Osend_stack;
    D.Osend_merge;
    D.Osend_counted 4; (* aligned: window 3 closes each count-4 batch *)
    D.Osend_sequencer;
  ]

let render tr = Format.asprintf "%a" Trace.pp tr

let faulted_run spec =
  let r =
    D.run_stack ~seed:2026 ~check:true ~nemesis:nemesis_schedule ~replicas:3
      spec workload
  in
  let a = Option.get r.D.audit in
  (render a.D.trace, a.D.diagnostics, r.D.lost, r.D.checks_ok)

let test_stack_replay_identical () =
  List.iter
    (fun spec ->
      let name = D.stack_spec_name spec in
      let t1, d1, lost1, ok1 = faulted_run spec in
      let t2, _, lost2, _ = faulted_run spec in
      check_str (name ^ ": replayed trace byte-identical") t1 t2;
      check_int (name ^ ": replayed loss identical") lost1 lost2;
      check (name ^ ": nemesis removed copies") true (lost1 > 0);
      check (name ^ ": oracle clean under faults") true (d1 = []);
      check (name ^ ": checks pass (restricted to safety)") true ok1)
    all_specs

(* The rendered faulted trace of every composition, pinned byte for byte
   by digest.  Between them the runs record broadcast sends, unicast
   "dst=" sends (PC's flood), "from=" receives, and partition and loss
   drops, so any change to how the transport or a layer renders a record
   shows here. *)
let pinned_trace_digests =
  [
    (D.Fifo_only, "62a4c49605e876889c8e7ff31a79bdbf");
    (D.Bss_stack, "90e10cdd01d2bb4a93eca404775569ac");
    (D.Psync_stack, "9d9dbd6cd2cd8fb8f28395e22f8baea0");
    (D.Osend_stack, "d55475942e8e93e43830fb1f3d769bb4");
    (D.Osend_merge, "bb1254daad473719cbddb07fa2d01f8d");
    (D.Osend_counted 4, "b9e21ac71605aef73417699c29821e98");
    (D.Osend_sequencer, "357f3bf83ae142419316182c3f82da15");
    (D.Pc_stack, "004368374db63dd0e0ab8ec9cad1a05a");
  ]

let test_stack_traces_pinned () =
  List.iter
    (fun (spec, digest) ->
      let trace, _, _, _ = faulted_run spec in
      check_str
        (D.stack_spec_name spec ^ ": rendered trace digest")
        digest
        (Digest.to_hex (Digest.string trace)))
    pinned_trace_digests

(* --- same-seed determinism under faults: the framed group ------------ *)

(* The framed BSS group does not ride the stack driver, so it gets its
   own replay harness: a traced net with the nemesis installed directly
   ([Nemesis.install_net]), plus the plain sibling group run under the
   identical seed and schedule — [Net.bcast] makes exactly the draws
   [Net.broadcast] makes, so delivered tags must agree even mid-fault. *)

let nodes = 3

let ops = 40

let schedule_ops engine f =
  for i = 0 to ops - 1 do
    Engine.schedule_at engine ~time:(0.5 *. float_of_int i) (fun () -> f i)
  done;
  Engine.run engine

let traced_net seed =
  let engine = Engine.create ~seed () in
  let trace = Trace.create () in
  let net = Net.create engine ~nodes ~latency:Latency.lan ~trace () in
  Nemesis.install_net net nemesis_schedule;
  (engine, net, trace)

(* Each node's delivered tags, collected from the group's [on_deliver]. *)
let tag_logs () =
  let record, tags = Delivery_log.create () in
  ( (fun ~node ~time:_ e -> record ~node e.Bss.tag),
    fun () -> List.init nodes tags )

let bss_framed seed =
  let engine, net, trace = traced_net seed in
  let on_deliver, orders = tag_logs () in
  let g =
    Fgroup.Bss.create net ~enc:Codec.put_str ~dec:Codec.get_str ~on_deliver ()
  in
  schedule_ops engine (fun i ->
      Fgroup.Bss.bcast g ~src:(i mod nodes) ~tag:(Printf.sprintf "t%d" i)
        (Printf.sprintf "p%d" i));
  (render trace, orders ())

let bss_plain seed =
  let engine, net, _ = traced_net seed in
  let on_deliver, orders = tag_logs () in
  let g = Bss.Group.create net ~on_deliver () in
  schedule_ops engine (fun i ->
      Bss.Group.bcast g ~src:(i mod nodes) ~tag:(Printf.sprintf "t%d" i)
        (Printf.sprintf "p%d" i));
  orders ()

let test_framed_replay_identical () =
  List.iter
    (fun seed ->
      let t1, o1 = bss_framed seed in
      let t2, o2 = bss_framed seed in
      check_str "bss framed: replayed trace identical" t1 t2;
      check "bss framed: replayed orders identical" true (o1 = o2))
    [ 11; 2026 ]

let test_framed_equals_plain_under_faults () =
  List.iter
    (fun seed ->
      let _, framed = bss_framed seed in
      check "bss framed = plain under nemesis" true (framed = bss_plain seed))
    [ 11; 2026 ]

(* --- the campaign machinery ----------------------------------------- *)

let test_generation_deterministic () =
  let a = C.generate ~base_seed:7 ~seeds:21 () in
  let b = C.generate ~base_seed:7 ~seeds:21 () in
  check "equal case lists" true (a = b);
  let specs =
    List.sort_uniq compare
      (List.map (fun c -> D.stack_spec_name c.C.spec) a)
  in
  check_int "all 8 compositions covered" 8 (List.length specs);
  let c = C.generate ~base_seed:8 ~seeds:21 () in
  check "base seed changes the cases" true (a <> c)

let test_churn_generation () =
  let cases = C.generate ~base_seed:7 ~churn:true ~seeds:6 () in
  check "churn pins the composition to pc" true
    (List.for_all (fun c -> c.C.spec = D.Pc_stack) cases);
  check "every churn case has membership events" true
    (List.for_all
       (fun c -> Causalb_net.Nemesis.has_churn c.C.nemesis)
       cases);
  (* churn cases replay identically and the generated guards keep every
     schedule well-formed: all clean on a healthy protocol *)
  List.iter
    (fun case ->
      let v1 = C.run_case case and v2 = C.run_case case in
      check "churn verdict replays identically" true (v1 = v2);
      check ("clean churn case passes: " ^ C.describe case) true v1.C.ok)
    cases

let test_run_case_deterministic () =
  List.iter
    (fun case ->
      let v1 = C.run_case case and v2 = C.run_case case in
      check "verdict replays identically" true (v1 = v2);
      check ("clean case passes: " ^ C.describe case) true v1.C.ok)
    (C.generate ~base_seed:3 ~seeds:7 ())

let test_parallel_verdicts_equal_sequential () =
  let r1 = C.run ~jobs:1 ~base_seed:5 ~seeds:8 () in
  let r2 = C.run ~jobs:3 ~base_seed:5 ~seeds:8 () in
  check "j3 verdicts = j1 verdicts" true (r1.C.verdicts = r2.C.verdicts);
  check "no failures either way" true
    (C.failures r1 = [] && C.failures r2 = [])

let test_planted_bug_found_and_shrunk () =
  (* the full self-test: plant, detect, shrink on both axes, replay *)
  check "self-test" true (C.self_test ~base_seed:42 ~log:(fun _ -> ()) ())

let test_shrink_is_minimal_and_failing () =
  (* Shrinking a planted failure must return a case that still fails
     under the same plant, with a 1-minimal nemesis schedule. *)
  let cases = C.generate ~base_seed:42 ~min_phases:1 ~seeds:7 () in
  let failing =
    List.find (fun c -> not (C.run_case ~plant:true c).C.ok) cases
  in
  let minimal, attempts = C.shrink ~plant:true failing in
  check "shrunk case still fails" true
    (not (C.run_case ~plant:true minimal).C.ok);
  check "shrinking spent runs" true (attempts > 0);
  check "ops shrank" true
    (minimal.C.workload.D.ops <= failing.C.workload.D.ops);
  (* 1-minimality: removing any surviving nemesis event makes it pass
     or is indistinguishable — the shrinker already re-verified each
     removal, so just assert the schedule is no longer than the input *)
  check "nemesis did not grow" true
    (List.length minimal.C.nemesis <= List.length failing.C.nemesis)

(* --- exactly-once delivery: the FIFO/BSS duplicate release --------- *)

(* Two lossless cases of the seed-42 4096-case campaign in which a
   member used to deliver one message twice: two parked copies of one
   (sender, seq) were both ready at the start of a wakeup generation and
   both released.  Only [checks_ok]'s same-set check noticed, when it
   noticed at all; now the release re-checks the cursor, and the oracle
   names a second delivery as [duplicate]. *)
let test_duplicate_release_cases () =
  let cases = Array.of_list (C.generate ~base_seed:42 ~seeds:4096 ()) in
  let clean case =
    let v = C.run_case case in
    check_int (case.C.name ^ " is lossless") 0 v.C.lost;
    check ("exactly once: " ^ C.describe case) true v.C.ok
  in
  let fifo = cases.(488) and bss = cases.(3489) in
  check_str "hunt-488 runs fifo" "fifo" (D.stack_spec_name fifo.C.spec);
  check_str "hunt-3489 runs bss" "bss" (D.stack_spec_name bss.C.spec);
  clean fifo;
  clean bss;
  (* hunt-488's shrunk repro: node 0 delivered op4 twice *)
  clean { fifo with C.workload = { fifo.C.workload with D.ops = 4 } }

(* --- the intent equals what the run submits ----------------------------- *)

module Stack = Causalb_stack.Stack
module Message = Causalb_core.Message
module Label = Causalb_graph.Label
module Dep = Causalb_graph.Dep
module Depgraph = Causalb_graph.Depgraph
module Window = Causalb_data.Window
module Op = Causalb_data.Op
module Dt = Causalb_data.Datatypes
module W = Causalb_analysis.Workload

(* The graph an audited [D.run_stack] used to build while it ran, before
   the pre-execution intent took its place: each label [Stack.submit]
   returned, added with the predicate it was submitted with.  Written out
   as [D.run_stack] ran it: same engine prelude, nemesis, schedule and §6.1
   window bookkeeping. *)
let submitted_graph (c : C.case) =
  let is_sync = function
    | Dt.Int_register.Read | Dt.Int_register.Set _ -> true
    | Dt.Int_register.Inc _ | Dt.Int_register.Dec _ -> false
  in
  let ordering, total =
    match c.C.spec with
    | D.Fifo_only -> (Stack.Fifo, Stack.Pass)
    | D.Bss_stack -> (Stack.Bss, Stack.Pass)
    | D.Psync_stack -> (Stack.Psync, Stack.Pass)
    | D.Osend_stack -> (Stack.Osend, Stack.Pass)
    | D.Osend_merge -> (Stack.Osend, Stack.Merge (fun m -> is_sync (Message.payload m)))
    | D.Osend_counted n -> (Stack.Osend, Stack.Counted n)
    | D.Osend_sequencer -> (Stack.Osend, Stack.Sequencer { node = 0 })
    | D.Pc_stack -> (Stack.Pc, Stack.Pass)
  in
  let engine = Engine.create ~seed:c.C.seed () in
  let stack =
    Stack.compose ~ordering ~total ~latency:D.default_latency
      ~fifo:(D.transport_fifo_of c.C.spec) ~trace:(Trace.create ())
      engine ~nodes:c.C.replicas ()
  in
  let win = Window.create () in
  let g = Depgraph.create () in
  let ops = D.op_sequence (Engine.fork_rng engine) c.C.workload in
  Stack.install_nemesis stack c.C.nemesis;
  List.iteri
    (fun i op ->
      Engine.schedule_at engine
        ~time:(float_of_int i *. c.C.workload.D.spacing)
        (fun () ->
          let kind = if is_sync op then Op.Non_commutative else Op.Commutative in
          let dep = Dep.after_all (Window.deps_for win ~kind ~fallback:[]) in
          match
            Stack.submit stack ~src:(i mod c.C.replicas)
              ~name:(Printf.sprintf "op%d" i) ~dep op
          with
          | None -> ()
          | Some label ->
            Depgraph.add g label ~dep;
            Window.note win ~kind label))
    ops;
  Stack.run stack;
  (ops, g)

(* Label for label (name, origin, seq) and predicate for predicate, in
   order — except under the sequencer, whose submissions return no
   label, so the run itself built an empty graph. *)
let test_intent_equals_submitted () =
  let render g =
    List.map
      (fun l ->
        Format.asprintf "%s/%d/%d %a" (Label.name l) (Label.origin l)
          (Label.seq l) Dep.pp (Depgraph.dep_of g l))
      (Depgraph.labels g)
  in
  List.iter
    (fun base_seed ->
      List.iter
        (fun (c : C.case) ->
          let ops, submitted = submitted_graph c in
          let intent = D.intent_of_ops ~replicas:c.C.replicas ops in
          match c.C.spec with
          | D.Osend_sequencer ->
            check_int (c.C.name ^ " sequencer submits no label") 0
              (Depgraph.size submitted)
          | _ ->
            Alcotest.(check (list string))
              (c.C.name ^ " intent = submitted")
              (render submitted)
              (render intent.W.graph))
        (C.generate ~base_seed ~buggify:(base_seed = 7) ~seeds:96 ()))
    [ 42; 7 ]

let () =
  Alcotest.run "campaign"
    [
      ( "replay under faults",
        [
          Alcotest.test_case "stack engines" `Quick
            test_stack_replay_identical;
          Alcotest.test_case "stack traces pinned" `Quick
            test_stack_traces_pinned;
          Alcotest.test_case "framed engines" `Quick
            test_framed_replay_identical;
          Alcotest.test_case "framed = plain" `Quick
            test_framed_equals_plain_under_faults;
        ] );
      ( "campaign",
        [
          Alcotest.test_case "intent = submitted graph" `Quick
            test_intent_equals_submitted;
          Alcotest.test_case "generation" `Quick test_generation_deterministic;
          Alcotest.test_case "churn generation" `Quick test_churn_generation;
          Alcotest.test_case "case verdicts" `Quick
            test_run_case_deterministic;
          Alcotest.test_case "parallel = sequential" `Quick
            test_parallel_verdicts_equal_sequential;
          Alcotest.test_case "planted bug" `Quick
            test_planted_bug_found_and_shrunk;
          Alcotest.test_case "shrinking" `Quick
            test_shrink_is_minimal_and_failing;
        ] );
      ( "exactly once",
        [
          Alcotest.test_case "fifo/bss duplicate release" `Quick
            test_duplicate_release_cases;
        ] );
    ]
