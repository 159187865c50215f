(* Tests for the composable ordering stack (lib/stack): same-seed
   equivalence with the standalone engines, composition behaviour of the
   total-order layers, uniform per-layer metrics, and partition/heal
   recovery through the stack. *)

module Engine = Causalb_sim.Engine
module Latency = Causalb_sim.Latency
module Net = Causalb_net.Net
module Label = Causalb_graph.Label
module Dep = Causalb_graph.Dep
module Message = Causalb_core.Message
module Osend = Causalb_core.Osend
module Group = Causalb_core.Group
module Bss = Causalb_core.Bss
module Fifo = Causalb_core.Fifo
module Asend = Causalb_core.Asend
module Checker = Causalb_core.Checker
module Stack = Causalb_stack.Stack
module Metrics = Causalb_stackbase.Metrics

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let labels_testable =
  Alcotest.testable (Fmt.Dump.list Label.pp) (List.equal Label.equal)

let latency = Latency.lognormal ~mu:0.5 ~sigma:1.0 ()

(* The shared workload of the equivalence tests: [n_ops] submissions,
   round-robin across [nodes], one every 0.4 time units.  Every fourth
   op is a sync that AND-closes the preceding window (the §6.1 shape);
   the others follow the last sync.  [submit i dep] performs the
   submission and returns the label when the engine allocates one. *)
let nodes = 3

let n_ops = 24

let drive engine submit =
  let last_sync = ref None in
  let window = ref [] in
  let step i =
    let sync = i mod 4 = 3 in
    let dep =
      if sync && !window <> [] then Dep.after_all (List.rev !window)
      else match !last_sync with None -> Dep.null | Some l -> Dep.after l
    in
    match submit i ~sync ~dep with
    | None -> ()
    | Some label ->
      if sync then begin
        last_sync := Some label;
        window := []
      end
      else window := label :: !window
  in
  for i = 0 to n_ops - 1 do
    Engine.schedule_at engine ~time:(float_of_int i *. 0.4) (fun () -> step i)
  done;
  Engine.run engine

let causal_row stack =
  List.find
    (fun (m : Metrics.t) ->
      String.length m.Metrics.name >= 6 && String.sub m.Metrics.name 0 6 = "causal")
    (Stack.metrics stack)

(* --- same-seed equivalence: stack vs standalone engines --- *)

(* transport -> fifo: per-node delivery counts and forced waits must
   match a hand-wired [Fifo.Group] on the same seed. *)
let test_stack_matches_standalone_fifo () =
  let run_stack () =
    let engine = Engine.create ~seed:7 () in
    let stack =
      Stack.compose ~ordering:Stack.Fifo ~latency ~fifo:false engine
        ~nodes ()
    in
    drive engine (fun i ~sync:_ ~dep ->
        Stack.submit stack ~src:(i mod nodes) ~dep (i * 10));
    ( List.init nodes (Stack.delivered_count stack),
      (causal_row stack).Metrics.forced_waits,
      Stack.messages_sent stack )
  in
  let run_standalone () =
    let engine = Engine.create ~seed:7 () in
    let net = Net.create engine ~nodes ~latency ~fifo:false () in
    let group = Fifo.Group.create net () in
    drive engine (fun i ~sync:_ ~dep:_ ->
        Fifo.Group.bcast group ~src:(i mod nodes) (i * 10);
        None);
    ( List.init nodes (fun n ->
          Fifo.delivered_count (Fifo.Group.member group n)),
      List.fold_left
        (fun acc n -> acc + Fifo.buffered_ever (Fifo.Group.member group n))
        0
        (List.init nodes Fun.id),
      Net.messages_sent net )
  in
  let sd, sw, sm = run_stack () in
  let dd, dw, dm = run_standalone () in
  Alcotest.(check (list int)) "delivered per node" dd sd;
  check_int "forced waits" dw sw;
  check_int "messages" dm sm

(* transport -> bss: same comparison against a hand-wired [Bss.Group]. *)
let test_stack_matches_standalone_bss () =
  let run_stack () =
    let engine = Engine.create ~seed:11 () in
    let stack =
      Stack.compose ~ordering:Stack.Bss ~latency ~fifo:false engine ~nodes ()
    in
    drive engine (fun i ~sync:_ ~dep ->
        Stack.submit stack ~src:(i mod nodes) ~dep (i * 10));
    ( List.init nodes (Stack.delivered_count stack),
      (causal_row stack).Metrics.forced_waits )
  in
  let run_standalone () =
    let engine = Engine.create ~seed:11 () in
    let net = Net.create engine ~nodes ~latency ~fifo:false () in
    let group = Bss.Group.create net () in
    drive engine (fun i ~sync:_ ~dep:_ ->
        Bss.Group.bcast group ~src:(i mod nodes) (i * 10);
        None);
    ( List.init nodes (fun n -> Bss.delivered_count (Bss.Group.member group n)),
      List.fold_left
        (fun acc n -> acc + Bss.buffered_ever (Bss.Group.member group n))
        0
        (List.init nodes Fun.id) )
  in
  let sd, sw = run_stack () in
  let dd, dw = run_standalone () in
  Alcotest.(check (list int)) "delivered per node" dd sd;
  check_int "forced waits" dw sw

(* transport -> osend: per-node delivery ORDER (not just counts) must
   match a hand-wired [Group] given the identical dependency script. *)
let test_stack_matches_standalone_osend () =
  let run_stack () =
    let engine = Engine.create ~seed:13 () in
    let stack =
      Stack.compose ~ordering:Stack.Osend ~latency ~fifo:false engine
        ~nodes ()
    in
    drive engine (fun i ~sync:_ ~dep ->
        Stack.submit stack ~src:(i mod nodes) ~dep (i * 10));
    (Stack.all_delivered_orders stack, (causal_row stack).Metrics.forced_waits)
  in
  let run_standalone () =
    let engine = Engine.create ~seed:13 () in
    let net = Net.create engine ~nodes ~latency ~fifo:false () in
    let group = Group.create net () in
    drive engine (fun i ~sync:_ ~dep ->
        Some (Group.osend group ~src:(i mod nodes) ~dep (i * 10)));
    ( Group.all_delivered_orders group,
      List.fold_left
        (fun acc n ->
          acc + (Osend.metrics (Group.member group n)).Metrics.forced_waits)
        0
        (List.init nodes Fun.id) )
  in
  let so, sw = run_stack () in
  let go, gw = run_standalone () in
  List.iteri
    (fun n order ->
      Alcotest.check labels_testable
        (Printf.sprintf "order at node %d" n)
        (List.nth go n) order)
    so;
  check_int "forced waits" gw sw

(* transport -> osend -> merge: the released total order at every member
   must match hand-wired [Group] + per-member [Asend.Merge]. *)
let test_stack_matches_standalone_merge () =
  let run_stack () =
    let engine = Engine.create ~seed:19 () in
    let stack =
      Stack.compose ~ordering:Stack.Osend
        ~total:(Stack.Merge (fun m -> Message.payload m mod 4 = 3))
        ~latency ~fifo:false engine ~nodes ()
    in
    drive engine (fun i ~sync:_ ~dep ->
        Stack.submit stack ~src:(i mod nodes) ~dep i);
    Stack.all_delivered_orders stack
  in
  let run_standalone () =
    let engine = Engine.create ~seed:19 () in
    let net = Net.create engine ~nodes ~latency ~fifo:false () in
    let merges = ref [||] in
    let group =
      Group.create net
        ~on_deliver:(fun ~node ~time:_ msg ->
          Asend.Merge.on_causal_deliver !merges.(node) msg)
        ()
    in
    let released = Array.make nodes [] in
    merges :=
      Array.init nodes (fun node ->
          Asend.Merge.create
            ~is_sync:(fun m -> Message.payload m mod 4 = 3)
            ~deliver:(fun m ->
              released.(node) <- Message.label m :: released.(node))
            ());
    drive engine (fun i ~sync:_ ~dep ->
        Some (Group.osend group ~src:(i mod nodes) ~dep i));
    Array.to_list (Array.map List.rev released)
  in
  let so = run_stack () in
  let go = run_standalone () in
  check "identical at all members" true (Checker.identical_orders so);
  List.iteri
    (fun n order ->
      Alcotest.check labels_testable
        (Printf.sprintf "total order at node %d" n)
        (List.nth go n) order)
    so

(* --- composition behaviour --- *)

let test_sequencer_composition () =
  let engine = Engine.create ~seed:23 () in
  let stack =
    Stack.compose ~ordering:Stack.Osend
      ~total:(Stack.Sequencer { node = 0 })
      ~latency ~fifo:false engine ~nodes ()
  in
  drive engine (fun i ~sync:_ ~dep ->
      Stack.submit stack ~src:(i mod nodes) ~dep i);
  let orders = Stack.all_delivered_orders stack in
  check "identical orders" true (Checker.identical_orders orders);
  check_int "all released" n_ops (List.length (List.hd orders));
  check_int "three layers"
    3 (List.length (Stack.metrics stack))

let test_sequencer_requires_osend () =
  let engine = Engine.create ~seed:1 () in
  Alcotest.check_raises "sequencer over bss rejected"
    (Invalid_argument
       "Stack.compose: a sequencer needs the explicit-dependency causal \
        layer (ordering = Osend)")
    (fun () ->
      ignore
        (Stack.compose ~ordering:Stack.Bss
           ~total:(Stack.Sequencer { node = 0 })
           engine ~nodes ()
          : int Stack.t))

let test_counted_composition () =
  let engine = Engine.create ~seed:29 () in
  let stack =
    Stack.compose ~ordering:Stack.Osend ~total:(Stack.Counted n_ops) ~latency
      ~fifo:false engine ~nodes ()
  in
  drive engine (fun i ~sync:_ ~dep ->
      Stack.submit stack ~src:(i mod nodes) ~dep i);
  let orders = Stack.all_delivered_orders stack in
  check "identical orders" true (Checker.identical_orders orders);
  check_int "one full batch" n_ops (List.length (List.hd orders))

let test_describe () =
  let engine = Engine.create ~seed:1 () in
  let s1 = Stack.compose ~ordering:Stack.Fifo engine ~nodes:2 () in
  Alcotest.(check string)
    "fifo description" "transport -> causal:fifo -> app" (Stack.describe s1);
  let engine = Engine.create ~seed:1 () in
  let s2 =
    Stack.compose ~ordering:Stack.Osend
      ~total:(Stack.Merge (fun (_ : int Message.t) -> false))
      engine ~nodes:2 ()
  in
  Alcotest.(check string)
    "merge description" "transport -> causal:osend -> total:merge -> app"
    (Stack.describe s2)

(* Every layer's metrics balance after a drained run: received =
   delivered (nothing held), and the transport row sits at the bottom. *)
let test_metrics_balance () =
  List.iter
    (fun ordering ->
      let engine = Engine.create ~seed:31 () in
      let stack =
        Stack.compose ~ordering ~latency ~fifo:false engine ~nodes ()
      in
      drive engine (fun i ~sync:_ ~dep ->
          Stack.submit stack ~src:(i mod nodes) ~dep i);
      let rows = Stack.metrics stack in
      Alcotest.(check string)
        "transport first" "transport" (List.hd rows).Metrics.name;
      List.iter
        (fun (m : Metrics.t) ->
          check_int
            (Printf.sprintf "%s drained" m.Metrics.name)
            m.Metrics.received m.Metrics.delivered;
          check_int (Printf.sprintf "%s held" m.Metrics.name) 0
            m.Metrics.buffered)
        rows)
    [ Stack.Fifo; Stack.Bss; Stack.Osend ]

(* The two-line Fig. 4 composition from the docs: build and run it. *)
let test_fig4_two_liner () =
  let engine = Engine.create ~seed:3 () in
  let stack =
    Stack.compose ~total:(Stack.Counted 4) engine ~nodes:4 ()
  in
  for i = 0 to 3 do
    Engine.schedule_at engine ~time:(float_of_int i) (fun () ->
        ignore (Stack.submit stack ~src:i ~dep:Dep.null i))
  done;
  Stack.run stack;
  check "identical orders" true
    (Checker.identical_orders (Stack.all_delivered_orders stack))

(* --- partition / heal through the stack --- *)

(* A partition swallows m1's copies to the minority side; a later m2
   depending on m1 then blocks there with [blocked_on = [m1]].  After
   heal, re-injecting m1 through the exposed OSend group (the recovery
   path) releases everything. *)
let test_partition_heal_blocked_on () =
  let engine = Engine.create ~seed:37 () in
  let stack =
    Stack.compose ~ordering:Stack.Osend ~latency ~fifo:false engine ~nodes ()
  in
  let m1 = ref None in
  let m2 = ref None in
  Engine.schedule_at engine ~time:0.0 (fun () ->
      Stack.partition stack [ [ 0 ]; [ 1; 2 ] ]);
  Engine.schedule_at engine ~time:1.0 (fun () ->
      m1 := Stack.submit stack ~src:0 ~dep:Dep.null "m1");
  Engine.schedule_at engine ~time:100.0 (fun () -> Stack.heal stack);
  Engine.schedule_at engine ~time:101.0 (fun () ->
      m2 :=
        Stack.submit stack ~src:0
          ~dep:(Dep.after (Option.get !m1))
          "m2");
  Stack.run stack;
  let l1 = Option.get !m1 and l2 = Option.get !m2 in
  (* Node 0 saw both; 1 and 2 hold m2 hostage to the swallowed m1. *)
  check_int "node 0 delivered" 2 (Stack.delivered_count stack 0);
  check_int "node 1 delivered" 0 (Stack.delivered_count stack 1);
  check_int "node 2 delivered" 0 (Stack.delivered_count stack 2);
  Alcotest.check labels_testable "node 1 blocked on m1" [ l1 ]
    (Stack.blocked_on stack 1);
  Alcotest.check labels_testable "node 2 blocked on m1" [ l1 ]
    (Stack.blocked_on stack 2);
  (* Recovery: re-broadcast m1 under its original label and predicate. *)
  let group = Option.get (Stack.osend_group stack) in
  Engine.schedule_at engine ~time:(Engine.now engine +. 1.0) (fun () ->
      Group.send_labelled group ~src:0 ~label:l1 ~dep:Dep.null "m1");
  Stack.run stack;
  List.iter
    (fun n ->
      check_int (Printf.sprintf "node %d caught up" n) 2
        (Stack.delivered_count stack n);
      Alcotest.check labels_testable
        (Printf.sprintf "node %d unblocked" n)
        [] (Stack.blocked_on stack n))
    [ 0; 1; 2 ];
  Alcotest.check labels_testable "node 1 order" [ l1; l2 ]
    (Stack.delivered_order stack 1);
  check "same set everywhere" true
    (Checker.same_set (Stack.all_delivered_orders stack))

(* FIFO and BSS infer their ordering and never name ancestors. *)
let test_blocked_on_empty_for_inferred () =
  List.iter
    (fun ordering ->
      let engine = Engine.create ~seed:41 () in
      let stack =
        Stack.compose ~ordering ~latency ~fifo:false engine ~nodes ()
      in
      drive engine (fun i ~sync:_ ~dep ->
          Stack.submit stack ~src:(i mod nodes) ~dep i);
      List.iter
        (fun n ->
          Alcotest.check labels_testable "no named ancestors" []
            (Stack.blocked_on stack n))
        [ 0; 1; 2 ])
    [ Stack.Fifo; Stack.Bss ]

let () =
  Alcotest.run "stack"
    [
      ( "equivalence",
        [
          Alcotest.test_case "fifo = standalone" `Quick
            test_stack_matches_standalone_fifo;
          Alcotest.test_case "bss = standalone" `Quick
            test_stack_matches_standalone_bss;
          Alcotest.test_case "osend = standalone" `Quick
            test_stack_matches_standalone_osend;
          Alcotest.test_case "merge = standalone" `Quick
            test_stack_matches_standalone_merge;
        ] );
      ( "compositions",
        [
          Alcotest.test_case "sequencer" `Quick test_sequencer_composition;
          Alcotest.test_case "sequencer requires osend" `Quick
            test_sequencer_requires_osend;
          Alcotest.test_case "counted" `Quick test_counted_composition;
          Alcotest.test_case "describe" `Quick test_describe;
          Alcotest.test_case "metrics balance" `Quick test_metrics_balance;
          Alcotest.test_case "fig4 two-liner" `Quick test_fig4_two_liner;
        ] );
      ( "faults",
        [
          Alcotest.test_case "partition/heal blocked_on" `Quick
            test_partition_heal_blocked_on;
          Alcotest.test_case "fifo/bss never name ancestors" `Quick
            test_blocked_on_empty_for_inferred;
        ] );
    ]
