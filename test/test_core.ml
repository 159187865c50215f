(* Tests for the causal broadcast core: OSend delivery engine, groups over
   the simulated network, BSS and FIFO baselines, ASend total-order
   layers, stable points and the checkers. *)

module Engine = Causalb_sim.Engine
module Latency = Causalb_sim.Latency
module Net = Causalb_net.Net
module Fault = Causalb_net.Fault
module Label = Causalb_graph.Label
module Dep = Causalb_graph.Dep
module Depgraph = Causalb_graph.Depgraph
module Message = Causalb_core.Message
module Osend = Causalb_core.Osend
module Group = Causalb_core.Group
module Bss = Causalb_core.Bss
module Fifo = Causalb_core.Fifo
module Asend = Causalb_core.Asend
module Stable_points = Causalb_core.Stable_points
module Checker = Causalb_core.Checker
module Dt = Causalb_data.Datatypes
module Replica = Causalb_data.Replica
module Consistency = Causalb_data.Consistency

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let l ?name origin seq = Label.make ?name ~origin ~seq ()

let msg ?name ~origin ~seq ~dep payload =
  Message.make ~label:(l ?name origin seq) ~sender:origin ~dep payload

let labels_testable =
  Alcotest.testable (Fmt.Dump.list Label.pp) (List.equal Label.equal)

(* --- Osend member --- *)

let test_osend_null_immediate () =
  let m = Osend.create ~id:0 () in
  Osend.receive m (msg ~origin:0 ~seq:0 ~dep:Dep.null "a");
  check_int "delivered" 1 (Osend.delivered_count m);
  check_int "pending" 0 (Osend.pending_count m)

let test_osend_blocks_until_dep () =
  let m = Osend.create ~id:0 () in
  let a = l 0 0 in
  Osend.receive m (msg ~origin:1 ~seq:0 ~dep:(Dep.after a) "b");
  check_int "blocked" 0 (Osend.delivered_count m);
  check_int "pending" 1 (Osend.pending_count m);
  Alcotest.check labels_testable "blocked_on" [ a ] (Osend.blocked_on m);
  Osend.receive m (msg ~origin:0 ~seq:0 ~dep:Dep.null "a");
  check_int "cascade" 2 (Osend.delivered_count m);
  Alcotest.check labels_testable "order" [ a; l 1 0 ] (Osend.delivered_order m)

let test_osend_and_dependency () =
  let m = Osend.create ~id:0 () in
  let a = l 0 0 and b = l 1 0 in
  Osend.receive m (msg ~origin:2 ~seq:0 ~dep:(Dep.after_all [ a; b ]) "c");
  Osend.receive m (msg ~origin:0 ~seq:0 ~dep:Dep.null "a");
  check_int "still blocked" 1 (Osend.delivered_count m);
  Osend.receive m (msg ~origin:1 ~seq:0 ~dep:Dep.null "b");
  check_int "released" 3 (Osend.delivered_count m)

let test_osend_or_dependency () =
  let m = Osend.create ~id:0 () in
  let a = l 0 0 and b = l 1 0 in
  Osend.receive m (msg ~origin:2 ~seq:0 ~dep:(Dep.after_any [ a; b ]) "c");
  check_int "blocked" 0 (Osend.delivered_count m);
  Osend.receive m (msg ~origin:1 ~seq:0 ~dep:Dep.null "b");
  check_int "one alternative suffices" 2 (Osend.delivered_count m)

let test_osend_duplicate_suppression () =
  let m = Osend.create ~id:0 () in
  let e = msg ~origin:0 ~seq:0 ~dep:Dep.null "a" in
  Osend.receive m e;
  Osend.receive m e;
  check_int "once" 1 (Osend.delivered_count m)

let test_osend_deep_cascade () =
  (* Chain m0 <- m1 <- ... <- m9 received in reverse order: the arrival of
     m0 must release the whole chain in order. *)
  let m = Osend.create ~id:0 () in
  for i = 9 downto 1 do
    Osend.receive m (msg ~origin:0 ~seq:i ~dep:(Dep.after (l 0 (i - 1))) i)
  done;
  check_int "all parked" 9 (Osend.pending_count m);
  Osend.receive m (msg ~origin:0 ~seq:0 ~dep:Dep.null 0);
  check_int "all released" 10 (Osend.delivered_count m);
  Alcotest.check labels_testable "chain order"
    (List.init 10 (fun i -> l 0 i))
    (Osend.delivered_order m)

let test_osend_delivery_callback_order () =
  let seen = ref [] in
  let m =
    Osend.create ~id:0
      ~deliver:(fun e -> seen := Message.payload e :: !seen)
      ()
  in
  Osend.receive m (msg ~origin:0 ~seq:1 ~dep:(Dep.after (l 0 0)) "second");
  Osend.receive m (msg ~origin:0 ~seq:0 ~dep:Dep.null "first");
  Alcotest.(check (list string)) "callback order" [ "first"; "second" ]
    (List.rev !seen)

let test_osend_graph_extraction () =
  (* The extracted graph contains pending messages too, and equals what
     another member extracts from the same set (stable information). *)
  let m1 = Osend.create ~id:0 () and m2 = Osend.create ~id:1 () in
  let msgs =
    [
      msg ~origin:0 ~seq:0 ~dep:Dep.null "a";
      msg ~origin:1 ~seq:0 ~dep:(Dep.after (l 0 0)) "b";
      msg ~origin:2 ~seq:0 ~dep:(Dep.after_all [ l 0 0; l 1 0 ]) "c";
    ]
  in
  List.iter (Osend.receive m1) msgs;
  List.iter (Osend.receive m2) (List.rev msgs);
  let g1 = Osend.graph m1 and g2 = Osend.graph m2 in
  check "same nodes" true
    (Label.Set.equal
       (Label.Set.of_list (Depgraph.labels g1))
       (Label.Set.of_list (Depgraph.labels g2)));
  check "same edges" true
    (List.sort compare (Depgraph.edges g1)
    = List.sort compare (Depgraph.edges g2))

let test_osend_self_dependency () =
  (* A predicate naming its own label can never be met: [receive] rejects
     it, and the label counts as seen, so a later copy is ignored. *)
  let a = l 0 0 and b = l 1 0 in
  List.iter
    (fun dep ->
      let m = Osend.create ~id:0 () in
      Osend.receive m (msg ~origin:1 ~seq:0 ~dep:Dep.null "b");
      let bad = msg ~origin:0 ~seq:0 ~dep "a" in
      Alcotest.check_raises "self-dependency rejected"
        (Invalid_argument "Osend.receive: self-dependency") (fun () ->
          Osend.receive m bad);
      Osend.receive m bad;
      check_int "only b delivered" 1 (Osend.delivered_count m);
      check "not in the graph" false (Depgraph.mem (Osend.graph m) a))
    [ Dep.after a; Dep.after_all [ a; b ]; Dep.after_any [ a; b ] ]

(* --- Group over the network --- *)

let make_group ?(nodes = 3) ?(latency = Latency.lan) ?fifo ?seed () =
  let e = Engine.create ?seed () in
  let net = Net.create e ~nodes ~latency ?fifo () in
  let group = Group.create net () in
  (e, group)

let test_group_broadcast_delivers_everywhere () =
  let e, g = make_group () in
  let lbl = Group.osend g ~src:0 ~dep:Dep.null "hello" in
  Engine.run e;
  for node = 0 to 2 do
    Alcotest.check labels_testable
      (Printf.sprintf "node %d" node)
      [ lbl ]
      (Group.delivered_order g node)
  done

let test_group_causal_chain_respected () =
  (* Non-FIFO network with heavy reordering; causal chains must still be
     delivered in order at every member. *)
  let e, g =
    make_group ~nodes:4
      ~latency:(Latency.lognormal ~mu:1.0 ~sigma:1.5 ())
      ~fifo:false ()
  in
  let prev = ref Dep.null in
  for i = 0 to 30 do
    let lbl = Group.osend g ~src:(i mod 4) ~dep:!prev i in
    prev := Dep.after lbl
  done;
  Engine.run e;
  let expected = Group.delivered_order g 0 in
  check_int "all delivered" 31 (List.length expected);
  List.iter
    (fun node ->
      Alcotest.check labels_testable
        (Printf.sprintf "chain order at %d" node)
        expected
        (Group.delivered_order g node))
    [ 1; 2; 3 ]

let test_group_concurrent_orders_may_differ_but_safe () =
  let e, g =
    make_group ~nodes:5
      ~latency:(Latency.lognormal ~mu:0.5 ~sigma:1.2 ())
      ~fifo:false ~seed:3 ()
  in
  for i = 0 to 24 do
    ignore (Group.osend g ~src:(i mod 5) ~dep:Dep.null i)
  done;
  Engine.run e;
  let orders = Group.all_delivered_orders g in
  check "same set" true (Checker.same_set orders);
  check "safety trivially holds" true
    (Checker.causal_safety_all (Osend.graph (Group.member g 0)) orders);
  (* with that much variance, at least two members should disagree *)
  check "orders differ somewhere" true (not (Checker.identical_orders orders))

let test_group_fig2_scenario () =
  (* Fig. 2: mk -> ||{mi, mi'}; then mj after both. At every member mk is
     first and mj last; mi/mi' float in between. *)
  let e, g = make_group ~nodes:3 ~fifo:false ~seed:11 () in
  let mk = Group.osend g ~src:2 ~name:"mk" ~dep:Dep.null "mk" in
  Engine.run e;
  let mi = Group.osend g ~src:0 ~name:"mi" ~dep:(Dep.after mk) "mi" in
  let mi' = Group.osend g ~src:1 ~name:"mi'" ~dep:(Dep.after mk) "mi'" in
  Engine.run e;
  let mj =
    Group.osend g ~src:0 ~name:"mj" ~dep:(Dep.after_all [ mi; mi' ]) "mj"
  in
  Engine.run e;
  List.iter
    (fun node ->
      match Group.delivered_order g node with
      | [ first; _; _; last ] ->
        check "mk first" true (Label.equal first mk);
        check "mj last" true (Label.equal last mj)
      | other -> Alcotest.failf "expected 4 messages, got %d" (List.length other))
    [ 0; 1; 2 ]

let test_group_under_message_loss_safety () =
  (* With loss, liveness is gone but safety must hold: no member delivers
     a message before its ancestors. *)
  let e = Engine.create ~seed:5 () in
  let net = Net.create e ~nodes:3 ~fault:(Fault.make ~drop_prob:0.3 ()) () in
  let g = Group.create net () in
  let prev = ref Dep.null in
  for i = 0 to 20 do
    let lbl = Group.osend g ~src:(i mod 3) ~dep:!prev i in
    prev := Dep.after lbl
  done;
  Engine.run e;
  List.iter
    (fun node ->
      let member = Group.member g node in
      check
        (Printf.sprintf "safety at %d" node)
        true
        (Checker.causal_safety (Osend.graph member)
           (Osend.delivered_order member)))
    [ 0; 1; 2 ]

let test_group_duplicates_are_harmless () =
  let e = Engine.create () in
  let net = Net.create e ~nodes:3 ~fault:(Fault.make ~dup_prob:0.5 ()) () in
  let g = Group.create net () in
  for i = 0 to 20 do
    ignore (Group.osend g ~src:(i mod 3) ~dep:Dep.null i)
  done;
  Engine.run e;
  List.iter
    (fun node ->
      check_int "each delivered once" 21
        (List.length (Group.delivered_order g node)))
    [ 0; 1; 2 ]

(* --- BSS baseline --- *)

let make_bss ?(nodes = 3) ?(latency = Latency.lan) ?(fifo = false) ?seed () =
  let e = Engine.create ?seed () in
  let net = Net.create e ~nodes ~latency ~fifo () in
  let record, tags = Delivery_log.create () in
  let g =
    Bss.Group.create net
      ~on_deliver:(fun ~node ~time:_ env -> record ~node env.Bss.tag)
      ()
  in
  (e, g, tags)

let test_bss_basic_delivery () =
  let e, g, tags = make_bss () in
  Bss.Group.bcast g ~src:0 ~tag:"m1" ();
  Engine.run e;
  for node = 0 to 2 do
    Alcotest.(check (list string)) "delivered" [ "m1" ] (tags node)
  done

let test_bss_causal_order_inferred () =
  (* p0 broadcasts a; p1 delivers a then broadcasts b.  Everyone must
     deliver a before b even on a reordering network. *)
  let e, g, tags =
    make_bss ~latency:(Latency.lognormal ~mu:1.0 ~sigma:1.5 ()) ~seed:2 ()
  in
  Bss.Group.bcast g ~src:0 ~tag:"a" ();
  Engine.run e;
  Bss.Group.bcast g ~src:1 ~tag:"b" ();
  Engine.run e;
  for node = 0 to 2 do
    Alcotest.(check (list string)) "a before b" [ "a"; "b" ] (tags node)
  done

let test_bss_fifo_per_sender () =
  let e, g, tags =
    make_bss ~latency:(Latency.lognormal ~mu:1.0 ~sigma:2.0 ()) ~seed:4 ()
  in
  for i = 0 to 19 do
    Bss.Group.bcast g ~src:0 ~tag:(string_of_int i) ()
  done;
  Engine.run e;
  for node = 0 to 2 do
    Alcotest.(check (list string))
      "sender order kept"
      (List.init 20 string_of_int)
      (tags node)
  done

let test_bss_buffered_counter () =
  let e, g, _ =
    make_bss ~latency:(Latency.lognormal ~mu:1.0 ~sigma:2.0 ()) ~seed:6 ()
  in
  for i = 0 to 29 do
    Bss.Group.bcast g ~src:(i mod 3) ~tag:(string_of_int i) ()
  done;
  Engine.run e;
  let total_buffered =
    List.fold_left
      (fun acc node -> acc + Bss.buffered_ever (Bss.Group.member g node))
      0 [ 0; 1; 2 ]
  in
  (* The whole point of the T6 counter: on a jittery non-FIFO network some
     arrivals must wait. *)
  check "some forced waits" true (total_buffered > 0);
  for node = 0 to 2 do
    check_int "all delivered" 30 (Bss.delivered_count (Bss.Group.member g node))
  done

let test_bss_same_set_everywhere () =
  let e, g, tags = make_bss ~nodes:5 ~seed:8 () in
  for i = 0 to 49 do
    Bss.Group.bcast g ~src:(i mod 5) ~tag:(string_of_int i) ()
  done;
  Engine.run e;
  let sets = List.init 5 (fun n -> List.sort compare (tags n)) in
  check "identical sets" true (List.for_all (fun s -> s = List.hd sets) sets)

(* A stamp whose size is not the group size, or a sender outside the
   group, is rejected before the member counts the receipt. *)
let test_bss_rejects_malformed_envelope () =
  let reject name ~sender comps exn =
    let m = Bss.member ~id:0 ~group_size:3 () in
    let e =
      {
        Bss.sender;
        stamp = Causalb_clock.Vector_clock.of_array comps;
        tag = name;
        payload = ();
      }
    in
    Alcotest.check_raises name exn (fun () -> Bss.receive m e);
    check_int (name ^ ": nothing received") 0
      (Bss.metrics m).Causalb_stackbase.Metrics.received;
    check_int (name ^ ": nothing delivered") 0 (Bss.delivered_count m)
  in
  let mismatch = Invalid_argument "Vector_clock: size mismatch" in
  reject "long stamp" ~sender:0 [| 1; 0; 0; 0 |] mismatch;
  reject "short stamp" ~sender:0 [| 1; 0 |] mismatch;
  reject "sender out of range" ~sender:3 [| 0; 0; 1 |]
    (Invalid_argument "Vector_clock: process index out of range")

(* --- FIFO baseline --- *)

let test_fifo_per_sender_order () =
  let e = Engine.create ~seed:9 () in
  let net =
    Net.create e ~nodes:3
      ~latency:(Latency.lognormal ~mu:1.0 ~sigma:2.0 ())
      ~fifo:false ()
  in
  let record, tags = Delivery_log.create () in
  let g =
    Fifo.Group.create net
      ~on_deliver:(fun ~node ~time:_ env -> record ~node env.Fifo.tag)
      ()
  in
  for i = 0 to 19 do
    Fifo.Group.bcast g ~src:0 ~tag:(string_of_int i) ()
  done;
  Engine.run e;
  for node = 0 to 2 do
    Alcotest.(check (list string))
      "per-sender order"
      (List.init 20 string_of_int)
      (tags node)
  done

let test_fifo_no_cross_sender_constraint () =
  let e = Engine.create ~seed:13 () in
  let net =
    Net.create e ~nodes:4
      ~latency:(Latency.lognormal ~mu:0.5 ~sigma:1.5 ())
      ~fifo:false ()
  in
  let record, tags = Delivery_log.create () in
  let g =
    Fifo.Group.create net
      ~on_deliver:(fun ~node ~time:_ env -> record ~node env.Fifo.tag)
      ()
  in
  for i = 0 to 19 do
    Fifo.Group.bcast g ~src:(i mod 4) ~tag:(string_of_int i) ()
  done;
  Engine.run e;
  let orders = List.init 4 tags in
  check "some disagreement" true
    (List.exists (fun o -> o <> List.hd orders) orders)

(* Two parked copies of one message wake in the same generation; the
   second must leave the buffer without a second delivery. *)
let test_fifo_parked_copies_once () =
  let record, tags = Delivery_log.create () in
  let m =
    Fifo.member ~id:0 ~group_size:1
      ~deliver:(fun env -> record ~node:0 env.Fifo.tag)
      ()
  in
  let env seq = { Fifo.sender = 0; seq; tag = string_of_int seq; payload = () } in
  Fifo.receive m (env 1);
  Fifo.receive m (env 1);
  Fifo.receive m (env 0);
  Alcotest.(check (list string)) "each once" [ "0"; "1" ] (tags 0);
  check_int "nothing left buffered" 0 (Fifo.pending_count m)

let test_bss_parked_copies_once () =
  let record, tags = Delivery_log.create () in
  let m =
    Bss.member ~id:1 ~group_size:2
      ~deliver:(fun env -> record ~node:0 env.Bss.tag)
      ()
  in
  let env k =
    {
      Bss.sender = 0;
      stamp = Causalb_clock.Vector_clock.of_array [| k; 0 |];
      tag = string_of_int k;
      payload = ();
    }
  in
  Bss.receive m (env 2);
  Bss.receive m (env 2);
  Bss.receive m (env 1);
  Bss.receive m (env 3);
  Alcotest.(check (list string))
    "each once, count not overshot" [ "1"; "2"; "3" ] (tags 0);
  check_int "nothing left buffered" 0 (Bss.pending_count m)

(* --- ASend layers --- *)

let test_asend_merge_identical_batches () =
  (* Spontaneous messages closed by a sync that AND-depends on them: every
     member releases the identical total order. *)
  let record, released = Delivery_log.create () in
  let merges =
    List.init 3 (fun node ->
        Asend.Merge.create
          ~is_sync:(fun m -> Message.payload m = "sync")
          ~deliver:(fun m -> record ~node (Message.label m))
          ())
  in
  let e = Engine.create ~seed:21 () in
  let net =
    Net.create e ~nodes:3
      ~latency:(Latency.lognormal ~mu:0.5 ~sigma:1.2 ())
      ~fifo:false ()
  in
  let g =
    Group.create net
      ~on_deliver:(fun ~node ~time:_ m ->
        Asend.Merge.on_causal_deliver (List.nth merges node) m)
      ()
  in
  let spont =
    List.init 6 (fun i -> Group.osend g ~src:(i mod 3) ~dep:Dep.null "spont")
  in
  ignore (Group.osend g ~src:0 ~name:"sync" ~dep:(Dep.after_all spont) "sync");
  Engine.run e;
  let orders = List.init 3 released in
  check_int "seven released" 7 (List.length (List.hd orders));
  check "identical total order" true (Checker.identical_orders orders);
  List.iter (fun m -> check_int "one batch" 1 (Asend.Merge.batches m)) merges

let test_asend_merge_buffers_without_sync () =
  let released = ref 0 in
  let m =
    Asend.Merge.create ~is_sync:(fun _ -> false)
      ~deliver:(fun _ -> incr released)
      ()
  in
  Asend.Merge.on_causal_deliver m (msg ~origin:0 ~seq:0 ~dep:Dep.null "x");
  check_int "buffered" 1 (Asend.Merge.buffered m);
  check_int "nothing released" 0 !released

let test_asend_counted_batches () =
  let released = ref [] in
  let c =
    Asend.Counted.create ~batch_size:3
      ~deliver:(fun m -> released := Message.payload m :: !released)
      ()
  in
  (* Arrival order differs from label order; release must be sorted. *)
  Asend.Counted.on_causal_deliver c (msg ~origin:2 ~seq:0 ~dep:Dep.null "c");
  Asend.Counted.on_causal_deliver c (msg ~origin:0 ~seq:0 ~dep:Dep.null "a");
  check_int "waiting" 0 (List.length !released);
  Asend.Counted.on_causal_deliver c (msg ~origin:1 ~seq:0 ~dep:Dep.null "b");
  Alcotest.(check (list string))
    "sorted release" [ "a"; "b"; "c" ]
    (List.rev !released);
  check_int "one batch" 1 (Asend.Counted.batches c)

let test_asend_counted_multiple_batches () =
  let released = ref 0 in
  let c =
    Asend.Counted.create ~batch_size:2 ~deliver:(fun _ -> incr released) ()
  in
  for i = 0 to 5 do
    Asend.Counted.on_causal_deliver c (msg ~origin:0 ~seq:i ~dep:Dep.null i)
  done;
  check_int "three batches" 3 (Asend.Counted.batches c);
  check_int "all released" 6 !released

let test_asend_sequencer_total_order () =
  let e = Engine.create ~seed:31 () in
  let net =
    Net.create e ~nodes:4
      ~latency:(Latency.lognormal ~mu:0.5 ~sigma:1.0 ())
      ~fifo:false ()
  in
  let g = Group.create net () in
  let seq = Asend.Sequencer.create g () in
  for i = 0 to 19 do
    Asend.Sequencer.asend seq ~src:(i mod 4) i
  done;
  Engine.run e;
  check_int "all sequenced" 20 (Asend.Sequencer.sequenced seq);
  let orders = Group.all_delivered_orders g in
  check_int "all delivered" 20 (List.length (List.hd orders));
  check "identical orders" true (Checker.identical_orders orders)

let test_asend_timestamp_total_order () =
  (* Decentralised Lamport-timestamp order: all members deliver the
     identical sequence with no sequencer, on a FIFO network. *)
  let e = Engine.create ~seed:33 () in
  let net =
    Net.create e ~nodes:4
      ~latency:(Latency.lognormal ~mu:0.5 ~sigma:1.0 ())
      ~fifo:true ()
  in
  let ts = Asend.Timestamp.create net () in
  for i = 0 to 29 do
    Engine.schedule_at e ~time:(float_of_int i *. 0.7) (fun () ->
        Asend.Timestamp.bcast ts ~src:(i mod 4) ~tag:(string_of_int i) ())
  done;
  Engine.run e;
  let orders = List.init 4 (Asend.Timestamp.delivered_tags ts) in
  check_int "all delivered" 30 (List.length (List.hd orders));
  check "identical sequences" true
    (List.for_all (fun o -> o = List.hd orders) orders);
  check "acks flowed" true (Asend.Timestamp.acks_sent ts > 0);
  List.iter
    (fun n -> check_int "no stragglers" 0 (Asend.Timestamp.pending ts n))
    [ 0; 1; 2; 3 ]

let test_asend_timestamp_causality_consistent () =
  (* One node sends a, another sends b after delivering a: every member
     must order a before b (the Lamport clock condition). *)
  let e = Engine.create ~seed:34 () in
  let net = Net.create e ~nodes:3 ~fifo:true () in
  let ts_ref = ref None in
  let ts =
    Asend.Timestamp.create net
      ~on_deliver:(fun ~node ~time:_ ~tag _ ->
        if node = 1 && tag = "a" then
          match !ts_ref with
          | Some ts -> Asend.Timestamp.bcast ts ~src:1 ~tag:"b" ()
          | None -> ())
      ()
  in
  ts_ref := Some ts;
  Asend.Timestamp.bcast ts ~src:0 ~tag:"a" ();
  Engine.run e;
  List.iter
    (fun n ->
      Alcotest.(check (list string))
        "a then b" [ "a"; "b" ]
        (Asend.Timestamp.delivered_tags ts n))
    [ 0; 1; 2 ]

let test_asend_timestamp_two_nodes () =
  let e = Engine.create ~seed:35 () in
  let net = Net.create e ~nodes:2 ~fifo:true () in
  let ts = Asend.Timestamp.create net () in
  Asend.Timestamp.bcast ts ~src:0 ~tag:"x" ();
  Asend.Timestamp.bcast ts ~src:1 ~tag:"y" ();
  Engine.run e;
  check "same order both nodes" true
    (Asend.Timestamp.delivered_tags ts 0 = Asend.Timestamp.delivered_tags ts 1);
  check_int "both delivered" 2
    (List.length (Asend.Timestamp.delivered_tags ts 0))

(* --- Rgroup: reliable causal broadcast over lossy links --- *)

module Rgroup = Causalb_core.Rgroup

let run_lossy_chain ?(heartbeat = false) ~drop ~seed ~ops ~nodes () =
  let e = Engine.create ~seed () in
  let net =
    Net.create e ~nodes ~fault:(Fault.make ~drop_prob:drop ())
      ~latency:(Latency.lognormal ~mu:0.3 ~sigma:0.8 ())
      ()
  in
  let g = Rgroup.create net () in
  if heartbeat then
    Rgroup.enable_heartbeat g ~period:15.0
      ~until:((float_of_int ops *. 0.5) +. 500.0);
  let prev = ref Dep.null in
  for i = 0 to ops - 1 do
    Engine.schedule_at e ~time:(float_of_int i *. 0.5) (fun () ->
        let lbl = Rgroup.osend g ~src:(i mod nodes) ~dep:!prev i in
        prev := Dep.after lbl)
  done;
  Engine.run e;
  (e, g)

let test_rgroup_no_loss_no_nacks () =
  let _, g = run_lossy_chain ~drop:0.0 ~seed:41 ~ops:30 ~nodes:3 () in
  check_int "no nacks" 0 (Rgroup.nacks_sent g);
  check_int "no repairs" 0 (Rgroup.repairs_sent g);
  List.iter
    (fun o -> check_int "all delivered" 30 (List.length o))
    (Rgroup.all_delivered_orders g)

let test_rgroup_recovers_chain_under_loss () =
  let _, g = run_lossy_chain ~heartbeat:true ~drop:0.3 ~seed:42 ~ops:50 ~nodes:4 () in
  check "nacks happened" true (Rgroup.nacks_sent g > 0);
  check "repairs happened" true (Rgroup.repairs_sent g > 0);
  check_int "nothing unrecoverable" 0 (Rgroup.unrecoverable g);
  List.iter
    (fun o -> check_int "every member got everything" 50 (List.length o))
    (Rgroup.all_delivered_orders g);
  (* a chain admits exactly one causal order: all members identical *)
  check "identical orders" true
    (Checker.identical_orders (Rgroup.all_delivered_orders g))

let test_rgroup_recovers_concurrent_traffic () =
  (* Independent messages: gap detection must find drops that no
     dependency references — as long as each origin sends again. *)
  let e = Engine.create ~seed:43 () in
  let net =
    Net.create e ~nodes:3 ~fault:(Fault.make ~drop_prob:0.25 ()) ()
  in
  let g = Rgroup.create net () in
  Rgroup.enable_heartbeat g ~period:15.0 ~until:300.0;
  for i = 0 to 59 do
    Engine.schedule_at e ~time:(float_of_int i *. 0.5) (fun () ->
        ignore (Rgroup.osend g ~src:(i mod 3) ~dep:Dep.null i))
  done;
  Engine.run e;
  let orders = Rgroup.all_delivered_orders g in
  (* with summary heartbeats even tail drops are discovered *)
  List.iter
    (fun o -> check_int "all 60 delivered" 60 (List.length o))
    orders;
  check "safety under recovery" true
    (Checker.causal_safety_all
       (Osend.graph (Rgroup.member g 0))
       (List.map
          (fun o ->
            List.filter
              (fun l -> Causalb_graph.Depgraph.mem (Osend.graph (Rgroup.member g 0)) l)
              o)
          orders))

let test_rgroup_heavy_loss_eventual_delivery () =
  let _, g =
    run_lossy_chain ~heartbeat:true ~drop:0.5 ~seed:44 ~ops:40 ~nodes:3 ()
  in
  check "heartbeats flowed" true (Rgroup.summaries_sent g > 0);
  List.iter
    (fun o -> check_int "all delivered" 40 (List.length o))
    (Rgroup.all_delivered_orders g)

let test_rgroup_duplicates_and_loss () =
  let e = Engine.create ~seed:45 () in
  let net =
    Net.create e ~nodes:3
      ~fault:(Fault.make ~drop_prob:0.2 ~dup_prob:0.3 ())
      ()
  in
  let g = Rgroup.create net () in
  Rgroup.enable_heartbeat g ~period:15.0 ~until:300.0;
  let prev = ref Dep.null in
  for i = 0 to 29 do
    Engine.schedule_at e ~time:(float_of_int i *. 0.5) (fun () ->
        let lbl = Rgroup.osend g ~src:(i mod 3) ~dep:!prev i in
        prev := Dep.after lbl)
  done;
  Engine.run e;
  List.iter
    (fun o -> check_int "exactly once" 30 (List.length o))
    (Rgroup.all_delivered_orders g)

let test_rgroup_heals_after_partition () =
  (* A partition drops all cross-cell traffic; after healing, summary
     heartbeats discover and repair the holes. *)
  let e = Engine.create ~seed:48 () in
  let net = Net.create e ~nodes:4 ~latency:Latency.lan () in
  let g = Rgroup.create net () in
  Rgroup.enable_heartbeat g ~period:10.0 ~until:600.0;
  Engine.schedule_at e ~time:10.0 (fun () ->
      Net.partition net [ [ 0; 1 ]; [ 2; 3 ] ]);
  Engine.schedule_at e ~time:60.0 (fun () -> Net.heal net);
  for i = 0 to 49 do
    (* traffic before, during and after the partition *)
    Engine.schedule_at e ~time:(float_of_int i *. 1.5) (fun () ->
        ignore (Rgroup.osend g ~src:(i mod 4) ~dep:Dep.null i))
  done;
  Engine.run e;
  List.iter
    (fun o -> check_int "everyone has everything post-heal" 50 (List.length o))
    (Rgroup.all_delivered_orders g);
  check "repairs happened" true (Rgroup.repairs_sent g > 0)

let test_rgroup_gc_prunes_stash () =
  let e = Engine.create ~seed:46 () in
  let net = Net.create e ~nodes:3 ~latency:Latency.lan () in
  let g = Rgroup.create net () in
  Rgroup.enable_heartbeat ~gc:true g ~period:10.0 ~until:400.0;
  for i = 0 to 99 do
    Engine.schedule_at e ~time:(float_of_int i *. 1.0) (fun () ->
        ignore (Rgroup.osend g ~src:(i mod 3) ~dep:Dep.null i))
  done;
  Engine.run e;
  check "stash was pruned" true (Rgroup.pruned g > 0);
  check "stash ends small" true (Rgroup.stash_size g < Rgroup.stash_peak g);
  List.iter
    (fun o -> check_int "all delivered" 100 (List.length o))
    (Rgroup.all_delivered_orders g)

let test_rgroup_gc_safe_under_loss () =
  (* Pruning must never break recovery: only globally stable messages go. *)
  let e = Engine.create ~seed:47 () in
  let net =
    Net.create e ~nodes:3 ~fault:(Fault.make ~drop_prob:0.25 ()) ()
  in
  let g = Rgroup.create net () in
  Rgroup.enable_heartbeat ~gc:true g ~period:10.0 ~until:1_000.0;
  let prev = ref Dep.null in
  for i = 0 to 59 do
    Engine.schedule_at e ~time:(float_of_int i *. 1.0) (fun () ->
        let lbl = Rgroup.osend g ~src:(i mod 3) ~dep:!prev i in
        prev := Dep.after lbl)
  done;
  Engine.run e;
  List.iter
    (fun o -> check_int "complete despite gc + loss" 60 (List.length o))
    (Rgroup.all_delivered_orders g);
  check "some pruning happened" true (Rgroup.pruned g > 0)

(* --- Psync conversations --- *)

module Psync = Causalb_core.Psync

let make_psync ?(nodes = 3) ?(sigma = 1.0) ?seed () =
  let e = Engine.create ?seed () in
  let net =
    Net.create e ~nodes ~latency:(Latency.lognormal ~mu:0.5 ~sigma ())
      ~fifo:false ()
  in
  (e, Psync.create net ())

let test_psync_context_chain () =
  (* two sends from one node: the second's context is the first *)
  let e, p = make_psync ~seed:91 () in
  let a = Psync.send p ~src:0 ~name:"a" "a" in
  check "a is the leaf" true (Psync.leaves_at p 0 = [ a ]);
  let b = Psync.send p ~src:0 ~name:"b" "b" in
  check "b replaced a as leaf" true (Psync.leaves_at p 0 = [ b ]);
  Engine.run e;
  List.iter
    (fun node ->
      Alcotest.check labels_testable "context order" [ a; b ]
        (Psync.delivered_order p node))
    [ 0; 1; 2 ]

let test_psync_cross_node_context () =
  (* node 1 sends after receiving node 0's message: automatic dependency
     even though the application stated none *)
  let e, p = make_psync ~seed:92 () in
  let a = Psync.send p ~src:0 "a" in
  Engine.run e;
  let b = Psync.send p ~src:1 "b" in
  Engine.run e;
  List.iter
    (fun node ->
      Alcotest.check labels_testable "a then b" [ a; b ]
        (Psync.delivered_order p node))
    [ 0; 1; 2 ];
  (* the graph records the inferred edge *)
  let g = Osend.graph (Psync.member p 2) in
  check "edge a->b" true (Causalb_graph.Depgraph.happens_before g a b)

let test_psync_concurrent_sends_merge () =
  (* concurrent sends become multiple leaves; the next send joins them *)
  let e, p = make_psync ~seed:93 () in
  let a = Psync.send p ~src:0 "a" in
  let b = Psync.send p ~src:1 "b" in
  Engine.run e;
  check_int "two leaves" 2 (List.length (Psync.leaves_at p 2));
  let c = Psync.send p ~src:2 "c" in
  Engine.run e;
  let g = Osend.graph (Psync.member p 0) in
  check "c after a" true (Causalb_graph.Depgraph.happens_before g a c);
  check "c after b" true (Causalb_graph.Depgraph.happens_before g b c);
  check "a || b" true (Causalb_graph.Depgraph.concurrent g a b)

let test_psync_same_set_and_safety () =
  let e, p = make_psync ~nodes:4 ~sigma:1.3 ~seed:94 () in
  for i = 0 to 39 do
    Engine.schedule_at e ~time:(float_of_int i *. 0.4) (fun () ->
        ignore (Psync.send p ~src:(i mod 4) i))
  done;
  Engine.run e;
  let orders = Psync.all_delivered_orders p in
  check "same set" true (Checker.same_set orders);
  check "safety" true
    (Checker.causal_safety_all (Osend.graph (Psync.member p 0)) orders);
  check "context bytes counted" true (Psync.context_size_total p > 0)

let test_psync_inherits_potential_causality_waits () =
  (* independent app messages still wait on each other under Psync —
     same pathology as BSS, unlike OSend with Dep.null *)
  let e, p = make_psync ~nodes:4 ~sigma:1.5 ~seed:95 () in
  for i = 0 to 59 do
    Engine.schedule_at e ~time:(float_of_int i *. 0.4) (fun () ->
        ignore (Psync.send p ~src:(i mod 4) i))
  done;
  Engine.run e;
  check "forced waits under jitter" true (Psync.buffered_ever p > 0)

(* --- Stable points --- *)

let is_sync m =
  String.length (Message.payload m) > 0 && (Message.payload m).[0] = 's'

(* A tracker whose closed points are collected, oldest first. *)
let collecting () =
  let points = ref [] in
  let t =
    Stable_points.create ~is_sync ~on_stable:(fun p -> points := p :: !points)
  in
  (t, fun () -> List.rev !points)

let test_stable_points_windows () =
  let t, points = collecting () in
  Stable_points.on_deliver t (msg ~origin:0 ~seq:0 ~dep:Dep.null "c1");
  Stable_points.on_deliver t (msg ~origin:1 ~seq:0 ~dep:Dep.null "c2");
  Stable_points.on_deliver t (msg ~origin:2 ~seq:0 ~dep:Dep.null "s1");
  Stable_points.on_deliver t (msg ~origin:0 ~seq:1 ~dep:Dep.null "s2");
  check_int "two cycles" 2 (Stable_points.cycles_closed t);
  check_int "callback count" 2 (List.length (points ()));
  let p1 = List.nth (points ()) 0 in
  check_int "window size" 2 (List.length p1.Stable_points.window);
  check_int "cycle 0" 0 p1.Stable_points.cycle;
  Alcotest.(check string)
    "closed by s1" "s1"
    (Message.payload p1.Stable_points.closed_by);
  let p2 = List.nth (points ()) 1 in
  check_int "empty window" 0 (List.length p2.Stable_points.window);
  check_int "cycle 1" 1 p2.Stable_points.cycle

let test_stable_points_deferred () =
  let t = Stable_points.create ~is_sync ~on_stable:ignore in
  let got = ref None in
  Stable_points.on_deliver t (msg ~origin:0 ~seq:0 ~dep:Dep.null "c1");
  Stable_points.defer t (fun p -> got := Some p.Stable_points.cycle);
  check_int "queued" 1 (Stable_points.deferred_count t);
  Stable_points.on_deliver t (msg ~origin:0 ~seq:1 ~dep:Dep.null "c2");
  check "not yet" true (!got = None);
  Stable_points.on_deliver t (msg ~origin:0 ~seq:2 ~dep:Dep.null "s");
  check "fired at cycle 0" true (!got = Some 0);
  check_int "drained" 0 (Stable_points.deferred_count t)

(* The open window is handed over at its close and forgotten: the next
   cycle starts empty. *)
let test_stable_points_open_window () =
  let t, points = collecting () in
  Stable_points.on_deliver t (msg ~origin:0 ~seq:0 ~dep:Dep.null "c1");
  check_int "open, nothing closed" 0 (List.length (points ()));
  Stable_points.on_deliver t (msg ~origin:0 ~seq:1 ~dep:Dep.null "s");
  Stable_points.on_deliver t (msg ~origin:0 ~seq:2 ~dep:Dep.null "s2");
  match points () with
  | [ p1; p2 ] ->
    check_int "handed over" 1 (List.length p1.Stable_points.window);
    check_int "restarted empty" 0 (List.length p2.Stable_points.window)
  | _ -> Alcotest.fail "expected two closed cycles"

(* --- odds and ends --- *)

let test_message_map_and_pp () =
  let m = msg ~origin:0 ~seq:0 ~dep:Dep.null 21 in
  let doubled = Message.map (fun x -> x * 2) m in
  check_int "payload mapped" 42 (Message.payload doubled);
  check "label preserved" true
    (Label.equal (Message.label doubled) (Message.label m));
  let rendered = Format.asprintf "%a" (Message.pp Format.pp_print_int) doubled in
  check "pp mentions payload" true (String.length rendered > 0)

let test_osend_blocked_on_any () =
  let m = Osend.create ~id:0 () in
  Osend.receive m (msg ~origin:2 ~seq:0 ~dep:(Dep.after_any [ l 0 0; l 1 0 ]) "c");
  (* both alternatives are missing and reported *)
  check_int "two missing alternatives" 2 (List.length (Osend.blocked_on m))

let test_bss_clock_exposed () =
  let m = Bss.member ~id:1 ~group_size:3 () in
  let v = Bss.clock m in
  check_int "fresh clock zero" 0 (Causalb_clock.Vector_clock.get v 1)

let test_merge_custom_compare () =
  (* reverse label order as the arbitrary-but-deterministic comparator *)
  let released = ref [] in
  let cmp a b = Label.compare (Message.label b) (Message.label a) in
  let m =
    Asend.Merge.create
      ~is_sync:(fun e -> Message.payload e = "sync")
      ~compare:cmp
      ~deliver:(fun e -> released := Message.payload e :: !released)
      ()
  in
  Asend.Merge.on_causal_deliver m (msg ~origin:0 ~seq:0 ~dep:Dep.null "a");
  Asend.Merge.on_causal_deliver m (msg ~origin:1 ~seq:0 ~dep:Dep.null "b");
  Asend.Merge.on_causal_deliver m (msg ~origin:2 ~seq:0 ~dep:Dep.null "sync");
  Alcotest.(check (list string)) "reverse order then sync"
    [ "b"; "a"; "sync" ]
    (List.rev !released)

let test_rgroup_gives_up_without_retries () =
  (* max_retries:0 means the first failed probe abandons the label *)
  let e = Engine.create ~seed:49 () in
  let net = Net.create e ~nodes:3 ~fault:(Fault.make ~drop_prob:1.0 ()) () in
  let g = Rgroup.create net ~max_retries:0 () in
  (* b names a; a's copies are all dropped, so b blocks and the chase
     gives up immediately *)
  let a = Rgroup.osend g ~src:0 ~dep:Dep.null "a" in
  Net.set_fault net Fault.none;
  ignore (Rgroup.osend g ~src:0 ~dep:(Dep.after a) "b");
  Engine.run e;
  check "gave up somewhere" true (Rgroup.unrecoverable g > 0)

let test_group_sent_count () =
  let e, g = make_group () in
  ignore (Group.osend g ~src:0 ~dep:Dep.null "x");
  ignore (Group.osend g ~src:1 ~dep:Dep.null "y");
  Engine.run e;
  check_int "sent" 2 (Group.sent_count g);
  check_int "no ancestors named" 0 (Group.ancestors_named g)

let test_stable_points_window_sets () =
  let t, points = collecting () in
  Stable_points.on_deliver t (msg ~origin:0 ~seq:0 ~dep:Dep.null "c1");
  Stable_points.on_deliver t (msg ~origin:1 ~seq:0 ~dep:Dep.null "s");
  Stable_points.on_deliver t (msg ~origin:0 ~seq:1 ~dep:Dep.null "c2");
  Stable_points.on_deliver t (msg ~origin:1 ~seq:1 ~dep:Dep.null "s2");
  let sets =
    List.map
      (fun p ->
        Label.Set.of_list (List.map Message.label p.Stable_points.window))
      (points ())
  in
  check_int "two closed windows" 2 (List.length sets);
  check "first window = {c1}" true
    (Label.Set.equal (List.hd sets) (Label.Set.singleton (l 0 0)))

(* --- Checker --- *)

let test_checker_same_set () =
  let a = [ l 0 0; l 1 0 ] and b = [ l 1 0; l 0 0 ] in
  check "permuted ok" true (Checker.same_set [ a; b ]);
  check "missing detected" false (Checker.same_set [ a; [ l 0 0 ] ]);
  check "duplicate detected" false (Checker.same_set [ a; [ l 0 0; l 0 0 ] ])

let test_checker_identical () =
  let a = [ l 0 0; l 1 0 ] in
  check "same" true (Checker.identical_orders [ a; a ]);
  check "permuted not identical" false
    (Checker.identical_orders [ a; List.rev a ])

let test_checker_violations () =
  let g = Depgraph.create () in
  let a = l 0 0 and b = l 1 0 in
  Depgraph.add g a ~dep:Dep.null;
  Depgraph.add g b ~dep:(Dep.after a);
  check_int "clean" 0 (List.length (Checker.violations g [ a; b ]));
  let v = Checker.violations g [ b; a ] in
  check_int "one violation" 1 (List.length v);
  check "pair" true
    (match v with
    | [ (x, y) ] -> Label.equal x a && Label.equal y b
    | _ -> false)

(* Window agreement (§4) is checked over replicas: members agree cycle by
   cycle on the interior sets of the common prefix of closed cycles. *)
let test_checker_windows_agree () =
  let inc = Dt.Int_register.Inc 1 and read = Dt.Int_register.Read in
  let replica id ops =
    let r = Replica.create ~id ~spec:Dt.Int_register.spec () in
    List.iter
      (fun (origin, seq, op) ->
        Replica.on_deliver r (msg ~origin ~seq ~dep:Dep.null op))
      ops;
    r
  in
  let r0 = replica 0 [ (0, 0, inc); (2, 0, read); (1, 0, inc); (2, 1, read) ] in
  let r1 = replica 1 [ (0, 0, inc); (2, 0, read) ] in
  let r2 = replica 2 [ (1, 0, inc); (2, 0, read) ] in
  check "prefix ok" true (Consistency.window_sets_agree [ r0; r1 ]);
  check "mismatch" false (Consistency.window_sets_agree [ r1; r2 ])

let () =
  Alcotest.run "core"
    [
      ( "osend",
        [
          Alcotest.test_case "null immediate" `Quick test_osend_null_immediate;
          Alcotest.test_case "blocks until dep" `Quick test_osend_blocks_until_dep;
          Alcotest.test_case "AND dependency" `Quick test_osend_and_dependency;
          Alcotest.test_case "OR dependency" `Quick test_osend_or_dependency;
          Alcotest.test_case "duplicate suppression" `Quick
            test_osend_duplicate_suppression;
          Alcotest.test_case "deep cascade" `Quick test_osend_deep_cascade;
          Alcotest.test_case "callback order" `Quick
            test_osend_delivery_callback_order;
          Alcotest.test_case "graph extraction" `Quick test_osend_graph_extraction;
          Alcotest.test_case "self-dependency" `Quick test_osend_self_dependency;
        ] );
      ( "group",
        [
          Alcotest.test_case "broadcast everywhere" `Quick
            test_group_broadcast_delivers_everywhere;
          Alcotest.test_case "causal chain" `Quick test_group_causal_chain_respected;
          Alcotest.test_case "concurrent orders differ safely" `Quick
            test_group_concurrent_orders_may_differ_but_safe;
          Alcotest.test_case "fig2 scenario" `Quick test_group_fig2_scenario;
          Alcotest.test_case "loss: safety" `Quick
            test_group_under_message_loss_safety;
          Alcotest.test_case "duplicates harmless" `Quick
            test_group_duplicates_are_harmless;
        ] );
      ( "bss",
        [
          Alcotest.test_case "basic delivery" `Quick test_bss_basic_delivery;
          Alcotest.test_case "inferred causal order" `Quick
            test_bss_causal_order_inferred;
          Alcotest.test_case "fifo per sender" `Quick test_bss_fifo_per_sender;
          Alcotest.test_case "buffered counter" `Quick test_bss_buffered_counter;
          Alcotest.test_case "same set" `Quick test_bss_same_set_everywhere;
          Alcotest.test_case "parked copies once" `Quick
            test_bss_parked_copies_once;
          Alcotest.test_case "malformed envelope" `Quick
            test_bss_rejects_malformed_envelope;
        ] );
      ( "fifo",
        [
          Alcotest.test_case "per-sender order" `Quick test_fifo_per_sender_order;
          Alcotest.test_case "parked copies once" `Quick
            test_fifo_parked_copies_once;
          Alcotest.test_case "no cross-sender constraint" `Quick
            test_fifo_no_cross_sender_constraint;
        ] );
      ( "asend",
        [
          Alcotest.test_case "merge identical batches" `Quick
            test_asend_merge_identical_batches;
          Alcotest.test_case "merge buffers" `Quick
            test_asend_merge_buffers_without_sync;
          Alcotest.test_case "counted batches" `Quick test_asend_counted_batches;
          Alcotest.test_case "counted multiple" `Quick
            test_asend_counted_multiple_batches;
          Alcotest.test_case "sequencer total order" `Quick
            test_asend_sequencer_total_order;
          Alcotest.test_case "timestamp total order" `Quick
            test_asend_timestamp_total_order;
          Alcotest.test_case "timestamp causality" `Quick
            test_asend_timestamp_causality_consistent;
          Alcotest.test_case "timestamp two nodes" `Quick
            test_asend_timestamp_two_nodes;
        ] );
      ( "rgroup",
        [
          Alcotest.test_case "no loss, no nacks" `Quick test_rgroup_no_loss_no_nacks;
          Alcotest.test_case "chain under 30% loss" `Quick
            test_rgroup_recovers_chain_under_loss;
          Alcotest.test_case "concurrent traffic gaps" `Quick
            test_rgroup_recovers_concurrent_traffic;
          Alcotest.test_case "50% loss" `Quick
            test_rgroup_heavy_loss_eventual_delivery;
          Alcotest.test_case "duplicates + loss" `Quick
            test_rgroup_duplicates_and_loss;
          Alcotest.test_case "partition heal" `Quick
            test_rgroup_heals_after_partition;
          Alcotest.test_case "gc prunes stash" `Quick test_rgroup_gc_prunes_stash;
          Alcotest.test_case "gc safe under loss" `Quick
            test_rgroup_gc_safe_under_loss;
        ] );
      ( "psync",
        [
          Alcotest.test_case "context chain" `Quick test_psync_context_chain;
          Alcotest.test_case "cross-node context" `Quick
            test_psync_cross_node_context;
          Alcotest.test_case "concurrent merge" `Quick
            test_psync_concurrent_sends_merge;
          Alcotest.test_case "set + safety" `Quick test_psync_same_set_and_safety;
          Alcotest.test_case "potential-causality waits" `Quick
            test_psync_inherits_potential_causality_waits;
        ] );
      ( "stable-points",
        [
          Alcotest.test_case "windows" `Quick test_stable_points_windows;
          Alcotest.test_case "deferred" `Quick test_stable_points_deferred;
          Alcotest.test_case "open window" `Quick test_stable_points_open_window;
        ] );
      ( "odds-and-ends",
        [
          Alcotest.test_case "message map/pp" `Quick test_message_map_and_pp;
          Alcotest.test_case "blocked_on OR" `Quick test_osend_blocked_on_any;
          Alcotest.test_case "bss clock" `Quick test_bss_clock_exposed;
          Alcotest.test_case "merge custom compare" `Quick
            test_merge_custom_compare;
          Alcotest.test_case "rgroup gives up" `Quick
            test_rgroup_gives_up_without_retries;
          Alcotest.test_case "group counters" `Quick test_group_sent_count;
          Alcotest.test_case "window sets" `Quick test_stable_points_window_sets;
        ] );
      ( "checker",
        [
          Alcotest.test_case "same set" `Quick test_checker_same_set;
          Alcotest.test_case "identical" `Quick test_checker_identical;
          Alcotest.test_case "violations" `Quick test_checker_violations;
          Alcotest.test_case "windows agree" `Quick test_checker_windows_agree;
        ] );
    ]
