(* Unit tests for the simulated network: delivery, FIFO links, faults,
   partitions, accounting. *)

module Engine = Causalb_sim.Engine
module Latency = Causalb_sim.Latency
module Net = Causalb_net.Net
module Fault = Causalb_net.Fault
module Trace = Causalb_sim.Trace

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let make ?(nodes = 3) ?latency ?fifo ?fault () =
  let e = Engine.create () in
  let net = Net.create e ~nodes ?latency ?fifo ?fault () in
  (e, net)

let collect net node =
  let log = ref [] in
  Net.set_handler net node (fun ~src payload -> log := (src, payload) :: !log);
  fun () -> List.rev !log

let test_unicast () =
  let e, net = make () in
  let got = collect net 1 in
  Net.send net ~src:0 ~dst:1 ~size:1 "hello";
  Engine.run e;
  Alcotest.(check (list (pair int string))) "received" [ (0, "hello") ] (got ());
  check_int "sent" 1 (Net.messages_sent net);
  check_int "delivered" 1 (Net.messages_delivered net)

let test_unicast_latency_positive () =
  let e, net = make ~latency:(Latency.constant 2.5) () in
  let when_ = ref 0.0 in
  Net.set_handler net 1 (fun ~src:_ _ -> when_ := Engine.now e);
  Net.send net ~src:0 ~dst:1 ~size:1 ();
  Engine.run e;
  Alcotest.(check (float 1e-9)) "constant delay" 2.5 !when_

let test_broadcast_all () =
  let e, net = make ~nodes:4 () in
  let got = Array.init 4 (fun i -> collect net i) in
  Net.broadcast net ~src:2 "b";
  Engine.run e;
  Array.iteri
    (fun i g ->
      check (Printf.sprintf "node %d got it" i) true (g () = [ (2, "b") ]))
    got

let test_broadcast_no_self () =
  let e, net = make ~nodes:3 () in
  let got = collect net 0 in
  Net.broadcast net ~src:0 ~self:false "b";
  Engine.run e;
  check "sender skipped" true (got () = [])

let test_broadcast_self_immediate () =
  let e, net = make ~nodes:3 () in
  let self_time = ref (-1.0) in
  Net.set_handler net 0 (fun ~src:_ _ -> self_time := Engine.now e);
  Net.broadcast net ~src:0 "b";
  Engine.run e;
  Alcotest.(check (float 1e-9)) "self copy at now" 0.0 !self_time

let test_no_handler_counts_dropped () =
  let e, net = make () in
  Net.send net ~src:0 ~dst:1 ~size:1 "x";
  Engine.run e;
  check_int "dropped" 1 (Net.messages_dropped net);
  check_int "not delivered" 0 (Net.messages_delivered net)

let test_fifo_link_order () =
  (* High-variance latency would reorder; FIFO mode must prevent it on a
     single link. *)
  let e, net =
    make ~latency:(Latency.lognormal ~mu:1.0 ~sigma:2.0 ()) ~fifo:true ()
  in
  let got = collect net 1 in
  for i = 0 to 49 do
    Net.send net ~src:0 ~dst:1 ~size:1 i
  done;
  Engine.run e;
  let payloads = List.map snd (got ()) in
  check "in order" true (payloads = List.init 50 Fun.id)

let test_non_fifo_can_reorder () =
  let e, net =
    make ~latency:(Latency.lognormal ~mu:1.0 ~sigma:2.0 ()) ~fifo:false ()
  in
  let got = collect net 1 in
  for i = 0 to 49 do
    Net.send net ~src:0 ~dst:1 ~size:1 i
  done;
  Engine.run e;
  let payloads = List.map snd (got ()) in
  check_int "all arrive" 50 (List.length payloads);
  check "reordered" true (payloads <> List.init 50 Fun.id)

let test_drop_fault () =
  let e, net = make ~fault:(Fault.make ~drop_prob:1.0 ()) () in
  let got = collect net 1 in
  for _ = 1 to 10 do
    Net.send net ~src:0 ~dst:1 ~size:1 ()
  done;
  Engine.run e;
  check "all lost" true (got () = []);
  check_int "dropped" 10 (Net.messages_dropped net)

let test_dup_fault () =
  let e, net = make ~fault:(Fault.make ~dup_prob:1.0 ()) () in
  let got = collect net 1 in
  Net.send net ~src:0 ~dst:1 ~size:1 ();
  Engine.run e;
  check_int "duplicated" 2 (List.length (got ()))

let test_partial_drop_statistics () =
  let e, net = make ~fault:(Fault.make ~drop_prob:0.5 ()) () in
  let got = collect net 1 in
  for _ = 1 to 1000 do
    Net.send net ~src:0 ~dst:1 ~size:1 ()
  done;
  Engine.run e;
  let n = List.length (got ()) in
  check "roughly half" true (n > 400 && n < 600)

let test_partition_and_heal () =
  let e, net = make ~nodes:4 () in
  let got3 = collect net 3 in
  let got1 = collect net 1 in
  Net.partition net [ [ 0; 1 ]; [ 2; 3 ] ];
  Net.send net ~src:0 ~dst:3 ~size:1 "blocked";
  Net.send net ~src:0 ~dst:1 ~size:1 "ok";
  Engine.run e;
  check "cross-cell dropped" true (got3 () = []);
  check "same-cell delivered" true (got1 () = [ (0, "ok") ]);
  Net.heal net;
  Net.send net ~src:0 ~dst:3 ~size:1 "after-heal";
  Engine.run e;
  check "healed" true (got3 () = [ (0, "after-heal") ])

let test_partition_unlisted_singleton () =
  let e, net = make ~nodes:3 () in
  let got2 = collect net 2 in
  Net.partition net [ [ 0; 1 ] ];
  Net.send net ~src:0 ~dst:2 ~size:1 "x";
  Engine.run e;
  check "singleton isolated" true (got2 () = [])

let test_bytes_accounting () =
  let e, net = make () in
  Net.set_handler net 1 (fun ~src:_ _ -> ());
  Net.send net ~src:0 ~dst:1 ~size:100 ();
  Net.send net ~src:0 ~dst:1 ~size:20 ();
  Engine.run e;
  check_int "bytes" 120 (Net.bytes_sent net)

let test_self_broadcast_bytes () =
  (* Every copy of a self-inclusive broadcast travels the same wire
     accounting — the sender's own copy included.  4 nodes x size 10 =
     40 bytes, not 30 (the PR 8 under-report this pins against). *)
  let e, net = make ~nodes:4 () in
  for i = 0 to 3 do
    Net.set_handler net i (fun ~src:_ _ -> ())
  done;
  Net.broadcast net ~src:0 ~size:10 ();
  Engine.run e;
  check_int "bytes charge the self copy" 40 (Net.bytes_sent net);
  check_int "all four copies counted sent" 4 (Net.messages_sent net);
  check_int "all four copies delivered" 4 (Net.messages_delivered net);
  (* excluding the sender drops exactly one copy's bytes *)
  let e2, net2 = make ~nodes:4 () in
  for i = 0 to 3 do
    Net.set_handler net2 i (fun ~src:_ _ -> ())
  done;
  Net.broadcast net2 ~src:0 ~self:false ~size:10 ();
  Engine.run e2;
  check_int "no-self bytes" 30 (Net.bytes_sent net2)

let test_partition_duplicate_membership_rejected () =
  let _, net = make ~nodes:4 () in
  check "duplicate across cells rejected" true
    (try
       Net.partition net [ [ 0; 1 ]; [ 1; 2 ] ];
       false
     with Invalid_argument _ -> true);
  check "duplicate within a cell rejected" true
    (try
       Net.partition net [ [ 0; 0 ]; [ 1 ] ];
       false
     with Invalid_argument _ -> true);
  (* the rejected assignments must not have partitioned anything *)
  let e = Net.engine net in
  let got = collect net 3 in
  Net.send net ~src:0 ~dst:3 ~size:1 "still connected";
  Engine.run e;
  check "net unchanged after rejection" true
    (got () = [ (0, "still connected") ])

let test_dropped_by_cause () =
  (* One drop of each cause; [messages_dropped] stays their sum. *)
  let e, net = make ~nodes:4 () in
  Net.set_handler net 1 (fun ~src:_ _ -> ());
  Net.set_handler net 3 (fun ~src:_ _ -> ());
  Net.partition net [ [ 0; 1 ]; [ 2; 3 ] ];
  Net.send net ~src:0 ~dst:3 ~size:1 "partitioned";
  Net.heal net;
  Net.send net ~src:0 ~dst:2 ~size:1 "no handler";
  Net.set_fault net (Fault.make ~drop_prob:1.0 ());
  Net.send net ~src:0 ~dst:1 ~size:1 "lossy";
  Engine.run e;
  check_int "partition drops" 1 (Net.dropped_by_partition net);
  check_int "injected-loss drops" 1 (Net.dropped_by_loss net);
  check_int "no-handler drops" 1 (Net.dropped_no_handler net);
  check_int "sum" 3 (Net.messages_dropped net);
  (* lost_copies excludes the no-handler case: the copy arrived *)
  check_int "lost on the wire" 2 (Net.lost_copies net)

let test_jitter_delays () =
  let e, net =
    make ~latency:(Latency.constant 1.0)
      ~fault:(Fault.make ~jitter:5.0 ())
      ~fifo:false ()
  in
  let times = ref [] in
  Net.set_handler net 1 (fun ~src:_ _ -> times := Engine.now e :: !times);
  for _ = 1 to 100 do
    Net.send net ~src:0 ~dst:1 ~size:1 ()
  done;
  Engine.run e;
  check "some jitter beyond base" true (List.exists (fun t -> t > 1.5) !times);
  check "all >= base" true (List.for_all (fun t -> t >= 1.0) !times)

let test_invalid_args () =
  let e = Engine.create () in
  check "nodes <= 0" true
    (try
       ignore (Net.create e ~nodes:0 () : unit Net.t);
       false
     with Invalid_argument _ -> true);
  let net : unit Net.t = Net.create e ~nodes:2 () in
  check "bad dst" true
    (try
       Net.send net ~src:0 ~dst:5 ~size:1 ();
       false
     with Invalid_argument _ -> true)

let test_fault_rejects_nan () =
  let rejects name make =
    check name true
      (try
         ignore (make () : Fault.t);
         false
       with Invalid_argument _ -> true)
  in
  rejects "drop nan" (fun () -> Fault.make ~drop_prob:Float.nan ());
  rejects "dup nan" (fun () -> Fault.make ~dup_prob:Float.nan ());
  rejects "jitter nan" (fun () -> Fault.make ~jitter:Float.nan ());
  rejects "jitter inf" (fun () -> Fault.make ~jitter:Float.infinity ())

let test_determinism_same_seed () =
  let run () =
    let e = Engine.create ~seed:7 () in
    let net = Net.create e ~nodes:3 ~latency:Latency.lan ~fifo:false () in
    let log = ref [] in
    for node = 0 to 2 do
      Net.set_handler net node (fun ~src payload ->
          log := (node, src, payload, Engine.now e) :: !log)
    done;
    for i = 0 to 20 do
      Net.broadcast net ~src:(i mod 3) i
    done;
    Engine.run e;
    !log
  in
  check "identical delivery schedule" true (run () = run ())

(* The PR 10 regression: a heal only clears partition cells, so it must
   never resurrect an endpoint removed by [remove_node] — departure wins
   over every later membership event. *)
let test_departed_survives_heal () =
  let e, net = make ~nodes:4 () in
  let got2 = collect net 2 in
  Net.remove_node net 2;
  Net.partition net [ [ 0; 1 ]; [ 2; 3 ] ];
  Net.send net ~src:0 ~dst:2 ~size:1 "during partition";
  Net.heal net;
  Net.send net ~src:0 ~dst:2 ~size:1 "after heal";
  Net.send net ~src:2 ~dst:0 ~size:1 "from the dead";
  Engine.run e;
  check "departed endpoint stays silent" true (got2 () = []);
  check "departed flag persists across heal" true (Net.is_departed net 2);
  (* all three copies were departure drops: the partition never saw
     them (departure wins), and the heal did not bring the node back *)
  check_int "departure drops" 3 (Net.dropped_by_departure net);
  check_int "partition drops" 0 (Net.dropped_by_partition net);
  check_int "lost copies include departures" 3 (Net.lost_copies net)

let test_join_under_partition_isolated () =
  let e, net = make ~nodes:3 () in
  Net.partition net [ [ 0; 1 ]; [ 2 ] ];
  let id = Net.add_node net in
  check_int "fresh id allocated past the founders" 3 id;
  let got = collect net id in
  Net.send net ~src:0 ~dst:id ~size:1 "into the singleton";
  Engine.run e;
  check "joiner is isolated until heal" true (got () = []);
  Net.heal net;
  Net.send net ~src:0 ~dst:id ~size:1 "after heal";
  Engine.run e;
  check "joiner reachable after heal" true
    (got () = [ (0, "after heal") ])

(* Traced Send/Receive records take their "dst=<id>"/"from=<id>" strings
   from per-node tables that grow on first use, so an endpoint that
   [add_node] registers past a table's size must still render its id. *)
let test_traced_info_after_add_node () =
  let e = Engine.create () in
  let trace = Trace.create () in
  let net = Net.create e ~nodes:2 ~trace () in
  for node = 0 to 1 do
    Net.set_handler net node (fun ~src:_ () -> ())
  done;
  Net.send net ~src:0 ~dst:1 ~size:1 ();
  Engine.run e;
  let ids = List.init 4 (fun _ -> Net.add_node net) in
  check "ids past the founders" true (ids = [ 2; 3; 4; 5 ]);
  List.iter (fun id -> Net.set_handler net id (fun ~src:_ () -> ())) ids;
  Net.send net ~src:0 ~dst:4 ~size:1 ();
  Net.send net ~src:5 ~dst:1 ~size:1 ();
  Engine.run e;
  (* (node, info) of one kind, sorted: arrival order is the latency draw's *)
  let records kind =
    List.sort compare
      (List.filter_map
         (fun r ->
           if r.Trace.kind = kind then Some (r.Trace.node, r.Trace.info)
           else None)
         (Trace.events trace))
  in
  Alcotest.(check (list (pair int string)))
    "send records" [ (0, "dst=1"); (0, "dst=4"); (5, "dst=1") ]
    (records Trace.Send);
  Alcotest.(check (list (pair int string)))
    "receive records" [ (1, "from=0"); (1, "from=5"); (4, "from=0") ]
    (records Trace.Receive)

(* A delivered copy's packet goes back to the free list, which must not
   keep the payload it carried reachable: that would hold application
   data for as long as the net lives. *)
let[@inline never] send_capturing net w =
  let unicast = Array.make 100_000 0 and fanned = Array.make 100_000 1 in
  Weak.set w 0 (Some unicast);
  Weak.set w 1 (Some fanned);
  Net.send net ~src:0 ~dst:1 ~size:1 unicast;
  Net.broadcast net ~src:0 fanned

let test_delivered_payloads_released () =
  let e, net = make () in
  for node = 0 to 2 do
    Net.set_handler net node (fun ~src:_ _ -> ())
  done;
  let w = Weak.create 2 in
  send_capturing net w;
  Engine.run e;
  check_int "nothing in flight" 0 (Net.in_flight net);
  Gc.full_major ();
  check "unicast payload collected" false (Weak.check w 0);
  check "broadcast payload collected" false (Weak.check w 1);
  check_int "every copy delivered" 4 (Net.messages_delivered net)

(* An untraced copy allocates nothing on its way through [Net] and the
   engine: no float crosses a module boundary boxed, and packets and
   queue slots are recycled.  100 000 sends go out in batches of 100,
   each drained by [Engine.run], after a warm-up that grows the packet
   pool and the queue; the count is read after a minor collection. *)
let minor_words_per_copy ?fault ~fifo () =
  let e, net = make ~nodes:2 ~fifo ?fault () in
  let received = ref 0 in
  Net.set_handler net 1 (fun ~src:_ () -> incr received);
  let batch () =
    for _ = 1 to 100 do
      Net.send net ~src:0 ~dst:1 ~size:1 ()
    done;
    Engine.run e
  in
  for _ = 1 to 10 do
    batch ()
  done;
  Gc.minor ();
  let before = Gc.minor_words () in
  for _ = 1 to 1_000 do
    batch ()
  done;
  Gc.minor ();
  let words = Gc.minor_words () -. before in
  check "copies delivered" true (!received >= 90_000);
  words /. 100_000.

let test_send_allocates_nothing () =
  let below_one name words =
    check (Printf.sprintf "%s: %.3f minor words per copy" name words) true
      (words < 1.0)
  in
  below_one "fifo" (minor_words_per_copy ~fifo:true ());
  below_one "datagram" (minor_words_per_copy ~fifo:false ());
  below_one "fifo, drop/dup/jitter"
    (minor_words_per_copy ~fifo:true
       ~fault:(Fault.make ~drop_prob:0.1 ~dup_prob:0.1 ~jitter:2.0 ())
       ())

let () =
  Alcotest.run "net"
    [
      ( "delivery",
        [
          Alcotest.test_case "unicast" `Quick test_unicast;
          Alcotest.test_case "unicast latency" `Quick test_unicast_latency_positive;
          Alcotest.test_case "broadcast all" `Quick test_broadcast_all;
          Alcotest.test_case "broadcast no self" `Quick test_broadcast_no_self;
          Alcotest.test_case "self immediate" `Quick test_broadcast_self_immediate;
          Alcotest.test_case "no handler" `Quick test_no_handler_counts_dropped;
          Alcotest.test_case "delivered payloads released" `Quick
            test_delivered_payloads_released;
          Alcotest.test_case "untraced copies allocate nothing" `Quick
            test_send_allocates_nothing;
        ] );
      ( "ordering",
        [
          Alcotest.test_case "fifo link" `Quick test_fifo_link_order;
          Alcotest.test_case "non-fifo reorders" `Quick test_non_fifo_can_reorder;
        ] );
      ( "faults",
        [
          Alcotest.test_case "drop all" `Quick test_drop_fault;
          Alcotest.test_case "duplicate" `Quick test_dup_fault;
          Alcotest.test_case "partial drop" `Quick test_partial_drop_statistics;
          Alcotest.test_case "jitter" `Quick test_jitter_delays;
          Alcotest.test_case "drops by cause" `Quick test_dropped_by_cause;
        ] );
      ( "partitions",
        [
          Alcotest.test_case "partition/heal" `Quick test_partition_and_heal;
          Alcotest.test_case "unlisted singleton" `Quick
            test_partition_unlisted_singleton;
          Alcotest.test_case "duplicate membership" `Quick
            test_partition_duplicate_membership_rejected;
        ] );
      ( "membership",
        [
          Alcotest.test_case "departed survives heal" `Quick
            test_departed_survives_heal;
          Alcotest.test_case "join under partition" `Quick
            test_join_under_partition_isolated;
          Alcotest.test_case "traced ids after add_node" `Quick
            test_traced_info_after_add_node;
        ] );
      ( "misc",
        [
          Alcotest.test_case "bytes" `Quick test_bytes_accounting;
          Alcotest.test_case "self-broadcast bytes" `Quick
            test_self_broadcast_bytes;
          Alcotest.test_case "invalid args" `Quick test_invalid_args;
          Alcotest.test_case "fault NaN rejected" `Quick test_fault_rejects_nan;
          Alcotest.test_case "determinism" `Quick test_determinism_same_seed;
        ] );
    ]
