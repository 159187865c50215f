(* PC-broadcast: constant-size causal metadata + dynamic membership.

   Four layers of assurance:

   1. Member mechanics: FIFO parking (a future seq waits, never skips),
      per-origin dedup of flooded duplicates, the adopt-first baseline.
   2. Static groups: every run audited by the offline causal oracle
      (FIFO + causal against the extracted R(M)), on full-mesh and
      sparse overlays, which also proves the overlay connected.
   3. Dynamic membership: π_lock joins see exactly the post-join
      traffic, leaves prune without disturbing survivors, and the churn
      driver's oracle stays clean on a mixed schedule.
   4. PC vs BSS: same seed, same workload — both causal engines deliver
      the same message sets at every node (the orders may legitimately
      interleave concurrent messages differently, so sets, not bytes). *)

module Engine = Causalb_sim.Engine
module Latency = Causalb_sim.Latency
module Net = Causalb_net.Net
module Nemesis = Causalb_net.Nemesis
module Pcb = Causalb_core.Pcbcast
module Codec = Causalb_core.Codec
module Fgroup = Causalb_core.Fgroup
module D = Causalb_harness.Drivers

(* Each node's delivered tags, collected from a group's [on_deliver]. *)
let pc_tag_log () =
  let record, tags = Delivery_log.create () in
  ((fun ~node ~time:_ e -> record ~node e.Pcb.tag), tags)

let bss_tag_log () =
  let record, tags = Delivery_log.create () in
  ((fun ~node ~time:_ e -> record ~node e.Causalb_core.Bss.tag), tags)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let w ops = { D.ops; spacing = 0.5; mix = D.Fixed_window 4 }

(* --- 1. member mechanics --- *)

let silent ~dst:_ _ = ()

let test_parking_restores_fifo () =
  let sender = Pcb.member ~id:1 ~send:silent () in
  let e0, _ = Pcb.next_envelope sender ~tag:"a" 0 in
  let e1, _ = Pcb.next_envelope sender ~tag:"b" 1 in
  let m = Pcb.member ~id:0 ~send:silent () in
  Pcb.init_static m ~n:2 ~degree:None;
  Pcb.receive m ~src:1 (Pcb.Env e1);
  check_int "future seq parks" 0 (Pcb.delivered_count m);
  check_int "one parked copy" 1 (Pcb.pending_count m);
  Pcb.receive m ~src:1 (Pcb.Env e0);
  check_int "gap filled, both delivered" 2 (Pcb.delivered_count m);
  check_int "nothing left parked" 0 (Pcb.pending_count m)

let test_duplicate_copies_deliver_once () =
  let sender = Pcb.member ~id:1 ~send:silent () in
  let e0, _ = Pcb.next_envelope sender 0 in
  let m = Pcb.member ~id:0 ~send:silent () in
  Pcb.init_static m ~n:2 ~degree:None;
  (* the same physical message arrives on two links, as flooding makes
     it do — the per-origin cursor must deliver exactly one copy *)
  Pcb.receive m ~src:1 (Pcb.Env e0);
  Pcb.receive m ~src:2 (Pcb.Env e0);
  check_int "one delivery" 1 (Pcb.delivered_count m)

let test_adopt_first_baseline () =
  (* an unknown origin's first-seen seq becomes the cursor: a joiner
     starts mid-stream without demanding unreachable history *)
  let sender = Pcb.member ~id:1 ~send:silent () in
  for _ = 1 to 5 do
    ignore (Pcb.next_envelope sender 0)
  done;
  let e5, _ = Pcb.next_envelope sender 0 in
  let e6, _ = Pcb.next_envelope sender 0 in
  let m = Pcb.member ~id:0 ~send:silent () in
  Pcb.receive m ~src:1 (Pcb.Env e5);
  Pcb.receive m ~src:1 (Pcb.Env e6);
  check_int "stream adopted mid-flight" 2 (Pcb.delivered_count m)

let app ~origin seq = Pcb.Env { Pcb.origin; seq; tag = ""; body = Pcb.App seq }

let test_cursor_growth_adopts_unknown_origins () =
  (* no [init_static]: origin 7 grows the cursors, and the slots it
     creates for origins below 7 must read "unknown", not "expect 0" —
     else origin 2's first copy (seq 5) would park forever *)
  let m = Pcb.member ~id:0 ~send:silent () in
  Pcb.receive m ~src:1 (app ~origin:7 3);
  Pcb.receive m ~src:1 (app ~origin:2 5);
  check_int "both origins adopted" 2 (Pcb.delivered_count m);
  check_int "nothing parked" 0 (Pcb.pending_count m);
  Pcb.receive m ~src:1 (app ~origin:2 4);
  check_int "below the cursor: a duplicate" 2 (Pcb.delivered_count m);
  check_int "a duplicate never parks" 0 (Pcb.pending_count m);
  Pcb.receive m ~src:1 (app ~origin:2 7);
  check_int "past the cursor: parks" 1 (Pcb.pending_count m);
  Pcb.receive m ~src:1 (app ~origin:2 6);
  check_int "gap filled, both delivered" 4 (Pcb.delivered_count m);
  check_int "parked copy released" 0 (Pcb.pending_count m)

let test_founder_adopts_joiner () =
  let m = Pcb.member ~id:0 ~send:silent () in
  Pcb.init_static m ~n:4 ~degree:None;
  Pcb.receive m ~src:1 (app ~origin:9 2);
  check_int "joiner id past the founders adopted" 1 (Pcb.delivered_count m);
  Pcb.receive m ~src:1 (app ~origin:3 1);
  check_int "founder origins still start at 0" 1 (Pcb.pending_count m)

let test_discard_only_passed_copies () =
  let m = Pcb.member ~id:0 ~send:silent () in
  Pcb.init_static m ~n:4 ~degree:None;
  Pcb.receive m ~src:1 (app ~origin:1 0);
  let received () = (Pcb.metrics m).Causalb_stackbase.Metrics.received in
  check "passed copy discarded" true (Pcb.discard m ~src:2 (app ~origin:1 0));
  check_int "and counted as received" 2 (received ());
  check "first receipt kept" false (Pcb.discard m ~src:2 (app ~origin:1 1));
  check "future seq kept" false (Pcb.discard m ~src:2 (app ~origin:1 5));
  check "unknown origin kept" false (Pcb.discard m ~src:2 (app ~origin:8 0));
  check "lock kept" false (Pcb.discard m ~src:3 Pcb.Lock);
  check_int "kept copies not counted" 2 (received ());
  (* a link under π_lock buffers everything, duplicates included *)
  Pcb.receive m ~src:3 Pcb.Lock;
  check "locked link kept" false (Pcb.discard m ~src:3 (app ~origin:1 0))

(* A member created without a [graph] is unaudited and keeps nothing
   per delivery: the words it holds are the same after 100 first
   receipts as after 10 000.  An audited member holds the label of every
   delivery since its own last send, the contrast that shows the
   measure sees such state. *)
let test_unaudited_member_keeps_no_delivery_state () =
  let words_after ?graph receipts =
    let m = Pcb.member ~id:0 ~send:silent ?graph () in
    Pcb.init_static m ~n:2 ~degree:None;
    for seq = 0 to receipts - 1 do
      Pcb.receive m ~src:1 (app ~origin:1 seq)
    done;
    check_int "every receipt delivered" receipts (Pcb.delivered_count m);
    Obj.reachable_words (Obj.repr m)
  in
  check_int "unaudited: flat over 10 000 first receipts" (words_after 100)
    (words_after 10_000);
  let audited n = words_after ~graph:(Causalb_graph.Depgraph.create ()) n in
  check "audited: grows with the receipts" true
    (audited 10_000 > audited 100)

(* --- 2. static groups under the oracle --- *)

let test_static_runs_oracle_clean () =
  List.iter
    (fun seed ->
      let r = D.run_pc ~seed ~replicas:5 (w 40) in
      check "static oracle clean" true r.D.pc_checks_ok;
      check_int "no loss" 0 r.D.pc_lost;
      check_int "membership stable" 5 r.D.pc_members;
      check_int "every member delivered every op" (5 * 41) r.D.pc_delivered)
    [ 3; 17; 2026 ]

let test_sparse_overlay_reaches_everyone () =
  (* flooding on the ring+chords overlay must reach all members — a
     delivery count equal to n per broadcast proves connectivity *)
  let n = 24 in
  let e = Engine.create ~seed:7 () in
  let net = Net.create e ~nodes:n ~latency:Latency.lan ~fifo:true () in
  let on_deliver, tags = pc_tag_log () in
  let g =
    Fgroup.Pc.create ~degree:4 net ~enc:Codec.put_int ~dec:Codec.get_int
      ~on_deliver ()
  in
  for i = 0 to 5 do
    Engine.schedule_at e ~time:(float_of_int i) (fun () ->
        ignore (Fgroup.Pc.bcast g ~src:(i mod n) ~tag:(Printf.sprintf "op%d" i) i))
  done;
  Engine.run e;
  for i = 0 to n - 1 do
    check_int "member saw all broadcasts" 6 (List.length (tags i))
  done

(* The framed group drops duplicates before [receive]; on the same seed
   it must deliver what the plain group delivers, in the same order,
   with the same per-member counts. *)
let test_framed_equals_plain () =
  let n = 24 and ops = 40 in
  let run make bcast metrics =
    let e = Engine.create ~seed:11 () in
    let net = Net.create e ~nodes:n ~latency:Latency.lan ~fifo:true () in
    let on_deliver, tags = pc_tag_log () in
    let g = make net ~on_deliver in
    for i = 0 to ops - 1 do
      Engine.schedule_at e ~time:(0.3 *. float_of_int i) (fun () ->
          bcast g ~src:((7 * i) mod n) ~tag:(Printf.sprintf "op%d" i) i)
    done;
    Engine.run e;
    List.init n (fun i ->
        let m = metrics g i in
        ( tags i,
          Causalb_stackbase.Metrics.
            (m.received, m.delivered, m.forced_waits) ))
  in
  let plain =
    run
      (fun net ~on_deliver -> Pcb.Group.create ~degree:4 net ~on_deliver ())
      (fun g ~src ~tag i -> ignore (Pcb.Group.bcast g ~src ~tag i))
      (fun g i -> Pcb.metrics (Pcb.Group.member g i))
  in
  let framed =
    run
      (fun net ~on_deliver ->
        Fgroup.Pc.create ~degree:4 net ~enc:Codec.put_int ~dec:Codec.get_int
          ~on_deliver ())
      (fun g ~src ~tag i -> ignore (Fgroup.Pc.bcast g ~src ~tag i))
      Fgroup.Pc.metrics
  in
  check "every member delivered every op" true
    (List.for_all (fun (tags, _) -> List.length tags = ops) plain);
  check "flood produced duplicates" true
    (List.exists (fun (_, (received, delivered, _)) -> received > delivered) plain);
  check "framed = plain: orders and counts" true (framed = plain)

(* --- 3. dynamic membership --- *)

let test_join_sees_post_join_traffic () =
  let e = Engine.create ~seed:5 () in
  let net = Net.create e ~nodes:3 ~fifo:true () in
  let on_deliver, tags = pc_tag_log () in
  let g = Pcb.Group.create net ~on_deliver () in
  Engine.schedule_at e ~time:1.0 (fun () ->
      ignore (Pcb.Group.bcast g ~src:0 ~tag:"pre" 0));
  Engine.schedule_at e ~time:5.0 (fun () ->
      ignore (Pcb.Group.join g ~contact:0));
  Engine.schedule_at e ~time:10.0 (fun () ->
      ignore (Pcb.Group.bcast g ~src:1 ~tag:"post" 1));
  Engine.run e;
  check_int "group grew" 4 (Pcb.Group.size g);
  check "joiner saw post-join traffic" true (List.mem "post" (tags 3));
  check "joiner missed pre-join history" true
    (not (List.mem "pre" (tags 3)));
  List.iter
    (fun i ->
      check "founders saw both" true
        (List.mem "pre" (tags i) && List.mem "post" (tags i)))
    [ 0; 1; 2 ]

let test_leave_prunes_without_disturbing_survivors () =
  let e = Engine.create ~seed:6 () in
  let net = Net.create e ~nodes:4 ~fifo:true () in
  let on_deliver, tags = pc_tag_log () in
  let g = Pcb.Group.create net ~on_deliver () in
  Engine.schedule_at e ~time:1.0 (fun () ->
      ignore (Pcb.Group.bcast g ~src:2 ~tag:"early" 0));
  Engine.schedule_at e ~time:5.0 (fun () -> Pcb.Group.leave g 2);
  Engine.schedule_at e ~time:10.0 (fun () ->
      ignore (Pcb.Group.bcast g ~src:0 ~tag:"late" 1));
  Engine.run e;
  check "alive excludes the departed" true (Pcb.Group.alive g = [ 0; 1; 3 ]);
  List.iter
    (fun i ->
      check "survivors saw the late broadcast" true
        (List.mem "late" (tags i)))
    [ 0; 1; 3 ];
  check "departed member saw nothing new" true
    (not (List.mem "late" (tags 2)))

let test_churn_schedule_oracle_clean () =
  let nemesis =
    [
      { Nemesis.at = 3.0; action = Nemesis.Join { contact = 0 } };
      { Nemesis.at = 8.0; action = Nemesis.Leave 1 };
    ]
  in
  let r = D.run_pc ~seed:9 ~nemesis ~replicas:4 (w 30) in
  check "churn oracle clean" true r.D.pc_checks_ok;
  check_int "one join" 1 (List.length r.D.pc_joined);
  check "the scheduled leave happened" true (r.D.pc_left = [ 1 ]);
  check_int "peak membership" 5 r.D.pc_members

(* --- 4. PC vs BSS on the same workload --- *)

(* Both engines promise causal delivery; on a loss-free static group
   they must deliver the same message SET at every node.  The orders
   may interleave concurrent messages differently (different metadata,
   different admissible schedules), so the comparison is per-node sets,
   deliberately not byte-for-byte transcripts. *)
let delivered_sets run_tags ~nodes = List.init nodes (fun i -> List.sort compare (run_tags i))

let test_pc_vs_bss_same_delivered_sets () =
  let nodes = 4 and ops = 32 in
  List.iter
    (fun seed ->
      let tag i = Printf.sprintf "op%d" i in
      let bss =
        let e = Engine.create ~seed () in
        let net = Net.create e ~nodes ~latency:Latency.lan ~fifo:true () in
        let on_deliver, tags = bss_tag_log () in
        let g =
          Fgroup.Bss.create net ~enc:Codec.put_int ~dec:Codec.get_int
            ~on_deliver ()
        in
        for i = 0 to ops - 1 do
          Engine.schedule_at e ~time:(0.5 *. float_of_int i) (fun () ->
              Fgroup.Bss.bcast g ~src:(i mod nodes) ~tag:(tag i) i)
        done;
        Engine.run e;
        delivered_sets tags ~nodes
      in
      let pc =
        let e = Engine.create ~seed () in
        let net = Net.create e ~nodes ~latency:Latency.lan ~fifo:true () in
        let on_deliver, tags = pc_tag_log () in
        let g =
          Fgroup.Pc.create net ~enc:Codec.put_int ~dec:Codec.get_int
            ~on_deliver ()
        in
        for i = 0 to ops - 1 do
          Engine.schedule_at e ~time:(0.5 *. float_of_int i) (fun () ->
              ignore (Fgroup.Pc.bcast g ~src:(i mod nodes) ~tag:(tag i) i))
        done;
        Engine.run e;
        delivered_sets tags ~nodes
      in
      let all = List.sort compare (List.init ops tag) in
      check "bss delivered everything everywhere" true
        (List.for_all (( = ) all) bss);
      check "pc delivered everything everywhere" true
        (List.for_all (( = ) all) pc);
      check "pc sets = bss sets" true (pc = bss))
    [ 2; 13; 77 ]

let () =
  Alcotest.run "pcbcast"
    [
      ( "member",
        [
          Alcotest.test_case "parking restores fifo" `Quick
            test_parking_restores_fifo;
          Alcotest.test_case "duplicates deliver once" `Quick
            test_duplicate_copies_deliver_once;
          Alcotest.test_case "adopt-first baseline" `Quick
            test_adopt_first_baseline;
          Alcotest.test_case "cursor growth adopts unknown origins" `Quick
            test_cursor_growth_adopts_unknown_origins;
          Alcotest.test_case "founder adopts a joiner" `Quick
            test_founder_adopts_joiner;
          Alcotest.test_case "unaudited member keeps no delivery state"
            `Quick test_unaudited_member_keeps_no_delivery_state;
          Alcotest.test_case "discard drops only passed copies" `Quick
            test_discard_only_passed_copies;
        ] );
      ( "static groups",
        [
          Alcotest.test_case "oracle clean" `Quick
            test_static_runs_oracle_clean;
          Alcotest.test_case "sparse overlay reaches everyone" `Quick
            test_sparse_overlay_reaches_everyone;
          Alcotest.test_case "framed = plain" `Quick test_framed_equals_plain;
        ] );
      ( "membership",
        [
          Alcotest.test_case "join sees post-join traffic" `Quick
            test_join_sees_post_join_traffic;
          Alcotest.test_case "leave prunes survivors' peers" `Quick
            test_leave_prunes_without_disturbing_survivors;
          Alcotest.test_case "churn schedule oracle clean" `Quick
            test_churn_schedule_oracle_clean;
        ] );
      ( "pc vs bss",
        [
          Alcotest.test_case "same delivered sets" `Quick
            test_pc_vs_bss_same_delivered_sets;
        ] );
    ]
