(* Tests for the protocol studies: lock arbitration (§6.2), name service
   (§5.2), card game (§5.1), conferencing. *)

module Engine = Causalb_sim.Engine
module Latency = Causalb_sim.Latency
module Stats = Causalb_util.Stats
module Lock = Causalb_protocols.Lock_service
module Ns = Causalb_protocols.Name_service
module Cards = Causalb_protocols.Card_game
module Conf = Causalb_protocols.Conference
module Dt = Causalb_data.Datatypes
module Replica = Causalb_data.Replica
module Service = Causalb_data.Service

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* --- Lock service --- *)

let run_lock ?(members = 3) ?(cycles = 4) ?requesters ?seed () =
  let e = Engine.create ?seed () in
  let t =
    Lock.create e ~members
      ~latency:(Latency.lognormal ~mu:0.3 ~sigma:0.8 ())
      ?requesters ()
  in
  Lock.start t ~cycles;
  Engine.run e;
  (e, t)

let test_lock_basic_cycle () =
  let _, t = run_lock ~members:3 ~cycles:1 () in
  check_int "one cycle" 1 (Lock.cycles_completed t);
  check_int "three grants" 3 (List.length (Lock.grants t));
  check "mutual exclusion" true (Lock.check_mutual_exclusion t);
  check "agreement" true (Lock.check_agreement t);
  check "liveness" true (Lock.check_liveness t ~expected_cycles:1)

let test_lock_multi_cycle () =
  let _, t = run_lock ~members:4 ~cycles:5 ~seed:7 () in
  check_int "five cycles" 5 (Lock.cycles_completed t);
  check_int "grants" 20 (List.length (Lock.grants t));
  check "mutual exclusion" true (Lock.check_mutual_exclusion t);
  check "agreement" true (Lock.check_agreement t);
  check "liveness" true (Lock.check_liveness t ~expected_cycles:5);
  check "durations recorded" true (Stats.count (Lock.cycle_durations t) = 5)

let test_lock_rotating_fairness () =
  (* The arbiter rotates: cycle 0 starts at member 0, cycle 1 at 1, ... *)
  let _, t = run_lock ~members:3 ~cycles:3 ~seed:9 () in
  let first_holder cycle =
    match List.filter (fun g -> g.Lock.cycle = cycle) (Lock.grants t) with
    | g :: _ -> g.Lock.holder
    | [] -> -1
  in
  check_int "cycle 0 head" 0 (first_holder 0);
  check_int "cycle 1 head" 1 (first_holder 1);
  check_int "cycle 2 head" 2 (first_holder 2)

let test_lock_subset_requesters () =
  let requesters ~cycle = if cycle mod 2 = 0 then [ 0; 2 ] else [ 1 ] in
  let _, t = run_lock ~members:3 ~cycles:4 ~requesters ~seed:11 () in
  check_int "cycles" 4 (Lock.cycles_completed t);
  check "liveness per requester set" true
    (Lock.check_liveness t ~expected_cycles:4);
  check "mutual exclusion" true (Lock.check_mutual_exclusion t);
  check_int "grants = 2+1+2+1" 6 (List.length (Lock.grants t))

let test_lock_single_member () =
  let _, t = run_lock ~members:1 ~cycles:3 () in
  check_int "cycles" 3 (Lock.cycles_completed t);
  check "exclusion trivial" true (Lock.check_mutual_exclusion t)

let test_lock_wait_times_positive () =
  let _, t = run_lock ~members:4 ~cycles:3 ~seed:13 () in
  check "wait samples" true (Stats.count (Lock.wait_times t) = 12);
  check "non-negative" true (Stats.min_value (Lock.wait_times t) >= 0.0)

let test_lock_agreement_orders_recorded () =
  let _, t = run_lock ~members:3 ~cycles:2 ~seed:15 () in
  List.iter
    (fun node ->
      check_int
        (Printf.sprintf "orders at %d" node)
        2
        (List.length (Lock.arbitration_orders t node)))
    [ 0; 1; 2 ]

(* --- Page service --- *)

module Page = Causalb_protocols.Page_service

let run_pages ?(members = 3) ?(cycles = 4) ?requesters ?(seed = 2) () =
  let e = Engine.create ~seed () in
  let mutate ~member ~page:(p : Page.page) =
    Printf.sprintf "%s+w%d.%d" p.Page.data member (p.Page.version + 1)
  in
  let t =
    Page.create e ~members ~mutate
      ~latency:(Latency.lognormal ~mu:0.3 ~sigma:0.8 ())
      ?requesters ()
  in
  Page.start t ~cycles;
  Engine.run e;
  t

let test_page_no_lost_updates () =
  let t = run_pages ~members:3 ~cycles:4 () in
  (* every member requests every cycle: 12 writes *)
  check "no lost updates" true (Page.check_no_lost_updates t ~expected_writes:12);
  check "copies converge" true (Page.check_copies_converge t);
  check "versions monotone" true (Page.check_versions_monotone t)

let test_page_write_lineage () =
  let t = run_pages ~members:2 ~cycles:2 () in
  let writes = Page.writes t in
  check_int "four writes" 4 (List.length writes);
  (* rotating arbiter: cycle 0 order = [0;1], cycle 1 = [1;0] *)
  Alcotest.(check (list (pair int int)))
    "version lineage"
    [ (1, 0); (2, 1); (3, 1); (4, 0) ]
    writes

let test_page_contents_accumulate () =
  let t = run_pages ~members:2 ~cycles:1 () in
  let final = Page.page_at t 0 in
  check "both writes present" true
    (String.length final.Page.data > 0
    && final.Page.version = 2
    && final.Page.writer = 1)

let test_page_subset_requesters () =
  let requesters ~cycle = if cycle = 0 then [ 1 ] else [ 0; 2 ] in
  let t = run_pages ~members:3 ~cycles:2 ~requesters () in
  check "no lost updates" true (Page.check_no_lost_updates t ~expected_writes:3);
  check "converge" true (Page.check_copies_converge t)

let test_page_all_members_see_every_version () =
  let t = run_pages ~members:4 ~cycles:3 ~seed:5 () in
  for node = 0 to 3 do
    check_int
      (Printf.sprintf "node %d applied all versions" node)
      12
      (List.length (Page.versions_applied t node))
  done

(* The page service runs the lock protocol with the page on every
   transfer: on one seed and one parameter set, with a partial requester
   set in some cycles, the page's writers are the lock's holders in grant
   order, and both send the same number of copies. *)
let test_page_runs_lock_protocol () =
  let members = 5 and cycles = 4 and seed = 31 in
  let requesters ~cycle =
    match cycle mod 3 with 1 -> [ 0; 2; 3 ] | 2 -> [ 4; 1 ] | _ -> []
  in
  let latency = Latency.lognormal ~mu:0.3 ~sigma:1.1 () in
  let e = Engine.create ~seed () in
  let lock = Lock.create e ~members ~latency ~requesters () in
  Lock.start lock ~cycles;
  Engine.run e;
  let e = Engine.create ~seed () in
  let page =
    Page.create e ~members
      ~mutate:(fun ~member ~page:_ -> string_of_int member)
      ~latency ~requesters ()
  in
  Page.start page ~cycles;
  Engine.run e;
  Alcotest.(check (list int))
    "writers = holders"
    (List.map (fun g -> g.Lock.holder) (Lock.grants lock))
    (List.map snd (Page.writes page));
  check_int "grants" 15 (List.length (Lock.grants lock));
  check_int "messages" (Lock.messages_sent lock) (Page.messages_sent page)

(* --- Name service --- *)

let drive_ns ?(servers = 3) ~mode ~updates ~queries ?(seed = 42) () =
  let e = Engine.create ~seed () in
  let t =
    Ns.create e ~servers ~mode ~latency:(Latency.lognormal ~mu:0.5 ~sigma:1.0 ()) ()
  in
  let rng = Engine.fork_rng e in
  let keys = [| "alpha"; "beta"; "gamma" |] in
  let total = updates + queries in
  let ops =
    List.init total (fun i -> if i < updates then `Upd else `Qry)
    |> Array.of_list
  in
  Causalb_util.Rng.shuffle rng ops;
  Array.iteri
    (fun i kind ->
      let src = i mod servers in
      let key = Causalb_util.Rng.pick rng keys in
      Engine.schedule_at e ~time:(float_of_int i *. 0.8) (fun () ->
          match kind with
          | `Upd -> Ns.update t ~src ~key (Printf.sprintf "v%d" i)
          | `Qry -> Ns.query t ~src ~key))
    ops;
  Engine.run e;
  t

let test_ns_app_check_soundness () =
  let t = drive_ns ~mode:Ns.App_check ~updates:20 ~queries:40 () in
  check_int "all queries issued" 40 (Ns.queries_issued t);
  check "valid answers agree" true (Ns.valid_answers_agree t);
  check_int "answers = queries * servers" (40 * 3)
    (List.length (Ns.answers t))

let test_ns_app_check_discards_under_updates () =
  let t = drive_ns ~mode:Ns.App_check ~updates:40 ~queries:40 ~seed:3 () in
  check "some discards under heavy updates" true (Ns.answers_discarded t > 0);
  check "but never inconsistent" true (Ns.valid_answers_agree t)

let test_ns_total_order_no_discards () =
  let t = drive_ns ~mode:Ns.Total_order ~updates:40 ~queries:40 ~seed:3 () in
  check_int "no discards" 0 (Ns.answers_discarded t);
  check "final states agree" true (Ns.final_states_agree t);
  check "all answers agree" true (Ns.valid_answers_agree t)

let test_ns_read_only_workload_all_clean () =
  let t = drive_ns ~mode:Ns.App_check ~updates:0 ~queries:30 () in
  check_int "no discards without updates" 0 (Ns.answers_discarded t);
  check_int "all clean" 30 (Ns.queries_clean t);
  check "registry trivially agrees" true (Ns.final_states_agree t)

let test_ns_discard_rate_monotone_in_update_rate () =
  let rate updates =
    Ns.discard_fraction
      (drive_ns ~mode:Ns.App_check ~updates ~queries:60 ~seed:5 ())
  in
  let low = rate 5 and high = rate 60 in
  check "more updates, more discards" true (high > low)

let test_ns_latency_total_order_higher () =
  let lat mode =
    Stats.mean
      (Ns.answer_latency (drive_ns ~mode ~updates:10 ~queries:50 ~seed:8 ()))
  in
  check "sequencer adds latency" true (lat Ns.Total_order > lat Ns.App_check)

(* --- Causal memory (ref [5] baseline) --- *)

module Cmem = Causalb_protocols.Causal_memory

let test_cmem_basic () =
  let e = Engine.create ~seed:81 () in
  let m = Cmem.create e ~nodes:3 () in
  Cmem.write m ~node:0 ~var:"x" 1;
  Engine.run e;
  for node = 0 to 2 do
    check "x visible" true (Cmem.read m ~node ~var:"x" = Some 1)
  done;
  check "unknown var" true (Cmem.read m ~node:0 ~var:"y" = None)

let test_cmem_causal_chain () =
  (* node 1 reads x then writes y: every node must apply x's write before
     y's (writes-into relation preserved) *)
  let e = Engine.create ~seed:82 () in
  let m = Cmem.create e ~nodes:3 ~latency:(Latency.lognormal ~mu:1.0 ~sigma:1.5 ()) () in
  Cmem.write m ~node:0 ~var:"x" 7;
  Engine.run e;
  (* node 1 has seen x=7; its next write is causally after *)
  check "node1 sees x" true (Cmem.read m ~node:1 ~var:"x" = Some 7);
  Cmem.write m ~node:1 ~var:"y" 8;
  Engine.run e;
  check "causal application" true (Cmem.check_causal_application m);
  for node = 0 to 2 do
    let ops = Cmem.applied m node in
    let ix v = Option.get (List.find_index (fun (var, _) -> var = v) ops) in
    check "x before y everywhere" true (ix "x" < ix "y")
  done

let test_cmem_concurrent_writes_diverge_or_agree_silently () =
  (* concurrent writes to one variable: both orders are causally legal;
     nodes may end disagreeing — the divergence stable points remove *)
  let diverged = ref 0 in
  for seed = 0 to 19 do
    let e = Engine.create ~seed () in
    let m = Cmem.create e ~nodes:3 ~latency:(Latency.lognormal ~mu:0.5 ~sigma:1.5 ()) () in
    Cmem.write m ~node:0 ~var:"x" 100;
    Cmem.write m ~node:1 ~var:"x" 200;
    Engine.run e;
    check "still causally safe" true (Cmem.check_causal_application m);
    if not (Cmem.nodes_agree_on m ~var:"x") then incr diverged
  done;
  check "some runs diverge permanently" true (!diverged > 0)

let test_cmem_per_writer_order () =
  let e = Engine.create ~seed:84 () in
  let m = Cmem.create e ~nodes:4 ~latency:(Latency.lognormal ~mu:0.5 ~sigma:1.5 ()) () in
  for i = 0 to 19 do
    Cmem.write m ~node:(i mod 4) ~var:(Printf.sprintf "v%d" (i mod 3)) i
  done;
  Engine.run e;
  check "per-writer order" true (Cmem.check_per_writer_order m);
  check "causal application" true (Cmem.check_causal_application m);
  check_int "all writes everywhere" 20 (List.length (Cmem.applied m 3))

(* --- Card game --- *)

let run_cards ?(players = 4) ?(rounds = 3) ~mode ?(seed = 1) () =
  let e = Engine.create ~seed () in
  let t =
    Cards.create e ~players ~mode
      ~latency:(Latency.lognormal ~mu:0.3 ~sigma:0.6 ())
      ~think:(Latency.exponential ~mean:1.5 ())
      ()
  in
  Cards.start t ~rounds;
  Engine.run e;
  t

let test_cards_strict_completes () =
  let t = run_cards ~mode:Cards.Strict_turns () in
  check_int "rounds" 3 (Cards.rounds_completed t);
  check "causal order" true (Cards.check_causal_order t);
  check "tables agree" true (Cards.check_tables_agree t)

let test_cards_relaxed_completes () =
  let dep ~round:_ ~player = if player = 1 then 0 else player / 2 in
  let t = run_cards ~mode:(Cards.Relaxed dep) () in
  check_int "rounds" 3 (Cards.rounds_completed t);
  check "causal order" true (Cards.check_causal_order t);
  check "tables agree" true (Cards.check_tables_agree t)

let test_cards_relaxed_faster () =
  (* Relaxed ordering means more concurrent thinking: rounds finish
     sooner than strict turn-taking (paper's higher-concurrency claim). *)
  let strict = run_cards ~players:6 ~rounds:4 ~mode:Cards.Strict_turns ~seed:2 () in
  let dep ~round:_ ~player:_ = 0 in
  let relaxed = run_cards ~players:6 ~rounds:4 ~mode:(Cards.Relaxed dep) ~seed:2 () in
  check "relaxed rounds faster on average" true
    (Stats.mean (Cards.round_durations relaxed)
    < Stats.mean (Cards.round_durations strict))

let test_cards_bad_dependency_rejected () =
  let e = Engine.create () in
  let dep ~round:_ ~player = player (* not < player *) in
  let t = Cards.create e ~players:3 ~mode:(Cards.Relaxed dep) () in
  Cards.start t ~rounds:1;
  check "invalid dep raises" true
    (try
       Engine.run e;
       false
     with Invalid_argument _ -> true)

(* --- Conference --- *)

let test_conference_session () =
  let e = Engine.create ~seed:4 () in
  let t = Conf.create e ~participants:4 ~sections:3 () in
  Conf.run_session t ~annotations:40 ~commit_every:8 ();
  check_int "annotations" 40 (Conf.annotations_sent t);
  check_int "commits" 5 (Conf.commits_sent t);
  List.iter (fun (name, ok) -> check name true ok) (Conf.check t)

let test_conference_deferred_view () =
  let e = Engine.create ~seed:6 () in
  let t = Conf.create e ~participants:3 ~sections:2 () in
  let got = ref None in
  Conf.annotate t ~participant:1 ~section:0 "hello";
  Conf.request_view t ~participant:2 (fun doc -> got := Some doc);
  Conf.commit t ~moderator:0 ~section:0 ~body:"v1";
  Engine.run e;
  (match !got with
  | None -> Alcotest.fail "view never delivered"
  | Some doc ->
    check "committed body visible" true (doc.(0).Dt.Document.body = "v1"));
  (* the deferred view equals the stable state at every replica *)
  let states =
    List.map Replica.stable_state (Service.replicas (Conf.service t))
  in
  check "replicas agree" true
    (List.for_all (( = ) (List.hd states)) states)

let test_conference_annotations_survive_reordering () =
  let e = Engine.create ~seed:8 () in
  let t = Conf.create e ~participants:5 ~sections:1 () in
  Conf.run_session t ~annotations:25 ~commit_every:26 ();
  (* no commit: all replicas hold the same 25 annotations mid-window
     because annotations commute (set semantics) *)
  let states = List.map Replica.state (Service.replicas (Conf.service t)) in
  let count s = Dt.Document.String_set.cardinal s.(0).Dt.Document.annotations in
  let spec = Dt.Document.spec ~sections:1 in
  check_int "all annotations at r0" 25 (count (List.hd states));
  check "replicas identical despite different orders" true
    (List.for_all (spec.Causalb_data.Seq_spec.equal (List.hd states)) states)

let () =
  Alcotest.run "protocols"
    [
      ( "lock",
        [
          Alcotest.test_case "basic cycle" `Quick test_lock_basic_cycle;
          Alcotest.test_case "multi cycle" `Quick test_lock_multi_cycle;
          Alcotest.test_case "rotating fairness" `Quick test_lock_rotating_fairness;
          Alcotest.test_case "subset requesters" `Quick test_lock_subset_requesters;
          Alcotest.test_case "single member" `Quick test_lock_single_member;
          Alcotest.test_case "wait times" `Quick test_lock_wait_times_positive;
          Alcotest.test_case "orders recorded" `Quick
            test_lock_agreement_orders_recorded;
        ] );
      ( "page-service",
        [
          Alcotest.test_case "no lost updates" `Quick test_page_no_lost_updates;
          Alcotest.test_case "write lineage" `Quick test_page_write_lineage;
          Alcotest.test_case "contents accumulate" `Quick
            test_page_contents_accumulate;
          Alcotest.test_case "subset requesters" `Quick
            test_page_subset_requesters;
          Alcotest.test_case "all see every version" `Quick
            test_page_all_members_see_every_version;
          Alcotest.test_case "runs the lock protocol" `Quick
            test_page_runs_lock_protocol;
        ] );
      ( "name-service",
        [
          Alcotest.test_case "app-check soundness" `Quick test_ns_app_check_soundness;
          Alcotest.test_case "discards under updates" `Quick
            test_ns_app_check_discards_under_updates;
          Alcotest.test_case "total order: no discards" `Quick
            test_ns_total_order_no_discards;
          Alcotest.test_case "read-only clean" `Quick
            test_ns_read_only_workload_all_clean;
          Alcotest.test_case "discard rate monotone" `Quick
            test_ns_discard_rate_monotone_in_update_rate;
          Alcotest.test_case "total order latency" `Quick
            test_ns_latency_total_order_higher;
        ] );
      ( "causal-memory",
        [
          Alcotest.test_case "basic" `Quick test_cmem_basic;
          Alcotest.test_case "causal chain" `Quick test_cmem_causal_chain;
          Alcotest.test_case "concurrent divergence" `Quick
            test_cmem_concurrent_writes_diverge_or_agree_silently;
          Alcotest.test_case "per-writer order" `Quick test_cmem_per_writer_order;
        ] );
      ( "card-game",
        [
          Alcotest.test_case "strict completes" `Quick test_cards_strict_completes;
          Alcotest.test_case "relaxed completes" `Quick test_cards_relaxed_completes;
          Alcotest.test_case "relaxed faster" `Quick test_cards_relaxed_faster;
          Alcotest.test_case "bad dependency" `Quick test_cards_bad_dependency_rejected;
        ] );
      ( "conference",
        [
          Alcotest.test_case "session" `Quick test_conference_session;
          Alcotest.test_case "deferred view" `Quick test_conference_deferred_view;
          Alcotest.test_case "reordering tolerated" `Quick
            test_conference_annotations_survive_reordering;
        ] );
    ]
