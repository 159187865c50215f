(* Cross-library integration tests: end-to-end scenarios that exercise the
   full stack (engine -> net -> causal group -> replicas -> checkers) and
   assert the paper's qualitative claims on small instances. *)

module Engine = Causalb_sim.Engine
module Latency = Causalb_sim.Latency
module Net = Causalb_net.Net
module Label = Causalb_graph.Label
module Dep = Causalb_graph.Dep
module Message = Causalb_core.Message
module Group = Causalb_core.Group
module Osend = Causalb_core.Osend
module Bss = Causalb_core.Bss
module Asend = Causalb_core.Asend
module Checker = Causalb_core.Checker
module Dt = Causalb_data.Datatypes
module Replica = Causalb_data.Replica
module Service = Causalb_data.Service
module Stats = Causalb_util.Stats

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let jittery = Latency.lognormal ~mu:0.5 ~sigma:1.2 ()

(* Fig. 1: a data-access message broadcast to all entities updates every
   local copy. *)
let test_fig1_shared_data_broadcast () =
  let e = Engine.create ~seed:1 () in
  let svc =
    Service.create e ~replicas:3 ~spec:Dt.Kv_store.spec ~latency:jittery ()
  in
  ignore (Service.submit svc ~src:0 (Dt.Kv_store.Upd ("file", "contents")));
  Service.run svc;
  List.iter
    (fun r ->
      check "every copy updated" true
        (Dt.Kv_store.lookup (Replica.state r) "file" = Some "contents"))
    (Service.replicas svc)

(* Fig. 2 with data: concurrent incs diverge transiently, agree at the
   synchronizing read. *)
let test_fig2_transient_divergence_and_agreement () =
  let e = Engine.create ~seed:2 () in
  let svc =
    Service.create e ~replicas:3 ~spec:Dt.Int_register.spec
      ~latency:(Latency.lognormal ~mu:2.0 ~sigma:1.0 ())
      ~fifo:false ()
  in
  let diverged = ref false in
  Engine.every e ~period:0.25 ~until:100.0 (fun () ->
      let states = List.map Replica.state (Service.replicas svc) in
      if List.exists (fun s -> s <> List.hd states) states then diverged := true);
  Engine.schedule_at e ~time:0.0 (fun () ->
      ignore (Service.submit svc ~src:0 (Dt.Int_register.Inc 1)));
  Engine.schedule_at e ~time:0.1 (fun () ->
      ignore (Service.submit svc ~src:1 (Dt.Int_register.Inc 2)));
  Engine.schedule_at e ~time:30.0 (fun () ->
      ignore (Service.submit svc ~src:2 Dt.Int_register.Read));
  Service.run svc;
  check "transient divergence observed" true !diverged;
  let stables = List.map Replica.stable_state (Service.replicas svc) in
  check "agreement at sync point" true
    (List.for_all (( = ) 3) stables);
  List.iter (fun (n, ok) -> check n true ok) (Service.check svc)

(* Paper claim (§3.2/T1): causal delivery of commutative traffic is faster
   than funnelling everything through a sequencer. *)
let test_causal_faster_than_sequencer () =
  let ops = 40 and nodes = 4 in
  (* causal path *)
  let e1 = Engine.create ~seed:3 () in
  let svc =
    Service.create e1 ~replicas:nodes ~spec:Dt.Int_register.spec
      ~latency:jittery ~fifo:false ()
  in
  for i = 0 to ops - 1 do
    Engine.schedule_at e1 ~time:(float_of_int i *. 0.5) (fun () ->
        ignore (Service.submit svc ~src:(i mod nodes) (Dt.Int_register.Inc 1)))
  done;
  Service.run svc;
  let causal_mean = Stats.mean (Service.delivery_latency svc) in
  (* sequencer path: same workload shape *)
  let e2 = Engine.create ~seed:3 () in
  let net = Net.create e2 ~nodes ~latency:jittery ~fifo:false () in
  let sent = Hashtbl.create 64 in
  let lat = Stats.create () in
  let g =
    Group.create net
      ~on_deliver:(fun ~node:_ ~time m ->
        match Hashtbl.find_opt sent (Message.payload m) with
        | Some t0 -> Stats.add lat (time -. t0)
        | None -> ())
      ()
  in
  let seq = Asend.Sequencer.create g ~submit_latency:jittery () in
  for i = 0 to ops - 1 do
    Engine.schedule_at e2 ~time:(float_of_int i *. 0.5) (fun () ->
        Hashtbl.replace sent i (Engine.now e2);
        Asend.Sequencer.asend seq ~src:(i mod nodes) i)
  done;
  Engine.run e2;
  check "both measured" true (Stats.count lat > 0 && causal_mean > 0.0);
  check "causal beats sequencer" true (causal_mean < Stats.mean lat)

(* Paper claim (footnote 1 / T6): vector-clock inference forces waits that
   explicit semantic dependencies avoid. *)
let test_bss_forces_more_waits_than_osend () =
  let nodes = 4 and ops = 60 in
  let lat = Latency.lognormal ~mu:1.0 ~sigma:1.3 () in
  (* same logical workload: independent (semantically concurrent) sends *)
  let e1 = Engine.create ~seed:4 () in
  let net1 = Net.create e1 ~nodes ~latency:lat ~fifo:false () in
  let g1 = Group.create net1 () in
  for i = 0 to ops - 1 do
    Engine.schedule_at e1 ~time:(float_of_int i *. 0.4) (fun () ->
        ignore (Group.osend g1 ~src:(i mod nodes) ~dep:Dep.null i))
  done;
  Engine.run e1;
  let osend_waits =
    List.init nodes (fun n -> Osend.pending_count (Group.member g1 n))
    |> List.fold_left ( + ) 0
  in
  let e2 = Engine.create ~seed:4 () in
  let net2 = Net.create e2 ~nodes ~latency:lat ~fifo:false () in
  let g2 = Bss.Group.create net2 () in
  for i = 0 to ops - 1 do
    Engine.schedule_at e2 ~time:(float_of_int i *. 0.4) (fun () ->
        Bss.Group.bcast g2 ~src:(i mod nodes) ~tag:(string_of_int i) ())
  done;
  Engine.run e2;
  let bss_waits =
    List.init nodes (fun n -> Bss.buffered_ever (Bss.Group.member g2 n))
    |> List.fold_left ( + ) 0
  in
  check_int "osend: nothing ever blocked" 0 osend_waits;
  check "bss: false dependencies forced waits" true (bss_waits > 0)

(* Determinism: the entire stack replays identically from a seed. *)
let test_full_stack_deterministic_replay () =
  let run () =
    let e = Engine.create ~seed:5 () in
    let svc =
      Service.create e ~replicas:3 ~spec:Dt.Int_register.spec
        ~latency:jittery ~fifo:false ()
    in
    for i = 0 to 30 do
      Engine.schedule_at e ~time:(float_of_int i *. 0.6) (fun () ->
          let op =
            if i mod 7 = 6 then Dt.Int_register.Read else Dt.Int_register.Inc 1
          in
          ignore (Service.submit svc ~src:(i mod 3) op))
    done;
    Service.run svc;
    ( List.map Replica.applied (Service.replicas svc),
      Stats.mean (Service.delivery_latency svc) )
  in
  let a = run () and b = run () in
  check "identical delivery orders" true
    (List.for_all2 (List.equal Label.equal) (fst a) (fst b));
  check "identical metrics" true (snd a = snd b)

(* Two independent services share one engine without interference. *)
let test_two_services_one_engine () =
  let e = Engine.create ~seed:6 () in
  let svc1 =
    Service.create e ~replicas:3 ~spec:Dt.Int_register.spec
      ~latency:jittery ()
  in
  let svc2 =
    Service.create e ~replicas:2 ~spec:Dt.Kv_store.spec ~latency:jittery ()
  in
  ignore (Service.submit svc1 ~src:0 (Dt.Int_register.Inc 5));
  ignore (Service.submit svc2 ~src:0 (Dt.Kv_store.Upd ("k", "v")));
  ignore (Service.submit svc1 ~src:1 Dt.Int_register.Read);
  Engine.run e;
  check_int "svc1 state" 5 (Replica.stable_state (Service.replica svc1 0));
  check "svc2 state" true
    (Dt.Kv_store.lookup (Replica.state (Service.replica svc2 1)) "k" = Some "v")

(* Multi-register: disjoint-item syncs — the §5.1 decomposition.  Using
   set on item 0 and incs on item 1 in one window would not be
   transition-preserving; the frontend prevents it by classifying set as
   sync.  End-to-end we check convergence of the vector. *)
let test_multi_register_end_to_end () =
  let e = Engine.create ~seed:7 () in
  let svc =
    Service.create e ~replicas:3
      ~spec:(Dt.Multi_register.spec ~items:4)
      ~latency:jittery ~fifo:false ()
  in
  for i = 0 to 40 do
    Engine.schedule_at e ~time:(float_of_int i *. 0.5) (fun () ->
        let op =
          if i mod 10 = 9 then Dt.Multi_register.Read_all
          else Dt.Multi_register.Inc (i mod 4, 1)
        in
        ignore (Service.submit svc ~src:(i mod 3) op))
  done;
  Service.run svc;
  List.iter (fun (n, ok) -> check n true ok) (Service.check svc);
  let finals = List.map Replica.stable_state (Service.replicas svc) in
  check "vectors agree" true (List.for_all (( = ) (List.hd finals)) finals)

(* Stress: larger group, more traffic, checks still hold. *)
let test_stress_group_of_8 () =
  let e = Engine.create ~seed:8 () in
  let svc =
    Service.create e ~replicas:8 ~spec:Dt.Int_register.spec
      ~latency:(Latency.lognormal ~mu:0.8 ~sigma:1.4 ())
      ~fifo:false ()
  in
  for i = 0 to 400 do
    Engine.schedule_at e ~time:(float_of_int i *. 0.25) (fun () ->
        let op =
          if i mod 12 = 11 then Dt.Int_register.Read
          else if i mod 2 = 0 then Dt.Int_register.Inc 1
          else Dt.Int_register.Dec 1
        in
        ignore (Service.submit svc ~src:(i mod 8) op))
  done;
  Service.run svc;
  List.iter (fun (n, ok) -> check n true ok) (Service.check svc);
  check_int "all ops applied everywhere" 401
    (Replica.applied_count (Service.replica svc 7))

let () =
  Alcotest.run "integration"
    [
      ( "scenarios",
        [
          Alcotest.test_case "fig1 shared data" `Quick test_fig1_shared_data_broadcast;
          Alcotest.test_case "fig2 divergence+agreement" `Quick
            test_fig2_transient_divergence_and_agreement;
        ] );
      ( "claims",
        [
          Alcotest.test_case "causal < sequencer latency" `Quick
            test_causal_faster_than_sequencer;
          Alcotest.test_case "bss forces waits" `Quick
            test_bss_forces_more_waits_than_osend;
        ] );
      ( "system",
        [
          Alcotest.test_case "deterministic replay" `Quick
            test_full_stack_deterministic_replay;
          Alcotest.test_case "two services one engine" `Quick
            test_two_services_one_engine;
          Alcotest.test_case "multi-register e2e" `Quick
            test_multi_register_end_to_end;
          Alcotest.test_case "stress group of 8" `Slow test_stress_group_of_8;
        ] );
    ]
