(* Tests for the shared-data framework: sequential specs, datatypes,
   replicas, the §6.1 front-end, consistency checkers, and the assembled
   Service. *)

module Engine = Causalb_sim.Engine
module Latency = Causalb_sim.Latency
module Label = Causalb_graph.Label
module Dep = Causalb_graph.Dep
module Message = Causalb_core.Message
module Group = Causalb_core.Group
module Net = Causalb_net.Net
module Op = Causalb_data.Op
module Seq_spec = Causalb_data.Seq_spec
module Dt = Causalb_data.Datatypes
module Replica = Causalb_data.Replica
module Frontend = Causalb_data.Frontend
module Consistency = Causalb_data.Consistency
module Service = Causalb_data.Service
module Stats = Causalb_util.Stats

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let l origin seq = Label.make ~origin ~seq ()

let msg ~origin ~seq ~dep payload =
  Message.make ~label:(l origin seq) ~sender:origin ~dep payload

(* --- Specs & datatypes --- *)

(* [apply] folded over a sequence from [init]. *)
let run (spec : _ Seq_spec.t) ops = List.fold_left spec.apply spec.init ops

let test_int_register_semantics () =
  let m = Dt.Int_register.spec in
  let s = run m [ Dt.Int_register.Inc 5; Dt.Int_register.Dec 2 ] in
  check_int "5-2" 3 s;
  check_int "set overwrites" 9 (m.Seq_spec.apply s (Dt.Int_register.Set 9));
  check_int "read is identity" 3 (m.Seq_spec.apply s Dt.Int_register.Read)

let test_int_register_kinds () =
  let m = Dt.Int_register.spec in
  check "inc commutative" true (Seq_spec.kind m (Dt.Int_register.Inc 1) = Op.Commutative);
  check "dec commutative" true (Seq_spec.kind m (Dt.Int_register.Dec 1) = Op.Commutative);
  check "set sync" true (Seq_spec.kind m (Dt.Int_register.Set 1) = Op.Non_commutative);
  check "read sync" true (Seq_spec.kind m Dt.Int_register.Read = Op.Non_commutative)

let test_commute_at () =
  let m = Dt.Int_register.spec in
  check "inc/dec commute" true
    (Seq_spec.commute_at m 0 (Dt.Int_register.Inc 3) (Dt.Int_register.Dec 1));
  check "inc/set do not" false
    (Seq_spec.commute_at m 0 (Dt.Int_register.Inc 3) (Dt.Int_register.Set 7))

let test_multi_register () =
  let m = Dt.Multi_register.spec ~items:3 in
  let s = run m [ Dt.Multi_register.Inc (0, 2); Dt.Multi_register.Inc (2, 5) ] in
  check "independent items" true (s = [| 2; 0; 5 |]);
  check "disjoint ops commute" true
    (Seq_spec.commute_at m m.Seq_spec.init
       (Dt.Multi_register.Set (0, 1))
       (Dt.Multi_register.Set (1, 2)));
  check "same-item sets do not" false
    (Seq_spec.commute_at m m.Seq_spec.init
       (Dt.Multi_register.Set (0, 1))
       (Dt.Multi_register.Set (0, 2)))

let test_kv_store () =
  let m = Dt.Kv_store.spec in
  let s =
    run m [ Dt.Kv_store.Upd ("a", "1"); Dt.Kv_store.Upd ("b", "2") ]
  in
  check "lookup" true (Dt.Kv_store.lookup s "a" = Some "1");
  check "qry identity" true
    (m.Seq_spec.equal s (m.Seq_spec.apply s (Dt.Kv_store.Qry "a")));
  let s' = m.Seq_spec.apply s (Dt.Kv_store.Del "a") in
  check "del" true (Dt.Kv_store.lookup s' "a" = None);
  check "qry commutative" true (Seq_spec.kind m (Dt.Kv_store.Qry "x") = Op.Commutative);
  check "upd sync" true
    (Seq_spec.kind m (Dt.Kv_store.Upd ("x", "y")) = Op.Non_commutative)

let test_document () =
  let m = Dt.Document.spec ~sections:2 in
  let s =
    run m
      [
        Dt.Document.Annotate (0, "n1");
        Dt.Document.Annotate (0, "n2");
        Dt.Document.Annotate (1, "other");
      ]
  in
  check "annotations commute" true
    (Seq_spec.commute_at m m.Seq_spec.init
       (Dt.Document.Annotate (0, "a"))
       (Dt.Document.Annotate (0, "b")));
  check "commit does not commute with annotate" false
    (Seq_spec.commute_at m s
       (Dt.Document.Annotate (0, "late"))
       (Dt.Document.Commit (0, "final")));
  let s' = m.Seq_spec.apply s (Dt.Document.Commit (0, "v1")) in
  check "commit clears notes" true
    (Dt.Document.String_set.is_empty s'.(0).Dt.Document.annotations);
  check "render mentions body" true
    (String.length (Dt.Document.render s') > 0)

let test_log () =
  let m = Dt.Log.spec in
  let e1 = Dt.Log.entry ~author:0 ~seq:0 "hi" in
  let e2 = Dt.Log.entry ~author:1 ~seq:0 "yo" in
  check "appends commute" true
    (Seq_spec.commute_at m m.Seq_spec.init (Dt.Log.Append e1) (Dt.Log.Append e2));
  check "seal does not commute with append" false
    (Seq_spec.commute_at m m.Seq_spec.init (Dt.Log.Append e1) Dt.Log.Seal);
  let s =
    run m [ Dt.Log.Append e2; Dt.Log.Append e1; Dt.Log.Seal ]
  in
  check "canonical order in sealed segment" true
    (s.Dt.Log.sealed = [ [ e1; e2 ] ]);
  check "open empty after seal" true (s.Dt.Log.open_ = []);
  (* duplicate append is idempotent (set semantics) *)
  let s' = run m [ Dt.Log.Append e1; Dt.Log.Append e1 ] in
  check_int "dedup" 1 (List.length s'.Dt.Log.open_)

let test_log_service_end_to_end () =
  let e = Engine.create ~seed:39 () in
  let svc =
    Service.create e ~replicas:3 ~spec:Dt.Log.spec
      ~latency:(Latency.lognormal ~mu:0.5 ~sigma:1.2 ())
      ~fifo:false ()
  in
  let seqs = Array.make 3 0 in
  for i = 0 to 40 do
    Engine.schedule_at e ~time:(float_of_int i *. 0.5) (fun () ->
        let src = i mod 3 in
        let op =
          if i mod 12 = 11 then Dt.Log.Seal
          else begin
            let seq = seqs.(src) in
            seqs.(src) <- seq + 1;
            Dt.Log.Append
              (Dt.Log.entry ~author:src ~seq (Printf.sprintf "msg%d" i))
          end
        in
        ignore (Service.submit svc ~src op))
  done;
  Service.run svc;
  List.iter (fun (n, ok) -> check n true ok) (Service.check svc);
  let finals = List.map Replica.stable_state (Service.replicas svc) in
  check "logs agree" true (List.for_all (( = ) (List.hd finals)) finals)

let test_bank_account () =
  let m = Dt.Bank_account.spec in
  let s =
    run m
      [ Dt.Bank_account.Deposit 100; Dt.Bank_account.Withdraw 30 ]
  in
  check_int "balance" 70 s.Dt.Bank_account.balance;
  check "deposit/withdraw commute" true
    (Seq_spec.commute_at m m.Seq_spec.init (Dt.Bank_account.Deposit 5)
       (Dt.Bank_account.Withdraw 3));
  (* checked withdrawal is order-sensitive near the boundary *)
  check "checked withdraw does not commute with deposit" false
    (Seq_spec.commute_at m m.Seq_spec.init (Dt.Bank_account.Deposit 10)
       (Dt.Bank_account.Withdraw_checked 10));
  let s' = m.Seq_spec.apply m.Seq_spec.init (Dt.Bank_account.Withdraw_checked 10) in
  check_int "rejected on insufficient funds" 1 s'.Dt.Bank_account.rejected;
  check_int "balance unchanged" 0 s'.Dt.Bank_account.balance;
  check "audit sync" true
    (Seq_spec.kind m Dt.Bank_account.Audit = Op.Non_commutative)

let test_bank_account_service_end_to_end () =
  let e = Engine.create ~seed:37 () in
  let svc =
    Service.create e ~replicas:3 ~spec:Dt.Bank_account.spec
      ~latency:Latency.lan ~fifo:false ()
  in
  for i = 0 to 50 do
    Engine.schedule_at e ~time:(float_of_int i *. 0.5) (fun () ->
        let op =
          if i mod 10 = 9 then Dt.Bank_account.Audit
          else if i mod 2 = 0 then Dt.Bank_account.Deposit 10
          else Dt.Bank_account.Withdraw 4
        in
        ignore (Service.submit svc ~src:(i mod 3) op))
  done;
  Service.run svc;
  List.iter (fun (n, ok) -> check n true ok) (Service.check svc);
  let finals =
    List.map Replica.stable_state (Service.replicas svc)
  in
  check "balances agree" true (List.for_all (( = ) (List.hd finals)) finals)

let test_card_table () =
  let m = Dt.Card_table.spec in
  check "plays commute" true
    (Seq_spec.commute_at m m.Seq_spec.init
       (Dt.Card_table.Play (0, "S2"))
       (Dt.Card_table.Play (1, "H5")));
  let s =
    run m
      [
        Dt.Card_table.Play (1, "H5");
        Dt.Card_table.Play (0, "S2");
        Dt.Card_table.Round_end;
      ]
  in
  check "round recorded sorted" true
    (s.Dt.Card_table.finished = [ [ (0, "S2"); (1, "H5") ] ]);
  check "table cleared" true (s.Dt.Card_table.table = [])

(* --- Replica --- *)

let int_spec = Dt.Int_register.spec

let test_replica_applies_and_cycles () =
  let r = Replica.create ~id:0 ~spec:int_spec () in
  Replica.on_deliver r (msg ~origin:0 ~seq:0 ~dep:Dep.null (Dt.Int_register.Inc 2));
  Replica.on_deliver r (msg ~origin:1 ~seq:0 ~dep:Dep.null (Dt.Int_register.Inc 3));
  check_int "mid-window state" 5 (Replica.state r);
  check_int "stable state still init" 0 (Replica.stable_state r);
  check_int "no cycle yet" 0 (Replica.cycles_closed r);
  Replica.on_deliver r (msg ~origin:0 ~seq:1 ~dep:Dep.null Dt.Int_register.Read);
  check_int "cycle closed" 1 (Replica.cycles_closed r);
  check_int "stable now 5" 5 (Replica.stable_state r);
  let c = List.hd (Replica.cycles r) in
  check_int "window ops" 2 (List.length c.Replica.window);
  check_int "start state" 0 c.Replica.start_state;
  check_int "end state" 5 c.Replica.end_state

let test_replica_deferred_read () =
  let r = Replica.create ~id:0 ~spec:int_spec () in
  let got = ref None in
  Replica.on_deliver r (msg ~origin:0 ~seq:0 ~dep:Dep.null (Dt.Int_register.Inc 7));
  Replica.read_deferred r (fun s -> got := Some s);
  check_int "pending" 1 (Replica.pending_reads r);
  check "not fired" true (!got = None);
  Replica.on_deliver r (msg ~origin:0 ~seq:1 ~dep:Dep.null Dt.Int_register.Read);
  check "fired with stable value" true (!got = Some 7);
  check_int "drained" 0 (Replica.pending_reads r)

let test_replica_on_stable_callback () =
  let fired = ref [] in
  let r =
    Replica.create ~id:0 ~spec:int_spec
      ~on_stable:(fun c -> fired := c.Replica.index :: !fired)
      ()
  in
  Replica.on_deliver r (msg ~origin:0 ~seq:0 ~dep:Dep.null Dt.Int_register.Read);
  Replica.on_deliver r (msg ~origin:0 ~seq:1 ~dep:Dep.null Dt.Int_register.Read);
  Alcotest.(check (list int)) "cycle indices" [ 0; 1 ] (List.rev !fired)

let test_replica_snapshots () =
  let r = Replica.create ~id:0 ~spec:int_spec () in
  List.iteri
    (fun i op -> Replica.on_deliver r (msg ~origin:0 ~seq:i ~dep:Dep.null op))
    [
      Dt.Int_register.Inc 1;
      Dt.Int_register.Read;
      Dt.Int_register.Inc 2;
      Dt.Int_register.Read;
    ];
  Alcotest.(check (list int)) "snapshot sequence" [ 1; 3 ]
    (List.map (fun c -> c.Replica.end_state) (Replica.cycles r))

(* --- Frontend --- *)

let make_service ?(replicas = 3) ?(latency = Latency.lan) ?fifo ?seed () =
  let e = Engine.create ?seed () in
  let svc = Service.create e ~replicas ~spec:int_spec ~latency ?fifo () in
  (e, svc)

let test_frontend_dep_structure () =
  let e, svc = make_service () in
  let fe = Service.frontend svc in
  let c1 = Service.submit svc ~src:0 (Dt.Int_register.Inc 1) in
  let c2 = Service.submit svc ~src:1 (Dt.Int_register.Inc 2) in
  check_int "window grows" 2 (Frontend.window_size fe);
  let nc = Service.submit svc ~src:2 Dt.Int_register.Read in
  check_int "window reset" 0 (Frontend.window_size fe);
  check "last sync" true
    (match Frontend.last_sync fe with Some s -> Label.equal s nc | None -> false);
  Engine.run e;
  (* the graph extracted at replica 0 must contain the fan shape *)
  let g = Causalb_core.Osend.graph (Group.member (Service.group svc) 0) in
  check "nc after c1" true (Causalb_graph.Depgraph.happens_before g c1 nc);
  check "nc after c2" true (Causalb_graph.Depgraph.happens_before g c2 nc);
  check "c1 || c2" true (Causalb_graph.Depgraph.concurrent g c1 c2)

let test_frontend_nc_after_nc_when_window_empty () =
  let e, svc = make_service () in
  let n1 = Service.submit svc ~src:0 Dt.Int_register.Read in
  let n2 = Service.submit svc ~src:1 Dt.Int_register.Read in
  Engine.run e;
  let g = Causalb_core.Osend.graph (Group.member (Service.group svc) 0) in
  ignore n2;
  (* n2's predicate must name n1 directly *)
  check "chained syncs" true
    (match Causalb_graph.Depgraph.dep_of g (Label.make ~origin:1 ~seq:0 ()) with
    | Causalb_graph.Dep.After x -> Label.equal x n1
    | _ -> false)

let test_frontend_commutative_after_sync () =
  let e, svc = make_service () in
  let fe = Service.frontend svc in
  let nc = Service.submit svc ~src:0 Dt.Int_register.Read in
  let c = Service.submit svc ~src:1 (Dt.Int_register.Inc 1) in
  ignore c;
  check_int "cycles opened" 1 (Frontend.cycles_opened fe);
  Engine.run e;
  let g = Causalb_core.Osend.graph (Group.member (Service.group svc) 0) in
  check "c after nc" true
    (match Causalb_graph.Depgraph.dep_of g (Label.make ~origin:1 ~seq:0 ()) with
    | Causalb_graph.Dep.After x -> Label.equal x nc
    | _ -> false)

(* --- Service end-to-end --- *)

let drive_workload ?(ops = 60) ?(sync_every = 6) e svc =
  let rng = Engine.fork_rng e in
  for i = 0 to ops - 1 do
    let src = i mod Service.size svc in
    let when_ = float_of_int i *. 0.7 in
    Engine.schedule_at e ~time:when_ (fun () ->
        if (i + 1) mod sync_every = 0 then
          ignore (Service.submit svc ~src Dt.Int_register.Read)
        else
          let amount = 1 + Causalb_util.Rng.int rng 5 in
          let op =
            if Causalb_util.Rng.bool rng then Dt.Int_register.Inc amount
            else Dt.Int_register.Dec amount
          in
          ignore (Service.submit svc ~src op))
  done;
  Service.run svc

let test_service_all_checks_pass () =
  let e, svc =
    make_service ~replicas:4
      ~latency:(Latency.lognormal ~mu:0.5 ~sigma:1.0 ())
      ~fifo:false ~seed:17 ()
  in
  drive_workload e svc;
  List.iter
    (fun (name, ok) -> check name true ok)
    (Service.check svc)

let test_service_replicas_converge () =
  let e, svc = make_service ~replicas:3 ~seed:23 () in
  drive_workload e svc;
  let finals = List.map Replica.stable_state (Service.replicas svc) in
  check "all stable states equal" true
    (List.for_all (( = ) (List.hd finals)) finals)

let test_service_latency_metrics_populated () =
  let e, svc = make_service ~seed:29 () in
  drive_workload e svc;
  check "delivery samples" true (Stats.count (Service.delivery_latency svc) > 0);
  check "stability samples" true (Stats.count (Service.stability_latency svc) > 0);
  (* an op can never be stable before it is delivered *)
  check "stability >= delivery (mean)" true
    (Stats.mean (Service.stability_latency svc)
    >= Stats.mean (Service.delivery_latency svc));
  (* one response (at the primary) per op; primary=src co-located, so the
     response is the self-delivery and beats the cross-net mean *)
  check_int "one response per op" 60
    (Stats.count (Service.response_latency svc));
  check "primary response fast" true
    (Stats.mean (Service.response_latency svc)
    <= Stats.mean (Service.delivery_latency svc));
  check "spec size counted" true
    (Group.ancestors_named (Service.group svc) > 0)

let test_service_divergence_mid_window () =
  (* Sample replica states at fine intervals: divergence between stable
     points is expected (> 0) but must vanish at the end. *)
  let e, svc =
    make_service ~replicas:3
      ~latency:(Latency.lognormal ~mu:1.0 ~sigma:1.0 ())
      ~fifo:false ~seed:31 ()
  in
  let samples = ref [] in
  Engine.every e ~period:0.5 ~until:60.0 (fun () ->
      samples := List.map Replica.state (Service.replicas svc) :: !samples);
  drive_workload e svc;
  let frac =
    Consistency.divergence_fraction ~spec:int_spec ~states:!samples
  in
  check "some transient divergence" true (frac > 0.0);
  (* once the run drains, every replica holds the same value again *)
  let finals = List.map Replica.state (Service.replicas svc) in
  check "converged at the end" true
    (List.for_all (( = ) (List.hd finals)) finals)

let test_consistency_detects_divergence () =
  (* Feed two replicas different sync results by hand and check the
     checker notices. *)
  let r0 = Replica.create ~id:0 ~spec:int_spec () in
  let r1 = Replica.create ~id:1 ~spec:int_spec () in
  Replica.on_deliver r0 (msg ~origin:0 ~seq:0 ~dep:Dep.null (Dt.Int_register.Inc 1));
  Replica.on_deliver r1 (msg ~origin:0 ~seq:0 ~dep:Dep.null (Dt.Int_register.Inc 2));
  Replica.on_deliver r0 (msg ~origin:0 ~seq:1 ~dep:Dep.null Dt.Int_register.Read);
  Replica.on_deliver r1 (msg ~origin:0 ~seq:1 ~dep:Dep.null Dt.Int_register.Read);
  check "disagreement found" true
    (Consistency.first_disagreement [ r0; r1 ] = Some 0);
  check "agreement false" false
    (Consistency.agreement_at_stable_points [ r0; r1 ])

let test_consistency_window_sets () =
  let r0 = Replica.create ~id:0 ~spec:int_spec () in
  let r1 = Replica.create ~id:1 ~spec:int_spec () in
  let inc = Dt.Int_register.Inc 1 in
  (* same set, different order *)
  Replica.on_deliver r0 (msg ~origin:0 ~seq:0 ~dep:Dep.null inc);
  Replica.on_deliver r0 (msg ~origin:1 ~seq:0 ~dep:Dep.null inc);
  Replica.on_deliver r1 (msg ~origin:1 ~seq:0 ~dep:Dep.null inc);
  Replica.on_deliver r1 (msg ~origin:0 ~seq:0 ~dep:Dep.null inc);
  Replica.on_deliver r0 (msg ~origin:2 ~seq:0 ~dep:Dep.null Dt.Int_register.Read);
  Replica.on_deliver r1 (msg ~origin:2 ~seq:0 ~dep:Dep.null Dt.Int_register.Read);
  check "window sets agree" true (Consistency.window_sets_agree [ r0; r1 ]);
  check "transition preserving" true
    (Consistency.windows_transition_preserving r0);
  check "serial witness exists" true (Consistency.serial_witness r0 <> None)

let test_consistency_non_commutative_window_flagged () =
  (* A window accidentally containing non-commuting ops is not
     transition-preserving; the checker must flag it.  We build it with
     a lying spec that declares [set] commuting, so [Set] derives Cid. *)
  let lying =
    Seq_spec.make ~name:"lying-register" ~init:0
      ~apply:int_spec.Seq_spec.apply ~equal:Int.equal
      ~classes:[ "inc"; "set"; "read" ]
      ~class_of:(function
        | Dt.Int_register.Inc _ | Dt.Int_register.Dec _ -> "inc"
        | Dt.Int_register.Set _ -> "set"
        | Dt.Int_register.Read -> "read")
      ~commutes:(fun a b -> a <> "read" && b <> "read")
      ~observer:(String.equal "read") ()
  in
  check "set derives Cid" true
    (Seq_spec.kind lying (Dt.Int_register.Set 9) = Op.Commutative);
  let r = Replica.create ~id:0 ~spec:lying () in
  Replica.on_deliver r (msg ~origin:0 ~seq:0 ~dep:Dep.null (Dt.Int_register.Inc 1));
  Replica.on_deliver r (msg ~origin:1 ~seq:0 ~dep:Dep.null (Dt.Int_register.Set 9));
  Replica.on_deliver r (msg ~origin:0 ~seq:1 ~dep:Dep.null Dt.Int_register.Read);
  check "flagged" false
    (Consistency.windows_transition_preserving r)

(* --- Item_frontend: the §5.1 per-item decomposition --- *)

module Item_frontend = Causalb_data.Item_frontend

let mr_spec = Dt.Multi_register.spec ~items:3

let mr_scope = function
  | Dt.Multi_register.Inc (i, _) | Dt.Multi_register.Dec (i, _)
  | Dt.Multi_register.Set (i, _) ->
    Item_frontend.Item i
  | Dt.Multi_register.Read_all -> Item_frontend.Global

let make_item_fe ?seed () =
  let e = Engine.create ?seed () in
  let net =
    Net.create e ~nodes:3
      ~latency:(Latency.lognormal ~mu:0.5 ~sigma:1.0 ())
      ~fifo:false ()
  in
  let group = Group.create net () in
  let fe =
    Item_frontend.create group ~kind:(Seq_spec.kind mr_spec) ~scope:mr_scope ()
  in
  (e, group, fe)

let test_item_fe_independent_windows () =
  let e, group, fe = make_item_fe ~seed:71 () in
  let c0 = Item_frontend.submit fe ~src:0 (Dt.Multi_register.Inc (0, 1)) in
  let c1 = Item_frontend.submit fe ~src:1 (Dt.Multi_register.Inc (1, 1)) in
  check_int "window 0" 1 (Item_frontend.open_window fe ~item:0);
  check_int "window 1" 1 (Item_frontend.open_window fe ~item:1);
  (* sync on item 0 closes only item 0's window *)
  let s0 = Item_frontend.submit fe ~src:2 (Dt.Multi_register.Set (0, 9)) in
  check_int "window 0 closed" 0 (Item_frontend.open_window fe ~item:0);
  check_int "window 1 open" 1 (Item_frontend.open_window fe ~item:1);
  Engine.run e;
  let g = Causalb_core.Osend.graph (Group.member group 0) in
  check "set0 after inc0" true (Causalb_graph.Depgraph.happens_before g c0 s0);
  check "set0 not after inc1" true (Causalb_graph.Depgraph.concurrent g c1 s0)

let test_item_fe_global_sync_closes_everything () =
  let e, group, fe = make_item_fe ~seed:72 () in
  let c0 = Item_frontend.submit fe ~src:0 (Dt.Multi_register.Inc (0, 1)) in
  let c1 = Item_frontend.submit fe ~src:1 (Dt.Multi_register.Inc (1, 1)) in
  let r = Item_frontend.submit fe ~src:2 Dt.Multi_register.Read_all in
  check_int "all windows reset" 0 (Item_frontend.items_tracked fe);
  (* ops after the global sync anchor on it *)
  let c2 = Item_frontend.submit fe ~src:0 (Dt.Multi_register.Inc (2, 1)) in
  Engine.run e;
  let g = Causalb_core.Osend.graph (Group.member group 1) in
  check "read after inc0" true (Causalb_graph.Depgraph.happens_before g c0 r);
  check "read after inc1" true (Causalb_graph.Depgraph.happens_before g c1 r);
  check "later op after read" true (Causalb_graph.Depgraph.happens_before g r c2)

let test_item_fe_per_item_agreement () =
  (* at an item sync, the synced item's value is identical at all
     replicas even though other items' mid-window values may differ *)
  let e, group, fe = make_item_fe ~seed:73 () in
  let states = Array.init 3 (fun _ -> ref mr_spec.Seq_spec.init) in
  (* per sync label, the projected item value at each replica *)
  let snaps : (Label.t * int * int) list ref = ref [] in
  let net_group_deliver ~node ~time:_ msg =
    let op = Causalb_core.Message.payload msg in
    states.(node) := mr_spec.Seq_spec.apply !(states.(node)) op;
    match op with
    | Dt.Multi_register.Set (i, _) ->
      snaps := (Causalb_core.Message.label msg, node, !(states.(node)).(i)) :: !snaps
    | _ -> ()
  in
  (* rewire: build a fresh group with the delivery hook *)
  ignore group;
  let e2 = Engine.create ~seed:73 () in
  let net2 =
    Net.create e2 ~nodes:3
      ~latency:(Latency.lognormal ~mu:0.5 ~sigma:1.0 ())
      ~fifo:false ()
  in
  let group2 = Group.create net2 ~on_deliver:net_group_deliver () in
  let fe2 =
    Item_frontend.create group2 ~kind:(Seq_spec.kind mr_spec) ~scope:mr_scope ()
  in
  ignore (e, fe);
  let rng = Engine.fork_rng e2 in
  for i = 0 to 59 do
    Engine.schedule_at e2 ~time:(float_of_int i *. 0.4) (fun () ->
        let item = Causalb_util.Rng.int rng 3 in
        let op =
          if i mod 9 = 8 then Dt.Multi_register.Set (item, i)
          else Dt.Multi_register.Inc (item, 1)
        in
        ignore (Item_frontend.submit fe2 ~src:(i mod 3) op))
  done;
  Engine.run e2;
  (* group snaps by label: the projected value must agree across nodes *)
  let by_label = Hashtbl.create 16 in
  List.iter
    (fun (l, _, v) ->
      let prev = Option.value ~default:[] (Hashtbl.find_opt by_label l) in
      Hashtbl.replace by_label l (v :: prev))
    !snaps;
  Hashtbl.iter
    (fun _ vs ->
      check "item value agrees at its sync" true
        (match vs with [] -> true | v :: rest -> List.for_all (( = ) v) rest))
    by_label;
  check "some syncs happened" true (Hashtbl.length by_label > 0);
  (* final states converge (everything delivered everywhere) *)
  let finals = Array.to_list (Array.map (fun r -> !r) states) in
  check "final equal" true (List.for_all (( = ) (List.hd finals)) finals)

(* --- Dservice: the access protocol over dynamic membership --- *)

module Dservice = Causalb_data.Dservice

let make_dservice ?(nodes = 5) ?(initial = [ 0; 1; 2 ]) ?seed () =
  let e = Engine.create ?seed () in
  let svc =
    Dservice.create e ~nodes ~initial ~spec:int_spec
      ~latency:(Latency.lognormal ~mu:0.4 ~sigma:0.9 ())
      ()
  in
  (e, svc)

let test_dservice_static () =
  let e, svc = make_dservice ~seed:61 () in
  for i = 0 to 30 do
    Engine.schedule_at e ~time:(float_of_int i *. 0.6) (fun () ->
        let op =
          if i mod 8 = 7 then Dt.Int_register.Read else Dt.Int_register.Inc 1
        in
        Dservice.submit svc ~src:(i mod 3) op)
  done;
  Dservice.run svc;
  List.iter (fun (n, ok) -> check n true ok) (Dservice.check svc);
  check_int "all applied at node 0" 31 (Dservice.applied_count svc 0)

let test_dservice_join_catches_up () =
  let e, svc = make_dservice ~seed:62 () in
  for i = 0 to 9 do
    Engine.schedule_at e ~time:(float_of_int i *. 0.6) (fun () ->
        Dservice.submit svc ~src:(i mod 3) (Dt.Int_register.Inc 1))
  done;
  Engine.schedule_at e ~time:20.0 (fun () -> Dservice.join svc ~node:3);
  Engine.schedule_at e ~time:60.0 (fun () ->
      Dservice.submit svc ~src:3 (Dt.Int_register.Inc 5));
  Engine.schedule_at e ~time:80.0 (fun () ->
      Dservice.submit svc ~src:0 Dt.Int_register.Read);
  Dservice.run svc;
  List.iter (fun (n, ok) -> check n true ok) (Dservice.check svc);
  check "joiner is member" true (Dservice.is_member svc 3);
  check_int "joiner state = 10 + 5" 15 (Dservice.state svc 3);
  check_int "old member agrees" 15 (Dservice.state svc 0)

let test_dservice_leave () =
  let e, svc = make_dservice ~seed:63 () in
  Engine.schedule_at e ~time:1.0 (fun () ->
      Dservice.submit svc ~src:0 (Dt.Int_register.Inc 3));
  Engine.schedule_at e ~time:15.0 (fun () -> Dservice.leave svc ~node:2);
  Engine.schedule_at e ~time:40.0 (fun () ->
      Dservice.submit svc ~src:1 (Dt.Int_register.Inc 4));
  Dservice.run svc;
  List.iter (fun (n, ok) -> check n true ok) (Dservice.check svc);
  check "2 left" false (Dservice.is_member svc 2);
  check_int "survivors have both ops" 7 (Dservice.state svc 0);
  check_int "leaver kept only pre-leave ops" 3 (Dservice.state svc 2)

let test_dservice_submissions_race_view_change () =
  (* ops submitted while the change is in flight are parked and re-issued;
     nothing is lost *)
  let e, svc = make_dservice ~seed:64 () in
  for i = 0 to 29 do
    Engine.schedule_at e ~time:(float_of_int i *. 0.5) (fun () ->
        let src = i mod 3 in
        if Dservice.is_member svc src then
          Dservice.submit svc ~src (Dt.Int_register.Inc 1))
  done;
  Engine.schedule_at e ~time:5.0 (fun () -> Dservice.join svc ~node:3);
  Engine.schedule_at e ~time:9.0 (fun () -> Dservice.join svc ~node:4);
  Dservice.run svc;
  List.iter (fun (n, ok) -> check n true ok) (Dservice.check svc);
  check_int "no op lost" 30 (Dservice.state svc 0)

let test_dservice_stable_snapshots_under_churn () =
  let e, svc = make_dservice ~nodes:6 ~initial:[ 0; 1; 2; 3 ] ~seed:65 () in
  for i = 0 to 49 do
    Engine.schedule_at e ~time:(float_of_int i *. 0.5) (fun () ->
        let src = i mod 4 in
        if Dservice.is_member svc src then
          let op =
            if i mod 10 = 9 then Dt.Int_register.Read
            else Dt.Int_register.Inc 1
          in
          Dservice.submit svc ~src op)
  done;
  Engine.schedule_at e ~time:8.0 (fun () -> Dservice.join svc ~node:4);
  Engine.schedule_at e ~time:16.0 (fun () -> Dservice.leave svc ~node:1);
  Dservice.run svc;
  List.iter (fun (n, ok) -> check n true ok) (Dservice.check svc)

(* --- Workflow --- *)

module Workflow = Causalb_data.Workflow

let diamond =
  [
    Workflow.step "open" ~src:0 Dt.Int_register.Read;
    Workflow.step "left" ~src:1 ~after:[ "open" ] (Dt.Int_register.Inc 1);
    Workflow.step "right" ~src:2 ~after:[ "open" ] (Dt.Int_register.Inc 2);
    Workflow.step "close" ~src:0
      ~after:[ "left"; "right" ]
      Dt.Int_register.Read;
  ]

let test_workflow_graph () =
  let g = Workflow.graph_of diamond in
  check_int "four nodes" 4 (Causalb_graph.Depgraph.size g);
  check_int "two linearizations" 2
    (Causalb_graph.Depgraph.count_linearizations g);
  check_int "two sync points... plus none concurrent with all" 2
    (List.length (Causalb_graph.Depgraph.sync_points g))

let test_workflow_submit_end_to_end () =
  let e, svc =
    make_service ~replicas:3
      ~latency:(Latency.lognormal ~mu:0.5 ~sigma:1.2 ())
      ~fifo:false ~seed:51 ()
  in
  let labels = Workflow.submit (Service.group svc) diamond in
  Engine.run e;
  check_int "all named" 4 (List.length labels);
  let open_l = List.assoc "open" labels in
  let close_l = List.assoc "close" labels in
  List.iter
    (fun r ->
      match Replica.applied r with
      | [ first; _; _; last ] ->
        check "open first" true (Label.equal first open_l);
        check "close last" true (Label.equal last close_l)
      | other ->
        Alcotest.failf "expected 4 applied ops, got %d" (List.length other))
    (Service.replicas svc)

let test_workflow_validation () =
  let dup =
    [
      Workflow.step "a" ~src:0 Dt.Int_register.Read;
      Workflow.step "a" ~src:0 Dt.Int_register.Read;
    ]
  in
  check "duplicate rejected" true
    (try
       ignore (Workflow.graph_of dup);
       false
     with Invalid_argument _ -> true);
  let dangling = [ Workflow.step "a" ~src:0 ~after:[ "ghost" ] Dt.Int_register.Read ] in
  check "dangling rejected" true
    (try
       ignore (Workflow.graph_of dangling);
       false
     with Invalid_argument _ -> true);
  let cyclic =
    [
      Workflow.step "a" ~src:0 ~after:[ "b" ] Dt.Int_register.Read;
      Workflow.step "b" ~src:0 ~after:[ "a" ] Dt.Int_register.Read;
    ]
  in
  check "cycle rejected" true
    (try
       ignore (Workflow.graph_of cyclic);
       false
     with Invalid_argument _ -> true)

let test_workflow_order_independent_declaration () =
  (* Steps may be declared in any order; submit sorts them itself. *)
  let shuffled = List.rev diamond in
  let e, svc = make_service ~seed:53 () in
  let labels = Workflow.submit (Service.group svc) shuffled in
  Engine.run e;
  check_int "submitted all" 4 (List.length labels);
  List.iter (fun (n, ok) -> check n true ok) (Service.check svc)

let () =
  Alcotest.run "data"
    [
      ( "datatypes",
        [
          Alcotest.test_case "int register" `Quick test_int_register_semantics;
          Alcotest.test_case "int register kinds" `Quick test_int_register_kinds;
          Alcotest.test_case "commute_at" `Quick test_commute_at;
          Alcotest.test_case "multi register" `Quick test_multi_register;
          Alcotest.test_case "kv store" `Quick test_kv_store;
          Alcotest.test_case "document" `Quick test_document;
          Alcotest.test_case "log" `Quick test_log;
          Alcotest.test_case "log e2e" `Quick test_log_service_end_to_end;
          Alcotest.test_case "bank account" `Quick test_bank_account;
          Alcotest.test_case "bank account e2e" `Quick
            test_bank_account_service_end_to_end;
          Alcotest.test_case "card table" `Quick test_card_table;
        ] );
      ( "replica",
        [
          Alcotest.test_case "applies and cycles" `Quick
            test_replica_applies_and_cycles;
          Alcotest.test_case "deferred read" `Quick test_replica_deferred_read;
          Alcotest.test_case "on_stable callback" `Quick
            test_replica_on_stable_callback;
          Alcotest.test_case "snapshots" `Quick test_replica_snapshots;
        ] );
      ( "frontend",
        [
          Alcotest.test_case "dep structure" `Quick test_frontend_dep_structure;
          Alcotest.test_case "nc chains" `Quick
            test_frontend_nc_after_nc_when_window_empty;
          Alcotest.test_case "commutative after sync" `Quick
            test_frontend_commutative_after_sync;
        ] );
      ( "service",
        [
          Alcotest.test_case "all checks pass" `Quick test_service_all_checks_pass;
          Alcotest.test_case "replicas converge" `Quick test_service_replicas_converge;
          Alcotest.test_case "latency metrics" `Quick
            test_service_latency_metrics_populated;
          Alcotest.test_case "mid-window divergence" `Quick
            test_service_divergence_mid_window;
        ] );
      ( "item-frontend",
        [
          Alcotest.test_case "independent windows" `Quick
            test_item_fe_independent_windows;
          Alcotest.test_case "global sync" `Quick
            test_item_fe_global_sync_closes_everything;
          Alcotest.test_case "per-item agreement" `Quick
            test_item_fe_per_item_agreement;
        ] );
      ( "dservice",
        [
          Alcotest.test_case "static" `Quick test_dservice_static;
          Alcotest.test_case "join catches up" `Quick
            test_dservice_join_catches_up;
          Alcotest.test_case "leave" `Quick test_dservice_leave;
          Alcotest.test_case "race view change" `Quick
            test_dservice_submissions_race_view_change;
          Alcotest.test_case "snapshots under churn" `Quick
            test_dservice_stable_snapshots_under_churn;
        ] );
      ( "workflow",
        [
          Alcotest.test_case "graph" `Quick test_workflow_graph;
          Alcotest.test_case "submit e2e" `Quick test_workflow_submit_end_to_end;
          Alcotest.test_case "validation" `Quick test_workflow_validation;
          Alcotest.test_case "declaration order" `Quick
            test_workflow_order_independent_declaration;
        ] );
      ( "consistency",
        [
          Alcotest.test_case "detects divergence" `Quick
            test_consistency_detects_divergence;
          Alcotest.test_case "window sets" `Quick test_consistency_window_sets;
          Alcotest.test_case "non-commutative window flagged" `Quick
            test_consistency_non_commutative_window_flagged;
        ] );
    ]
