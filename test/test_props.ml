(* Property-based tests (qcheck) on the core data structures and the
   ordering invariants of the engines. *)

module Heap = Causalb_util.Heap
module Stats = Causalb_util.Stats
module Vc = Causalb_clock.Vector_clock
module Label = Causalb_graph.Label
module Dep = Causalb_graph.Dep
module Depgraph = Causalb_graph.Depgraph
module Engine = Causalb_sim.Engine
module Latency = Causalb_sim.Latency
module Net = Causalb_net.Net
module Message = Causalb_core.Message
module Osend = Causalb_core.Osend
module Group = Causalb_core.Group
module Checker = Causalb_core.Checker
module Seq_spec = Causalb_data.Seq_spec
module Dt = Causalb_data.Datatypes

let test ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

(* --- generators --- *)

let small_int_list = QCheck2.Gen.(list_size (int_range 0 64) (int_range (-1000) 1000))

(* A random DAG description: for each of n messages, a list of indices of
   earlier messages it depends on; plus an arrival permutation. *)
let dag_gen =
  let open QCheck2.Gen in
  int_range 1 14 >>= fun n ->
  let deps_for i =
    if i = 0 then return []
    else
      list_size (int_range 0 (min i 3)) (int_range 0 (i - 1))
      >|= List.sort_uniq Int.compare
  in
  let rec all i acc =
    if i >= n then return (List.rev acc)
    else deps_for i >>= fun d -> all (i + 1) (d :: acc)
  in
  all 0 [] >>= fun deps ->
  (* arrival order: a permutation of 0..n-1 *)
  shuffle_l (List.init n Fun.id) >|= fun arrival -> (n, deps, arrival)

let label_of_index i = Label.make ~origin:(i mod 5) ~seq:(i / 5) ()

let build_graph (n, deps, _) =
  let g = Depgraph.create () in
  List.iteri
    (fun i d ->
      Depgraph.add g (label_of_index i)
        ~dep:(Dep.after_all (List.map label_of_index d)))
    (List.init n (fun i -> List.nth deps i));
  g

let messages_of (n, deps, _) =
  List.init n (fun i ->
      Message.make ~label:(label_of_index i) ~sender:(i mod 5)
        ~dep:(Dep.after_all (List.map label_of_index (List.nth deps i)))
        i)

(* --- heap --- *)

let prop_heap_sorts =
  test "heap drain = sorted input" small_int_list (fun l ->
      let h = Heap.create ~cmp:Int.compare () in
      List.iter (Heap.push h) l;
      Heap.drain h = List.sort Int.compare l)

let prop_heap_pop_min =
  test "heap pop is minimum" small_int_list (fun l ->
      let h = Heap.create ~cmp:Int.compare () in
      List.iter (Heap.push h) l;
      match Heap.pop h with
      | None -> l = []
      | Some m -> List.for_all (fun x -> m <= x) l)

(* --- stats --- *)

let prop_stats_bounds =
  test "mean and percentiles within [min,max]"
    QCheck2.Gen.(list_size (int_range 1 64) (float_bound_inclusive 1000.0))
    (fun l ->
      let s = Stats.create () in
      Stats.add_list s l;
      let lo = Stats.min_value s and hi = Stats.max_value s in
      let inside v = v >= lo -. 1e-9 && v <= hi +. 1e-9 in
      inside (Stats.mean s)
      && inside (Stats.percentile s 10.0)
      && inside (Stats.percentile s 90.0))

let prop_stats_median_rank =
  test "at least half the samples <= median"
    QCheck2.Gen.(list_size (int_range 1 64) (float_bound_inclusive 100.0))
    (fun l ->
      let s = Stats.create () in
      Stats.add_list s l;
      let m = Stats.median s in
      let below = List.length (List.filter (fun x -> x <= m +. 1e-9) l) in
      2 * below >= List.length l)

(* --- vector clocks --- *)

let vc_gen =
  QCheck2.Gen.(
    int_range 1 6 >>= fun n ->
    array_size (return n) (int_range 0 8) >|= Vc.of_array)

let vc_pair_gen =
  QCheck2.Gen.(
    int_range 1 6 >>= fun n ->
    let v = array_size (return n) (int_range 0 8) >|= Vc.of_array in
    pair v v)

let vc_triple_gen =
  QCheck2.Gen.(
    int_range 1 6 >>= fun n ->
    let v = array_size (return n) (int_range 0 8) >|= Vc.of_array in
    triple v v v)

let prop_vc_leq_reflexive =
  test "vc leq reflexive" vc_gen (fun v -> Vc.leq v v)

let prop_vc_leq_antisymmetric =
  test "vc leq antisymmetric" vc_pair_gen (fun (a, b) ->
      if Vc.leq a b && Vc.leq b a then Vc.equal a b else true)

let prop_vc_leq_transitive =
  test "vc leq transitive" vc_triple_gen (fun (a, b, c) ->
      if Vc.leq a b && Vc.leq b c then Vc.leq a c else true)

let prop_vc_merge_lub =
  test "vc merge is least upper bound" vc_triple_gen (fun (a, b, c) ->
      let m = Vc.merge a b in
      Vc.leq a m && Vc.leq b m
      && if Vc.leq a c && Vc.leq b c then Vc.leq m c else true)

let prop_vc_concurrent_symmetric =
  test "vc concurrency symmetric" vc_pair_gen (fun (a, b) ->
      Vc.concurrent a b = Vc.concurrent b a)

let prop_vc_compare_consistent =
  test "vc compare_causal consistent with leq" vc_pair_gen (fun (a, b) ->
      match Vc.compare_causal a b with
      | Vc.Equal -> Vc.equal a b
      | Vc.Before -> Vc.lt a b
      | Vc.After -> Vc.lt b a
      | Vc.Concurrent -> (not (Vc.leq a b)) && not (Vc.leq b a))

(* --- dependency graphs --- *)

let prop_graph_topological_valid =
  test "topological order is a valid extension" dag_gen (fun desc ->
      let g = build_graph desc in
      Depgraph.verify_sequence g (Depgraph.topological g))

let prop_graph_linearizations_valid =
  test "every enumerated linearization is valid" ~count:100 dag_gen
    (fun desc ->
      let g = build_graph desc in
      let seqs = Depgraph.linearizations ~limit:50 g in
      seqs <> [] && List.for_all (Depgraph.verify_sequence g) seqs)

let prop_graph_happens_before_irreflexive_antisym =
  test "happens_before is a strict order" ~count:100 dag_gen (fun desc ->
      let g = build_graph desc in
      let ls = Depgraph.labels g in
      List.for_all
        (fun a ->
          (not (Depgraph.happens_before g a a))
          && List.for_all
               (fun b ->
                 not (Depgraph.happens_before g a b && Depgraph.happens_before g b a))
               ls)
        ls)

let prop_graph_sync_point_total =
  test "sync points are comparable to every node" ~count:100 dag_gen
    (fun desc ->
      let g = build_graph desc in
      List.for_all
        (fun sp ->
          List.for_all
            (fun other ->
              Label.equal sp other || not (Depgraph.concurrent g sp other))
            (Depgraph.labels g))
        (Depgraph.sync_points g))

(* --- Osend engine --- *)

let prop_osend_any_arrival_order_safe =
  test "osend: any arrival order yields a valid extension, all delivered"
    dag_gen (fun ((n, _, arrival) as desc) ->
      let g = build_graph desc in
      let msgs = Array.of_list (messages_of desc) in
      let m = Osend.create ~id:0 () in
      List.iter (fun i -> Osend.receive m msgs.(i)) arrival;
      Osend.delivered_count m = n
      && Osend.pending_count m = 0
      && Checker.causal_safety g (Osend.delivered_order m))

let prop_osend_graph_matches =
  test "osend: extracted graph equals the sent graph" ~count:100 dag_gen
    (fun ((_, _, arrival) as desc) ->
      let g = build_graph desc in
      let msgs = Array.of_list (messages_of desc) in
      let m = Osend.create ~id:0 () in
      List.iter (fun i -> Osend.receive m msgs.(i)) arrival;
      let g' = Osend.graph m in
      List.sort compare (Depgraph.edges g)
      = List.sort compare (Depgraph.edges g')
      && Label.Set.equal
           (Label.Set.of_list (Depgraph.labels g))
           (Label.Set.of_list (Depgraph.labels g')))

(* R(M) on demand: [Osend.graph] replays the first receipts not yet
   extracted, so at every call it must equal the graph an eager
   [Depgraph.add] per first receipt would hold.  Predicates name earlier,
   later (forward) and never-sent labels, [After_any] included; the
   arrival sequence repeats copies; the graph is read mid-run and at the
   end. *)
let on_demand_gen =
  let open QCheck2.Gen in
  int_range 1 16 >>= fun n ->
  (* indices n..n+2 are never sent *)
  let named i = int_range 0 (n + 2) >|= fun j -> if j = i then n + 3 else j in
  let dep_for i =
    oneof
      [
        return `Null;
        (named i >|= fun j -> `After j);
        (list_size (int_range 1 3) (named i) >|= fun js -> `All js);
        (list_size (int_range 1 3) (named i) >|= fun js -> `Any js);
      ]
  in
  let rec deps i acc =
    if i >= n then return (List.rev acc)
    else dep_for i >>= fun d -> deps (i + 1) (d :: acc)
  in
  deps 0 [] >>= fun deps ->
  list_size (int_range 0 8) (int_range 0 (n - 1)) >>= fun dups ->
  shuffle_l (List.init n Fun.id @ dups) >>= fun arrival ->
  int_range 0 (List.length arrival) >|= fun mid -> (n, deps, arrival, mid)

let on_demand_message deps i =
  let ls = List.map label_of_index in
  let dep =
    match List.nth deps i with
    | `Null -> Dep.null
    | `After j -> Dep.after (label_of_index j)
    | `All js -> Dep.after_all (ls js)
    | `Any js -> Dep.after_any (ls js)
  in
  Message.make ~label:(label_of_index i) ~sender:(i mod 5) ~dep i

(* What the member used to do on every receipt: add each label once, at
   its first arrival. *)
let eager_graph msgs =
  let g = Depgraph.create () in
  List.iter
    (fun m ->
      let l = Message.label m in
      if not (Depgraph.mem g l) then Depgraph.add g l ~dep:(Message.dep m))
    msgs;
  g

(* In-degrees are private to [Depgraph]; [roots] and [topological] read
   the maintained counters. *)
let same_graph g h =
  let labels = List.equal Label.equal in
  let ls = Depgraph.labels g in
  labels ls (Depgraph.labels h)
  && List.equal
       (fun (a, b) (c, d) -> Label.equal a c && Label.equal b d)
       (Depgraph.edges g) (Depgraph.edges h)
  && List.for_all
       (fun l ->
         labels (Depgraph.children g l) (Depgraph.children h l)
         && Dep.equal (Depgraph.dep_of g l) (Depgraph.dep_of h l))
       ls
  && labels (Depgraph.roots g) (Depgraph.roots h)
  && labels (Depgraph.topological g) (Depgraph.topological h)

let prop_osend_graph_on_demand =
  test "osend: graph on demand = eager build, at every call" on_demand_gen
    (fun (_, deps, arrival, mid) ->
      let msgs = List.map (on_demand_message deps) arrival in
      let first = List.filteri (fun k _ -> k < mid) msgs in
      let rest = List.filteri (fun k _ -> k >= mid) msgs in
      let m = Osend.create ~id:0 () in
      List.iter (Osend.receive m) first;
      let at_mid = same_graph (Osend.graph m) (eager_graph first) in
      List.iter (Osend.receive m) rest;
      at_mid && same_graph (Osend.graph m) (eager_graph msgs))

(* --- end-to-end group property --- *)

let prop_group_network_safety =
  test "group over jittery net: same set + causal safety at all members"
    ~count:60
    QCheck2.Gen.(pair (int_range 0 10_000) dag_gen)
    (fun (seed, ((_, deps, _) as desc)) ->
      let e = Engine.create ~seed () in
      let net =
        Net.create e ~nodes:3
          ~latency:(Latency.lognormal ~mu:0.5 ~sigma:1.2 ())
          ~fifo:false ()
      in
      let g = Group.create net () in
      (* submit in index order with the declared deps; spread in time *)
      List.iteri
        (fun i d ->
          Engine.schedule_at e ~time:(float_of_int i *. 0.3) (fun () ->
              ignore
                (Group.send_labelled g ~src:(i mod 3) ~label:(label_of_index i)
                   ~dep:(Dep.after_all (List.map label_of_index d))
                   i)))
        deps;
      Engine.run e;
      let orders = Group.all_delivered_orders g in
      let graph = Osend.graph (Group.member g 0) in
      ignore desc;
      Checker.same_set orders && Checker.causal_safety_all graph orders)

(* --- commutativity / transition preservation --- *)

let int_op_gen =
  QCheck2.Gen.(
    oneof
      [
        (int_range 1 10 >|= fun n -> Dt.Int_register.Inc n);
        (int_range 1 10 >|= fun n -> Dt.Int_register.Dec n);
      ])

let prop_commutative_ops_transition_preserving =
  test "all-commutative windows are transition preserving"
    QCheck2.Gen.(list_size (int_range 0 5) int_op_gen)
    (fun ops ->
      let labels = List.mapi (fun i _ -> label_of_index i) ops in
      let act = Causalb_graph.Activity.fan ~body:labels () in
      let tbl = List.combine labels ops in
      let apply s lbl =
        Dt.Int_register.spec.Seq_spec.apply s (List.assoc lbl tbl)
      in
      Causalb_graph.Activity.is_stable_point ~apply ~equal:Int.equal ~init:0 act)

let prop_commute_at_symmetric =
  test "commute_at symmetric"
    QCheck2.Gen.(triple int_op_gen int_op_gen (int_range (-20) 20))
    (fun (a, b, s) ->
      let spec = Dt.Int_register.spec in
      Seq_spec.commute_at spec s a b = Seq_spec.commute_at spec s b a)

(* --- total-order properties --- *)

module Asend = Causalb_core.Asend

(* A total-order layer's release sequence, collected from its [deliver]
   callback. *)
let release_log () =
  let record, read = Delivery_log.create () in
  ((fun m -> record ~node:0 (Message.label m)), fun () -> read 0)

let prop_timestamp_identical_orders =
  test "timestamp orderer: identical sequences for any workload" ~count:40
    QCheck2.Gen.(
      triple (int_range 0 9_999) (int_range 2 6) (int_range 1 40))
    (fun (seed, nodes, msgs) ->
      let e = Engine.create ~seed () in
      let net =
        Net.create e ~nodes
          ~latency:(Latency.lognormal ~mu:0.5 ~sigma:1.2 ())
          ~fifo:true ()
      in
      let ts = Asend.Timestamp.create net () in
      for i = 0 to msgs - 1 do
        Engine.schedule_at e ~time:(float_of_int i *. 0.6) (fun () ->
            Asend.Timestamp.bcast ts ~src:(i mod nodes) ~tag:(string_of_int i) ())
      done;
      Engine.run e;
      let orders = List.init nodes (Asend.Timestamp.delivered_tags ts) in
      List.length (List.hd orders) = msgs
      && List.for_all (( = ) (List.hd orders)) orders)

let prop_merge_identical_orders =
  test "merge orderer: identical batch order for any bracket" ~count:40
    QCheck2.Gen.(pair (int_range 0 9_999) (int_range 1 20))
    (fun (seed, spont) ->
      let record, released = Delivery_log.create () in
      let merges =
        List.init 3 (fun node ->
            Asend.Merge.create
              ~is_sync:(fun m -> Causalb_core.Message.payload m = -1)
              ~deliver:(fun m -> record ~node (Message.label m))
              ())
      in
      let e = Engine.create ~seed () in
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
      let labels =
        List.init spont (fun i -> Group.osend g ~src:(i mod 3) ~dep:Dep.null i)
      in
      ignore (Group.osend g ~src:0 ~dep:(Dep.after_all labels) (-1));
      Engine.run e;
      let orders = List.init 3 released in
      List.length (List.hd orders) = spont + 1
      && Checker.identical_orders orders)

(* The interchangeability claim behind the stack's total-order layers:
   over the same bracketed set, the sync-anchored Merge (sync fed last,
   as causal delivery guarantees — the sync AND-depends on the whole set)
   and the count-closed Counted release the IDENTICAL total order at
   every member, whatever arrival permutation each member saw.  The sync
   label is made the comparator's maximum so both mechanisms place it
   last. *)
let prop_merge_counted_agree_under_permutations =
  let gen =
    let open QCheck2.Gen in
    int_range 1 12 >>= fun n ->
    let spont_perm = shuffle_l (List.init n Fun.id) in
    let all_perm = shuffle_l (List.init (n + 1) Fun.id) in
    triple (return n) (list_repeat 3 spont_perm) (list_repeat 3 all_perm)
  in
  test "merge and counted: same total order under any arrival permutation"
    ~count:200 gen
    (fun (n, merge_perms, counted_perms) ->
      let spont_label i = Label.make ~origin:(i mod 3) ~seq:(i / 3) () in
      let spont =
        List.init n (fun i ->
            Message.make ~label:(spont_label i) ~sender:(i mod 3)
              ~dep:Dep.null i)
      in
      let sync =
        Message.make
          ~label:(Label.make ~origin:999 ~seq:0 ())
          ~sender:0
          ~dep:(Dep.after_all (List.map Message.label spont))
          (-1)
      in
      let all = spont @ [ sync ] in
      let merge_orders =
        List.map
          (fun perm ->
            let deliver, order = release_log () in
            let m =
              Asend.Merge.create
                ~is_sync:(fun m -> Causalb_core.Message.payload m = -1)
                ~deliver ()
            in
            List.iter
              (fun i -> Asend.Merge.on_causal_deliver m (List.nth spont i))
              perm;
            Asend.Merge.on_causal_deliver m sync;
            order ())
          merge_perms
      in
      let counted_orders =
        List.map
          (fun perm ->
            let deliver, order = release_log () in
            let c = Asend.Counted.create ~batch_size:(n + 1) ~deliver () in
            List.iter
              (fun i -> Asend.Counted.on_causal_deliver c (List.nth all i))
              perm;
            order ())
          counted_perms
      in
      let orders = merge_orders @ counted_orders in
      List.for_all (fun o -> List.length o = n + 1) orders
      && Checker.identical_orders orders)

(* --- inference properties --- *)

module Infer = Causalb_graph.Infer

let prop_infer_sound_on_linearizations =
  test "inference from linearizations is sound; exact with all of them"
    ~count:100 dag_gen (fun desc ->
      let g = build_graph desc in
      let all = Depgraph.linearizations ~limit:200 g in
      let inferred = Infer.infer all in
      Infer.over_approximation ~truth:g inferred
      && (List.length all >= 200
         || Depgraph.count_linearizations ~cap:201 g > 200
         || Infer.exact ~truth:g inferred))

let prop_infer_sound_on_network_observations =
  test "inference from member delivery orders is sound" ~count:40
    QCheck2.Gen.(pair (int_range 0 9_999) dag_gen)
    (fun (seed, ((_, deps, _) as desc)) ->
      let e = Engine.create ~seed () in
      let net =
        Net.create e ~nodes:4
          ~latency:(Latency.lognormal ~mu:0.5 ~sigma:1.3 ())
          ~fifo:false ()
      in
      let g = Group.create net () in
      List.iteri
        (fun i d ->
          Engine.schedule_at e ~time:(float_of_int i *. 0.3) (fun () ->
              ignore
                (Group.send_labelled g ~src:(i mod 4) ~label:(label_of_index i)
                   ~dep:(Dep.after_all (List.map label_of_index d))
                   i)))
        deps;
      Engine.run e;
      let truth = build_graph desc in
      let inferred = Infer.infer (Group.all_delivered_orders g) in
      Infer.over_approximation ~truth inferred)

(* --- workflow properties --- *)

module Workflow = Causalb_data.Workflow

let prop_workflow_orders_respect_declared_dag =
  test "random workflow: every member's order extends the declared DAG"
    ~count:40
    QCheck2.Gen.(pair (int_range 0 9_999) dag_gen)
    (fun (seed, (n, deps, _)) ->
      let steps =
        List.mapi
          (fun i d ->
            Workflow.step
              (Printf.sprintf "s%d" i)
              ~src:(i mod 3)
              ~after:(List.map (Printf.sprintf "s%d") d)
              i)
          deps
      in
      ignore n;
      let e = Engine.create ~seed () in
      let net =
        Net.create e ~nodes:3
          ~latency:(Latency.lognormal ~mu:0.5 ~sigma:1.2 ())
          ~fifo:false ()
      in
      let g = Group.create net () in
      ignore (Workflow.submit g steps);
      Engine.run e;
      let orders = Group.all_delivered_orders g in
      let graph = Causalb_core.Osend.graph (Group.member g 0) in
      Checker.same_set orders
      && Checker.causal_safety_all graph orders)

(* --- reliability and membership properties --- *)

module Rgroup = Causalb_core.Rgroup
module Vgroup = Causalb_core.Vgroup
module Fault = Causalb_net.Fault

let prop_rgroup_liveness_under_random_loss =
  test "rgroup: random loss rates still deliver everything" ~count:25
    QCheck2.Gen.(pair (int_range 0 5_000) (float_bound_inclusive 0.4))
    (fun (seed, drop) ->
      let e = Engine.create ~seed () in
      let net =
        Net.create e ~nodes:3
          ~fault:(Fault.make ~drop_prob:drop ())
          ~latency:(Latency.lognormal ~mu:0.3 ~sigma:0.6 ())
          ()
      in
      let g = Rgroup.create net () in
      Rgroup.enable_heartbeat g ~period:10.0 ~until:2_000.0;
      let prev = ref Dep.null in
      for i = 0 to 24 do
        Engine.schedule_at e ~time:(float_of_int i *. 0.5) (fun () ->
            let lbl = Rgroup.osend g ~src:(i mod 3) ~dep:!prev i in
            prev := Dep.after lbl)
      done;
      Engine.run e;
      List.for_all
        (fun o -> List.length o = 25)
        (Rgroup.all_delivered_orders g))

let prop_vgroup_churn_safety =
  test "vgroup: random join/leave churn keeps virtual synchrony" ~count:25
    QCheck2.Gen.(
      pair (int_range 0 5_000) (list_size (int_range 1 4) (int_range 0 5)))
    (fun (seed, churn) ->
      let e = Engine.create ~seed () in
      let net =
        Net.create e ~nodes:6
          ~latency:(Latency.lognormal ~mu:0.3 ~sigma:0.6 ())
          ~fifo:false ()
      in
      let g = Vgroup.create net ~initial:[ 0; 1 ] ~get_state:(fun ~node:_ -> ()) () in
      (* background traffic *)
      for i = 0 to 29 do
        Engine.schedule_at e ~time:(float_of_int i *. 0.7) (fun () ->
            let src = i mod 6 in
            if Vgroup.is_member g src then Vgroup.bcast g ~src i)
      done;
      (* churn: toggle membership of the listed nodes (never node 0, so a
         coordinator always survives) *)
      List.iteri
        (fun k node ->
          let node = 1 + (node mod 5) in
          Engine.schedule_at e ~time:(5.0 +. (float_of_int k *. 12.0))
            (fun () ->
              if Vgroup.is_member g node then Vgroup.leave g ~node
              else Vgroup.join g ~node))
        churn;
      Engine.run e;
      Vgroup.check_views_agree g && Vgroup.check_virtual_synchrony g)

module Dservice = Causalb_data.Dservice

let prop_dservice_churn_consistency =
  test "dservice: join/leave churn keeps all data checks green" ~count:20
    QCheck2.Gen.(
      pair (int_range 0 5_000) (list_size (int_range 1 3) (int_range 0 4)))
    (fun (seed, churn) ->
      let e = Engine.create ~seed () in
      let svc =
        Dservice.create e ~nodes:6 ~initial:[ 0; 1 ]
          ~spec:Dt.Int_register.spec
          ~latency:(Latency.lognormal ~mu:0.4 ~sigma:0.8 ())
          ()
      in
      for i = 0 to 29 do
        Engine.schedule_at e ~time:(float_of_int i *. 0.7) (fun () ->
            let src = i mod 6 in
            if Dservice.is_member svc src then
              let op =
                if i mod 9 = 8 then Dt.Int_register.Read
                else Dt.Int_register.Inc 1
              in
              Dservice.submit svc ~src op)
      done;
      List.iteri
        (fun k node ->
          let node = 1 + (node mod 5) in
          Engine.schedule_at e ~time:(6.0 +. (float_of_int k *. 14.0))
            (fun () ->
              if Dservice.is_member svc node then Dservice.leave svc ~node
              else Dservice.join svc ~node))
        churn;
      Dservice.run svc;
      List.for_all snd (Dservice.check svc))

(* --- the replica on its stable-point tracker --- *)

module Op = Causalb_data.Op
module Replica = Causalb_data.Replica

let reg_op_gen =
  let open QCheck2.Gen in
  frequency
    [
      (3, map (fun n -> Dt.Int_register.Inc n) (int_range 1 5));
      (2, map (fun n -> Dt.Int_register.Dec n) (int_range 1 5));
      (1, map (fun n -> Dt.Int_register.Set n) (int_range 0 9));
      (2, return Dt.Int_register.Read);
    ]

type replica_event = Stable of int | Read of int * int

(* Ops from the register spec, each optionally preceded by a deferred
   read, fed to a replica in order.  A direct fold over the applied
   sequence predicts what the replica on its tracker must report: one
   cycle per Ncid op, holding the Cid ops since the previous Ncid op in
   applied order, ending in the fold of [apply] over the ops up to the
   closing one; and each deferred read fired after its cycle's
   [on_stable], in registration order, with that end state. *)
let prop_replica_matches_direct_fold =
  test "replica: cycles and deferred reads = a direct fold" ~count:300
    QCheck2.Gen.(list_size (int_range 0 40) (pair reg_op_gen bool))
    (fun script ->
      let spec = Dt.Int_register.spec in
      let run ops = List.fold_left spec.Seq_spec.apply spec.Seq_spec.init ops in
      let ncid op = Seq_spec.kind spec op = Op.Non_commutative in
      let entries = List.mapi (fun i (op, _) -> (label_of_index i, op)) script in
      let steps = List.combine entries (List.map snd script) in
      let ops = List.map snd entries in
      (* the direct fold *)
      let cycles_rev = ref [] and events_rev = ref [] in
      let start = ref spec.Seq_spec.init and window = ref [] and pending = ref [] in
      List.iteri
        (fun i (((_, op) as entry), defer) ->
          if defer then pending := !pending @ [ i ];
          if not (ncid op) then window := !window @ [ entry ]
          else begin
            let k = List.length !cycles_rev in
            let end_state = run (List.filteri (fun j _ -> j <= i) ops) in
            cycles_rev := (k, !start, !window, entry, end_state) :: !cycles_rev;
            events_rev :=
              List.rev_append
                (List.map (fun id -> Read (id, end_state)) !pending)
                (Stable k :: !events_rev);
            start := end_state;
            window := [];
            pending := []
          end)
        steps;
      (* the replica *)
      let replica_events_rev = ref [] in
      let note e = replica_events_rev := e :: !replica_events_rev in
      let r =
        Replica.create ~id:0 ~spec
          ~on_stable:(fun c -> note (Stable c.Replica.index))
          ()
      in
      List.iteri
        (fun i ((label, op), defer) ->
          if defer then Replica.read_deferred r (fun s -> note (Read (i, s)));
          Replica.on_deliver r
            (Message.make ~label ~sender:(Label.origin label) ~dep:Dep.null op))
        steps;
      let cycles =
        List.map
          (fun c ->
            Replica.(c.index, c.start_state, c.window, c.closed_by, c.end_state))
          (Replica.cycles r)
      in
      (* two consecutive Ncid ops: the second closes an empty window *)
      let position l =
        let rec find i = function
          | [] -> -1
          | (l', _) :: rest -> if Label.equal l l' then i else find (i + 1) rest
        in
        find 0 entries
      in
      let rec empty_between_syncs previous = function
        | [] -> true
        | (_, _, w, (l, _), _) :: rest ->
          let p = position l in
          (p <> previous + 1 || w = []) && empty_between_syncs p rest
      in
      cycles = List.rev !cycles_rev
      && empty_between_syncs (-1) cycles
      && !replica_events_rev = !events_rev
      && Replica.state r = run ops
      && Replica.cycles_closed r = List.length cycles
      && Replica.pending_reads r = List.length !pending
      && Replica.applied r = List.map fst entries)

(* --- the cross-replica walk --- *)

module Consistency = Causalb_data.Consistency

(* Replicas fed prefixes of one register script, so their cycle counts
   differ; one of them may get an extra [Inc 1] in the window of one
   cycle, which moves its stable states from there on (unless a [Set]
   closes the cycle).  [first_disagreement] must equal its definition:
   the least cycle index [i] such that two replicas that both closed
   cycle [i] hold different states there. *)
let prop_first_disagreement_matches_definition =
  test "first_disagreement = definition" ~count:300
    QCheck2.Gen.(
      triple
        (list_size (int_range 0 40) reg_op_gen)
        (list_size (int_range 2 4) (int_range 0 40))
        (opt (pair (int_range 0 3) (int_range 0 12))))
    (fun (script, lengths, plant) ->
      let spec = Dt.Int_register.spec in
      let feed id len =
        let r = Replica.create ~id ~spec () in
        let planted = match plant with Some (p, k) when p = id -> k | _ -> -1 in
        let seq = ref 0 and syncs = ref 0 in
        let deliver op =
          Replica.on_deliver r
            (Message.make ~label:(label_of_index !seq) ~sender:id ~dep:Dep.null op);
          incr seq
        in
        List.iteri
          (fun i op ->
            if i < len then begin
              if not (Seq_spec.is_cid spec op) then begin
                if !syncs = planted then deliver (Dt.Int_register.Inc 1);
                incr syncs
              end;
              deliver op
            end)
          script;
        r
      in
      let replicas = List.mapi feed lengths in
      let states =
        List.map
          (fun r ->
            Array.of_list (List.map (fun c -> c.Replica.end_state) (Replica.cycles r)))
          replicas
      in
      let differ_at i =
        List.exists
          (fun a ->
            List.exists
              (fun b ->
                i < Array.length a && i < Array.length b && a.(i) <> b.(i))
              states)
          states
      in
      let longest = List.fold_left (fun n a -> max n (Array.length a)) 0 states in
      let rec defined i =
        if i >= longest then None else if differ_at i then Some i else defined (i + 1)
      in
      Consistency.first_disagreement replicas = defined 0)

let () =
  Alcotest.run "props"
    [
      ( "heap",
        [ prop_heap_sorts; prop_heap_pop_min ] );
      ( "stats",
        [ prop_stats_bounds; prop_stats_median_rank ] );
      ( "vector-clock",
        [
          prop_vc_leq_reflexive;
          prop_vc_leq_antisymmetric;
          prop_vc_leq_transitive;
          prop_vc_merge_lub;
          prop_vc_concurrent_symmetric;
          prop_vc_compare_consistent;
        ] );
      ( "depgraph",
        [
          prop_graph_topological_valid;
          prop_graph_linearizations_valid;
          prop_graph_happens_before_irreflexive_antisym;
          prop_graph_sync_point_total;
        ] );
      ( "osend",
        [
          prop_osend_any_arrival_order_safe;
          prop_osend_graph_matches;
          prop_osend_graph_on_demand;
        ] );
      ("group", [ prop_group_network_safety ]);
      ( "total-order",
        [
          prop_timestamp_identical_orders;
          prop_merge_identical_orders;
          prop_merge_counted_agree_under_permutations;
        ] );
      ( "inference",
        [
          prop_infer_sound_on_linearizations;
          prop_infer_sound_on_network_observations;
        ] );
      ("workflow", [ prop_workflow_orders_respect_declared_dag ]);
      ( "reliability",
        [
          prop_rgroup_liveness_under_random_loss;
          prop_vgroup_churn_safety;
          prop_dservice_churn_consistency;
        ] );
      ( "commutativity",
        [
          prop_commutative_ops_transition_preserving;
          prop_commute_at_symmetric;
        ] );
      ("replica", [ prop_replica_matches_direct_fold ]);
      ("consistency", [ prop_first_disagreement_matches_definition ]);
    ]
