(* Tests for the static consistency verifier (lib/analysis): the
   guarantee lattice laws, the bottom-up stack verifier, the pure
   workload replay, the causal-race lint — and the qcheck cross-check
   tying the static verdict to the dynamic oracle: any configuration the
   verifier accepts must also pass the trace checkers when executed —
   and qcheck equivalences holding both lints' reachability index to the
   per-query searches it replaced. *)

module Guarantee = Causalb_stackbase.Guarantee
module Stack = Causalb_stack.Stack
module Stack_verify = Causalb_analysis.Stack_verify
module Workload = Causalb_analysis.Workload
module Race_lint = Causalb_analysis.Race_lint
module Spec_lint = Causalb_check.Spec_lint
module Label = Causalb_graph.Label
module Dep = Causalb_graph.Dep
module Depgraph = Causalb_graph.Depgraph
module Dt = Causalb_data.Datatypes
module Objects = Causalb_data.Objects
module Drivers = Causalb_harness.Drivers
module Conference = Causalb_protocols.Conference
module Card_game = Causalb_protocols.Card_game
module Name_service = Causalb_protocols.Name_service

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let test ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let all_guarantees =
  Guarantee.[ Unordered; Fifo; Causal; Causal_total ]

(* --- the guarantee lattice ------------------------------------------- *)

let test_lattice_order () =
  let open Guarantee in
  check "chain" true
    (leq Unordered Fifo && leq Fifo Causal && leq Causal Causal_total);
  check "bot/top" true (equal bot Unordered && equal top Causal_total);
  List.iter
    (fun g ->
      check "reflexive" true (leq g g);
      check "bot below all" true (leq bot g);
      check "all below top" true (leq g top))
    all_guarantees;
  (* antisymmetry over the whole (finite) carrier *)
  List.iter
    (fun a ->
      List.iter
        (fun b -> if leq a b && leq b a then check "antisym" true (equal a b))
        all_guarantees)
    all_guarantees

let test_lattice_ops () =
  let open Guarantee in
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          check "join commutes" true (equal (join a b) (join b a));
          check "meet commutes" true (equal (meet a b) (meet b a));
          check "join is upper bound" true (leq a (join a b) && leq b (join a b));
          check "meet is lower bound" true (leq (meet a b) a && leq (meet a b) b);
          check "absorption" true
            (equal (join a (meet a b)) a && equal (meet a (join a b)) a);
          check "leq via join" true (leq a b = equal (join a b) b))
        all_guarantees)
    all_guarantees

let test_lattice_names () =
  List.iter
    (fun g ->
      check "to_string/of_string roundtrip" true
        (Guarantee.of_string (Guarantee.to_string g) = Some g))
    all_guarantees;
  check "unknown name" true (Guarantee.of_string "eventual" = None)

(* --- pass 1: the stack verifier -------------------------------------- *)

let test_verify_shipped_layers () =
  (* every shipped (ordering, total) combination composes cleanly *)
  let totals =
    [ Stack.Pass; Stack.Merge (fun _ -> true); Stack.Counted 3 ]
  in
  List.iter
    (fun ordering ->
      List.iter
        (fun total ->
          let r = Stack_verify.verify_stack ~ordering ~total ~fifo:false () in
          match (ordering, total) with
          | Stack.Fifo, Stack.Pass ->
            check "fifo tops at fifo" true
              (Guarantee.equal r.Stack_verify.top Guarantee.Fifo);
            check "fifo clean" true (Stack_verify.ok r)
          | Stack.Fifo, _ ->
            (* a total layer over fifo lacks its causal floor *)
            check "total over fifo flagged" true
              (List.exists
                 (function Stack_verify.Weak_layer _ -> true | _ -> false)
                 r.Stack_verify.issues)
          | _, Stack.Pass ->
            check "causal engines top at causal" true
              (Guarantee.equal r.Stack_verify.top Guarantee.Causal);
            check "causal clean" true (Stack_verify.ok r)
          | _, _ ->
            check "total tail tops at causal-total" true
              (Guarantee.equal r.Stack_verify.top Guarantee.Causal_total);
            check "total clean" true (Stack_verify.ok r))
        totals)
    [ Stack.Fifo; Stack.Bss; Stack.Psync; Stack.Osend ]

let test_verify_claim () =
  let layers = Stack_verify.layers_of ~ordering:Stack.Fifo ~total:Stack.Pass ~fifo:false in
  let r = Stack_verify.verify ~claim:Guarantee.Causal layers in
  check "overclaim flagged" true
    (List.exists
       (function
         | Stack_verify.Claim_unmet { claim; top } ->
           claim = Guarantee.Causal && top = Guarantee.Fifo
         | _ -> false)
       r.Stack_verify.issues);
  check "met claim clean" true
    (Stack_verify.ok (Stack_verify.verify ~claim:Guarantee.Fifo layers));
  (* an empty pipeline provides only the bottom *)
  let empty = Stack_verify.verify [] in
  check "empty pipeline bottoms out" true
    (Guarantee.equal empty.Stack_verify.top Guarantee.bot)

let test_verify_reports_every_layer () =
  (* verification continues past a weak layer: both ill-fitting layers
     must be named, not just the first *)
  let mk name requires provides =
    { Stack_verify.name; requires; provides }
  in
  let r =
    Stack_verify.verify
      [
        mk "transport" Guarantee.Unordered Guarantee.Unordered;
        mk "total:a" Guarantee.Causal Guarantee.Causal_total;
        mk "needs-fifo" Guarantee.Fifo Guarantee.Fifo;
      ]
  in
  let weak =
    List.filter_map
      (function
        | Stack_verify.Weak_layer { layer; _ } -> Some layer | _ -> None)
      r.Stack_verify.issues
  in
  check "first weak layer named" true (List.mem "total:a" weak);
  check_int "only the truly weak layers" 1 (List.length weak)

(* --- the workload replay --------------------------------------------- *)

let test_workload_of_ops () =
  let w =
    Workload.of_ops ~spec:Dt.Int_register.spec
      ~src:(fun i -> i mod 2)
      Dt.Int_register.[ Inc 1; Inc 2; Read ]
  in
  check_int "three sites" 3 (List.length w.Workload.sites);
  check_int "one sync" 1 (Label.Set.cardinal w.Workload.sync);
  let site i = List.nth w.Workload.sites i in
  check "classes derived" true
    ((site 0).Workload.cls = "inc" && (site 2).Workload.cls = "read");
  (* the §6.1 window: the read depends on both incs *)
  let parents = Depgraph.parents w.Workload.graph (site 2).Workload.label in
  check_int "read closes the window" 2 (List.length parents);
  (* conflicts: observer read vs inc, but not inc vs inc *)
  check "inc/read conflict" true (Workload.conflicts w (site 0) (site 2));
  check "inc/inc commute" false (Workload.conflicts w (site 0) (site 1));
  (* labels use the stack front-end's per-origin numbering *)
  check "per-origin seqs" true
    (Label.origin (site 0).Workload.label = 0
    && Label.origin (site 1).Workload.label = 1
    && Label.seq (site 2).Workload.label = 1)

let test_workload_of_sites_validation () =
  let g = Depgraph.create () in
  let a = Label.make ~name:"a" ~origin:0 ~seq:0 () in
  Depgraph.add g a ~dep:Dep.Null;
  let objects = [ Workload.obj_of_spec Dt.Int_register.spec ] in
  let site label obj cls = { Workload.label; obj; cls } in
  check "valid sites accepted" true
    (Workload.of_sites ~graph:g ~objects [ site a "int-register" "inc" ]
     |> fun w -> List.length w.Workload.sites = 1);
  Alcotest.check_raises "unknown label"
    (Invalid_argument "Workload.of_sites: label b missing from graph")
    (fun () ->
      ignore
        (Workload.of_sites ~graph:g ~objects
           [ site (Label.make ~name:"b" ~origin:0 ~seq:1 ()) "int-register" "inc" ]));
  Alcotest.check_raises "unknown object"
    (Invalid_argument "Workload.of_sites: unknown object \"ghost\"")
    (fun () ->
      ignore (Workload.of_sites ~graph:g ~objects [ site a "ghost" "inc" ]))

(* --- pass 2: the race lint ------------------------------------------- *)

(* Two incs from two members closed by a read from a third; [drop]
   deletes the read's R(M) edges. *)
let mini ~drop =
  let graph = Depgraph.create () in
  let l name origin = Label.make ~name ~origin ~seq:0 () in
  let a = l "inc-a" 0 and b = l "inc-b" 1 and r = l "read" 2 in
  Depgraph.add graph a ~dep:Dep.Null;
  Depgraph.add graph b ~dep:Dep.Null;
  Depgraph.add graph r
    ~dep:(if drop then Dep.Null else Dep.after_all [ a; b ]);
  let site label cls = { Workload.label; obj = "int-register"; cls } in
  Workload.of_sites ~graph
    ~sync:(Label.Set.singleton r)
    ~objects:[ Workload.obj_of_spec Dt.Int_register.spec ]
    [ site a "inc"; site b "inc"; site r "read" ]

let test_race_ordered_pair () =
  let w = mini ~drop:false in
  check "ordered workload race-free at causal" true
    (Race_lint.check ~top:Guarantee.Causal w = []);
  check "demand is causal" true
    (Guarantee.equal (Race_lint.required w) Guarantee.Causal)

let test_race_deleted_edge () =
  let w = mini ~drop:true in
  let races = Race_lint.check ~top:Guarantee.Causal w in
  check_int "both unordered pairs flagged" 2 (List.length races);
  List.iter
    (fun r ->
      check "need is causal-total" true
        (Guarantee.equal r.Race_lint.need Guarantee.Causal_total);
      check "missing edge names the pair" true
        (List.length r.Race_lint.missing = 2))
    races;
  check "demand rises to causal-total" true
    (Guarantee.equal (Race_lint.required w) Guarantee.Causal_total);
  check "a total-order stack covers it" true
    (Race_lint.check ~top:Guarantee.Causal_total w = []);
  check "diags carry the chain" true
    (List.for_all
       (fun d -> d.Causalb_check.Diag.check = "race:causal")
       (Race_lint.to_diags races))

let test_race_same_origin () =
  (* two sets from the same member: per-sender FIFO already orders them *)
  let graph = Depgraph.create () in
  let a = Label.make ~name:"s0" ~origin:0 ~seq:0 () in
  let b = Label.make ~name:"s1" ~origin:0 ~seq:1 () in
  Depgraph.add graph a ~dep:Dep.Null;
  Depgraph.add graph b ~dep:Dep.Null;
  let site label = { Workload.label; obj = "int-register"; cls = "set" } in
  let w =
    Workload.of_sites ~graph
      ~objects:[ Workload.obj_of_spec Dt.Int_register.spec ]
      [ site a; site b ]
  in
  check "need is fifo" true
    (Race_lint.pair_need w (List.nth w.Workload.sites 0)
       (List.nth w.Workload.sites 1)
    = Some Guarantee.Fifo);
  check "fifo top suffices" true (Race_lint.check ~top:Guarantee.Fifo w = []);
  check "demand is fifo" true
    (Guarantee.equal (Race_lint.required w) Guarantee.Fifo)

let test_race_sync_separation () =
  (* x and y are ordered through the sync point between them, x → s → y:
     sync separation is a case of R(M) reachability, not a criterion of
     its own *)
  let graph = Depgraph.create () in
  let l name origin = Label.make ~name ~origin ~seq:0 () in
  let x = l "x" 0 and s = l "s" 1 and y = l "y" 2 in
  Depgraph.add graph x ~dep:Dep.Null;
  Depgraph.add graph s ~dep:(Dep.after x);
  Depgraph.add graph y ~dep:(Dep.after s);
  let site label = { Workload.label; obj = "int-register"; cls = "set" } in
  let w =
    Workload.of_sites ~graph
      ~sync:(Label.Set.singleton s)
      ~objects:[ Workload.obj_of_spec Dt.Int_register.spec ]
      [ site x; site y ]
  in
  check "sync-separated pair needs only causal" true
    (Race_lint.pair_need w (List.nth w.Workload.sites 0)
       (List.nth w.Workload.sites 1)
    = Some Guarantee.Causal);
  check "causal top suffices" true
    (Race_lint.check ~top:Guarantee.Causal w = [])

let test_shipped_workloads_clean () =
  (* every shipped composition and object workload must lint clean *)
  let w = { Drivers.ops = 40; spacing = 0.5; mix = Drivers.Fixed_window 4 } in
  List.iter
    (fun spec ->
      let r = Drivers.static_audit ~replicas:3 spec w in
      check
        (Printf.sprintf "%s statically clean" (Drivers.stack_spec_name spec))
        true (Drivers.static_ok r))
    [
      Drivers.Fifo_only;
      Drivers.Bss_stack;
      Drivers.Psync_stack;
      Drivers.Osend_stack;
      Drivers.Osend_merge;
      Drivers.Osend_counted 41;
      Drivers.Osend_sequencer;
    ];
  let rounds = 6 and window = 4 and replicas = 3 in
  List.iter
    (fun (name, w) ->
      check (name ^ " race-free at causal") true
        (Race_lint.check ~top:Guarantee.Causal w = []))
    [
      ( "counter",
        Workload.of_submissions ~spec:Objects.Counter.spec
          (Drivers.counter_pipeline ~replicas ~rounds ~window ()) );
      ( "cart",
        Workload.of_submissions ~spec:Objects.Or_set.spec
          (Drivers.cart_workload ~replicas ~rounds ~window ()) );
      ( "edit",
        Workload.of_submissions ~spec:Objects.Rga.spec
          (Drivers.editing_workload ~replicas ~rounds ~window ()) );
    ]

let test_protocol_schedules () =
  (* the schedules the protocol modules export lint as the paper
     predicts: conference rides the causal service; card-game's plays
     commute (the chain serves turn-taking, not consistency); the
     name-service spontaneous mix demands causal-total — only the Fig. 4
     sequencer box covers it, the app-check box leaves pairs to the
     application's context check. *)
  let sections = 3 in
  let conference =
    Workload.of_submissions
      ~spec:(Dt.Document.spec ~sections)
      (Conference.session_schedule ~participants:3 ~sections ~annotations:24
         ~commit_every:6 (Causalb_util.Rng.create 7))
  in
  check "conference has sync points" true
    (not (Label.Set.is_empty conference.Workload.sync));
  check "conference demand at most causal" true
    (Guarantee.leq (Race_lint.required conference) Guarantee.Causal);
  check "conference race-free at causal" true
    (Race_lint.check ~top:Guarantee.Causal conference = []);
  (* same rng seed → the schedule is deterministic *)
  check "conference schedule deterministic" true
    (Conference.session_schedule ~participants:3 ~sections ~annotations:24
       ~commit_every:6 (Causalb_util.Rng.create 7)
    = Conference.session_schedule ~participants:3 ~sections ~annotations:24
        ~commit_every:6 (Causalb_util.Rng.create 7));
  let cards =
    let rows = Card_game.static_schedule ~players:3 ~rounds:4 in
    let spec = Dt.Card_table.spec in
    let obj = Workload.obj_of_spec spec in
    let graph = Depgraph.create () in
    List.iter (fun (label, dep, _, _) -> Depgraph.add graph label ~dep) rows;
    Workload.of_sites ~graph ~objects:[ obj ]
      (List.map
         (fun (label, _, _, op) ->
           {
             Workload.label;
             obj = obj.Workload.name;
             cls = spec.Causalb_data.Seq_spec.class_of op;
           })
         rows)
  in
  check "card-game demand is unordered" true
    (Guarantee.equal (Race_lint.required cards) Guarantee.Unordered);
  check "card-game race-free" true
    (Race_lint.check ~top:Guarantee.Causal cards = []);
  let ns =
    let spec = Dt.Kv_store.spec in
    let obj = Workload.obj_of_spec spec in
    let graph = Depgraph.create () in
    let seqs = Hashtbl.create 8 in
    Workload.of_sites ~graph ~objects:[ obj ]
      (List.map
         (fun (src, op) ->
           let seq = Option.value ~default:0 (Hashtbl.find_opt seqs src) in
           Hashtbl.replace seqs src (seq + 1);
           let label = Label.make ~origin:src ~seq () in
           Depgraph.add graph label ~dep:Dep.Null;
           {
             Workload.label;
             obj = obj.Workload.name;
             cls = spec.Causalb_data.Seq_spec.class_of op;
           })
         (* 4 front-ends, coprime with the 1-in-3 update stride, so
            conflicting upds really do come from different origins *)
         (Name_service.static_schedule ~front_ends:4 ~keys:2 ~ops:24))
  in
  check "name-service demands causal-total" true
    (Guarantee.equal (Race_lint.required ns) Guarantee.Causal_total);
  check "name-service clean under the sequencer box" true
    (Race_lint.check ~top:Guarantee.Causal_total ns = []);
  check "app-check box leaves pairs to the context check" true
    (Race_lint.check ~top:Guarantee.Causal ns <> [])

let test_refuse_mode () =
  (* a workload whose §6.1 intent is intact passes both static passes *)
  let w = { Drivers.ops = 20; spacing = 0.5; mix = Drivers.Fixed_window 4 } in
  let r = Drivers.run_stack ~check:true ~replicas:3 Drivers.Osend_stack w in
  check "clean config passes" true r.Drivers.checks_ok

(* --- the static/dynamic cross-check ---------------------------------- *)

(* Any configuration the static verifier accepts must also pass the
   dynamic oracle when actually executed: same seed, same workload, same
   composition.  (The reverse is not true — the static pass is the
   stronger, execution-free claim.) *)
let config_gen =
  let open QCheck2.Gen in
  let mix =
    oneof
      [
        (int_range 1 6 >|= fun k -> Drivers.Fixed_window k);
        (float_bound_inclusive 1.0 >|= fun p -> Drivers.Random p);
      ]
  in
  quad (int_range 0 6) mix (int_range 2 5) (int_range 0 9999)

(* The counted tail's threshold follows the workload size, as everywhere
   the composition is shipped ([ops] + the appended closing sync): a
   count the workload never reaches is a liveness misconfiguration, out
   of scope for the ordering verifier. *)
let spec_of_index ~ops = function
  | 0 -> Drivers.Fifo_only
  | 1 -> Drivers.Bss_stack
  | 2 -> Drivers.Psync_stack
  | 3 -> Drivers.Osend_stack
  | 4 -> Drivers.Osend_merge
  | 5 -> Drivers.Osend_counted (ops + 1)
  | _ -> Drivers.Osend_sequencer

let cross_check_prop (idx, mix, replicas, seed) =
  let ops = 20 + (seed mod 21) in
  let spec = spec_of_index ~ops idx in
  let w = { Drivers.ops; spacing = 0.7; mix } in
  let s = Drivers.static_audit ~seed ~replicas spec w in
  if not (Drivers.static_ok s) then
    QCheck2.Test.fail_reportf "static verifier rejected a shipped config: %s"
      (Drivers.stack_spec_name spec)
  else begin
    let r = Drivers.run_stack ~seed ~check:true ~replicas spec w in
    match r.Drivers.audit with
    | None -> QCheck2.Test.fail_report "no audit from ~check:true"
    | Some a ->
      a.Drivers.diagnostics = []
      && a.Drivers.lint = []
      && a.Drivers.static = []
      && r.Drivers.checks_ok
  end

(* --- the reachability index against the searches it replaced --------- *)

(* A random dependency graph over labels [0, u) of which only [0, n) are
   added, in index order.  Most names point at an earlier label; a
   per-graph share of them may point anywhere, so a predicate can name a
   label added later (a forward name, which may close a cycle) or one
   never added (absent).  Up to 140 labels: ancestor rows span several
   [int] words.  Predicates are built raw, so duplicate names, singleton
   conjunctions and empty alternatives occur too. *)
let reach_graph_gen =
  let open QCheck2.Gen in
  int_range 1 140 >>= fun n ->
  int_range 0 4 >>= fun absent ->
  int_range 0 25 >>= fun forward_pct ->
  let u = n + absent in
  let name i =
    int_range 0 99 >>= fun r ->
    if i = 0 || r < forward_pct then int_range 0 (u - 1)
    else int_range 0 (i - 1)
  in
  let dep i =
    pair (int_range 0 3) (list_size (int_range 0 4) (name i))
    >|= fun (kind, names) -> (kind, List.filter (fun j -> j <> i) names)
  in
  let rec deps i acc =
    if i = n then return (u, List.rev acc)
    else dep i >>= fun d -> deps (i + 1) (d :: acc)
  in
  deps 0 []

let reach_label i = Label.make ~origin:(i mod 7) ~seq:(i / 7) ()

let reach_dep (kind, names) =
  let ls = List.map reach_label names in
  match (kind, ls) with
  | 0, _ | _, [] -> Dep.Null
  | 1, l :: _ -> Dep.After l
  | 2, _ -> Dep.After_all ls
  | _ -> Dep.After_any ls

let reach_graph (_, deps) =
  let g = Depgraph.create () in
  List.iteri
    (fun i d -> Depgraph.add g (reach_label i) ~dep:(reach_dep d))
    deps;
  g

let print_reach_graph (u, deps) =
  Printf.sprintf "u=%d %s" u
    (String.concat " "
       (List.mapi
          (fun i (kind, names) ->
            Printf.sprintf "%d:%s[%s]" i
              (match kind with
              | 0 -> "null"
              | 1 -> "after"
              | 2 -> "all"
              | _ -> "any")
              (String.concat "," (List.map string_of_int names)))
          deps))

let outcome f x = match f x with v -> Some v | exception Not_found -> None

let prop_reach_equals_ancestors =
  QCheck2.Test.make ~count:200 ~name:"precedes = mem (ancestors)"
    ~print:print_reach_graph reach_graph_gen (fun ((u, _) as d) ->
      let g = reach_graph d in
      let r = Depgraph.reach g in
      let universe = List.init u reach_label in
      List.for_all
        (fun b ->
          let anc = outcome (Depgraph.ancestors g) b in
          List.for_all
            (fun a ->
              outcome (Depgraph.precedes r a) b
              = Option.map (Label.Set.mem a) anc)
            universe)
        universe)

(* [Spec_lint.lint] as it was written before the index: a fresh
   [ancestors] or [happens_before] search per (parent, parent) pair. *)
let spec_lint_per_pair g =
  let issues = ref [] in
  let add i = issues := i :: !issues in
  (match Depgraph.find_cycle g with
  | Some path -> add (Spec_lint.Cycle path)
  | None -> ());
  List.iter
    (fun l ->
      let dep = Depgraph.dep_of g l in
      let missing = Depgraph.missing_parents g l in
      List.iter
        (fun m -> add (Spec_lint.Dangling { label = l; missing = m }))
        missing;
      (match dep with
      | Dep.Null -> ()
      | Dep.After _ | Dep.After_all _ ->
        if missing <> [] then
          add (Spec_lint.Unsatisfiable { label = l; missing })
      | Dep.After_any alts ->
        if missing <> [] && List.length missing = List.length alts then
          add (Spec_lint.Unsatisfiable { label = l; missing }));
      match dep with
      | Dep.Null | Dep.After _ -> ()
      | Dep.After_all _ ->
        let parents = Depgraph.parents g l in
        List.iter
          (fun a ->
            match
              List.find_opt
                (fun p ->
                  (not (Label.equal p a))
                  && Label.Set.mem a (Depgraph.ancestors g p))
                parents
            with
            | Some via ->
              add (Spec_lint.Redundant_edge { label = l; ancestor = a; via })
            | None -> ())
          parents
      | Dep.After_any alts ->
        let present = List.filter (Depgraph.mem g) alts in
        List.iter
          (fun b ->
            match
              List.find_opt
                (fun a ->
                  (not (Label.equal a b)) && Depgraph.happens_before g a b)
                present
            with
            | Some a ->
              add
                (Spec_lint.Dead_alternative
                   { label = l; alt = b; implied_by = a })
            | None -> ())
          present)
    (Depgraph.labels g);
  List.rev !issues

let prop_spec_lint_equals_per_pair =
  QCheck2.Test.make ~count:200 ~name:"spec lint = per-pair searches"
    ~print:print_reach_graph reach_graph_gen (fun d ->
      let g = reach_graph d in
      let expected = spec_lint_per_pair g in
      Spec_lint.lint g = expected
      && Spec_lint.lint ~reach:(Depgraph.reach g) g = expected)

(* Both lints refuse an index that does not answer for the graph they
   are handed: one built from an equal copy, or one the graph has
   outgrown. *)
let test_foreign_reach () =
  let d = (4, [ (0, []); (1, [ 0 ]); (2, [ 0; 1 ]) ]) in
  let g = reach_graph d and copy = reach_graph d in
  let refused f =
    match f () with _ -> false | exception Invalid_argument _ -> true
  in
  let w =
    { Workload.graph = g; sync = Label.Set.empty; objects = []; sites = []; deps = [||] }
  in
  Alcotest.(check bool) "own index accepted" false
    (refused (fun () -> Spec_lint.lint ~reach:(Depgraph.reach g) g));
  Alcotest.(check bool) "spec lint, copy's index" true
    (refused (fun () -> Spec_lint.lint ~reach:(Depgraph.reach copy) g));
  Alcotest.(check bool) "race lint, copy's index" true
    (refused (fun () -> Race_lint.analyse ~reach:(Depgraph.reach copy) w));
  let stale = Depgraph.reach g in
  Depgraph.add g (reach_label 3) ~dep:Dep.Null;
  Alcotest.(check bool) "spec lint, stale index" true
    (refused (fun () -> Spec_lint.lint ~reach:stale g));
  Alcotest.(check bool) "race lint, stale index" true
    (refused (fun () -> Race_lint.analyse ~reach:stale w))

(* [Race_lint] as it was written before the one sweep: [check] and
   [required] each visit every pair, against memoised [ancestors] sets
   and a sync-separation test of their own. *)
let race_lint_two_sweeps ~top (w : Workload.t) =
  let cache = Label.Tbl.create 64 in
  let ancestors l =
    match Label.Tbl.find_opt cache l with
    | Some s -> s
    | None ->
      let s = Depgraph.ancestors w.Workload.graph l in
      Label.Tbl.replace cache l s;
      s
  in
  let hb a b = Label.Set.mem a (ancestors b) in
  let sync_separated a b =
    Label.Set.exists
      (fun s ->
        Depgraph.mem w.Workload.graph s
        && ((hb a s && hb s b) || (hb b s && hb s a)))
      w.Workload.sync
  in
  let need (a : Workload.site) (b : Workload.site) =
    if not (Workload.conflicts w a b) then None
    else if Label.origin a.Workload.label = Label.origin b.Workload.label
    then Some Guarantee.Fifo
    else if
      hb a.Workload.label b.Workload.label
      || hb b.Workload.label a.Workload.label
      || sync_separated a.Workload.label b.Workload.label
    then Some Guarantee.Causal
    else Some Guarantee.Causal_total
  in
  let sites = Array.of_list w.Workload.sites in
  let n = Array.length sites in
  let pairs =
    List.concat
      (List.init n (fun i ->
           List.init (n - i - 1) (fun k -> (sites.(i), sites.(i + k + 1)))))
  in
  let races =
    List.filter_map
      (fun (a, b) ->
        match need a b with
        | Some need when not (Guarantee.leq need top) ->
          Some
            {
              Race_lint.a;
              b;
              need;
              top;
              missing = [ a.Workload.label; b.Workload.label ];
            }
        | _ -> None)
      pairs
  in
  let demand =
    List.fold_left
      (fun d (a, b) ->
        match need a b with Some n -> Guarantee.join d n | None -> d)
      Guarantee.bot pairs
  in
  (races, demand)

(* A workload over a random graph: sites on a random subset of the added
   labels, on two registers, and a sync set drawn from the whole label
   range — labels never added included. *)
let race_workload_gen =
  let open QCheck2.Gen in
  reach_graph_gen >>= fun ((u, deps) as d) ->
  let n = List.length deps in
  let site = triple (int_range 0 (n - 1)) (int_range 0 1) (int_range 0 3) in
  quad (return d) (list_size (int_range 0 n) site)
    (list_size (int_range 0 12) (int_range 0 (u + 2)))
    (oneofl all_guarantees)

let race_workload (d, sites, sync, top) =
  let graph = reach_graph d in
  let objects =
    [
      Workload.obj_of_spec ~name:"x" Dt.Int_register.spec;
      Workload.obj_of_spec ~name:"y" Dt.Int_register.spec;
    ]
  in
  let sites =
    List.map
      (fun (i, o, c) ->
        {
          Workload.label = reach_label i;
          obj = (if o = 0 then "x" else "y");
          cls = List.nth [ "inc"; "dec"; "set"; "read" ] c;
        })
      sites
  in
  let sync = Label.Set.of_list (List.map reach_label sync) in
  (Workload.of_sites ~graph ~sync ~objects sites, top)

let prop_race_lint_equals_two_sweeps =
  QCheck2.Test.make ~count:100 ~name:"race sweep = check + required"
    ~print:(fun (d, sites, sync, top) ->
      Printf.sprintf "%s sites=[%s] sync=[%s] top=%s" (print_reach_graph d)
        (String.concat ","
           (List.map (fun (i, o, c) -> Printf.sprintf "%d/%d/%d" i o c) sites))
        (String.concat "," (List.map string_of_int sync))
        (Guarantee.to_string top))
    race_workload_gen (fun x ->
      let w, top = race_workload x in
      let races, demand = race_lint_two_sweeps ~top w in
      Race_lint.analyse ~top w = { Race_lint.races; demand })

(* [Race_lint.analyse] as it was written before the integer sweep: each
   pair compares object names through [Workload.conflicts], which calls
   the spec closures, and asks [Depgraph.precedes] by label. *)
let race_lint_per_pair ~top (w : Workload.t) =
  let reach = Depgraph.reach w.Workload.graph in
  let need (a : Workload.site) (b : Workload.site) =
    if not (Workload.conflicts w a b) then None
    else if Label.origin a.Workload.label = Label.origin b.Workload.label
    then Some Guarantee.Fifo
    else if
      Depgraph.precedes reach a.Workload.label b.Workload.label
      || Depgraph.precedes reach b.Workload.label a.Workload.label
    then Some Guarantee.Causal
    else Some Guarantee.Causal_total
  in
  let sites = Array.of_list w.Workload.sites in
  let n = Array.length sites in
  let races = ref [] and demand = ref Guarantee.bot in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      let a = sites.(i) and b = sites.(j) in
      match need a b with
      | None -> ()
      | Some need ->
        demand := Guarantee.join !demand need;
        if not (Guarantee.leq need top) then
          races :=
            {
              Race_lint.a;
              b;
              need;
              top;
              missing = [ a.Workload.label; b.Workload.label ];
            }
            :: !races
    done
  done;
  { Race_lint.races = List.rev !races; demand = !demand }

(* Multi-object workloads built field by field, past [Workload.of_sites]'
   validation: one to three objects named from x/y/z (a name may repeat;
   the first one counts), each with its own possibly asymmetric
   commutativity matrix and observer set over classes c0..c3; sites on
   x/y/z or the unknown w, on classes c0..c4 (c4 undeclared), on labels
   the graph may lack — where both sweeps must raise [Not_found]. *)
let multi_workload_gen =
  let open QCheck2.Gen in
  reach_graph_gen >>= fun ((u, _) as d) ->
  let obj = triple (oneofl [ "x"; "y"; "z" ]) (list_repeat 16 bool) (list_repeat 4 bool) in
  let site = triple (int_range 0 (u - 1)) (oneofl [ "x"; "y"; "z"; "w" ]) (int_range 0 4) in
  quad (return d) (list_size (int_range 1 3) obj)
    (list_size (int_range 0 40) site) (oneofl all_guarantees)

let multi_workload (d, objs, sites, top) =
  let cls c = Printf.sprintf "c%d" c in
  let idx c = (Char.code c.[1] - Char.code '0') mod 4 in
  let objects =
    List.map
      (fun (name, commute, observe) ->
        {
          Workload.name;
          commutes = (fun a b -> List.nth commute ((4 * idx a) + idx b));
          observer = (fun c -> List.nth observe (idx c));
        })
      objs
  in
  let sites =
    List.map
      (fun (i, obj, c) -> { Workload.label = reach_label i; obj; cls = cls c })
      sites
  in
  ( { Workload.graph = reach_graph d; sync = Label.Set.empty; objects; sites; deps = [||] },
    top )

let prop_race_sweep_equals_per_pair =
  QCheck2.Test.make ~count:300 ~name:"race sweep = per-pair need"
    ~print:(fun (d, objs, sites, top) ->
      Printf.sprintf "%s objects=[%s] sites=[%s] top=%s" (print_reach_graph d)
        (String.concat ","
           (List.map
              (fun (n, c, o) ->
                Printf.sprintf "%s:%s/%s" n
                  (String.concat "" (List.map (fun b -> if b then "1" else "0") c))
                  (String.concat "" (List.map (fun b -> if b then "1" else "0") o)))
              objs))
        (String.concat ","
           (List.map (fun (i, o, c) -> Printf.sprintf "%d/%s/c%d" i o c) sites))
        (Guarantee.to_string top))
    multi_workload_gen (fun x ->
      let w, top = multi_workload x in
      let run f = match f () with r -> Some r | exception Not_found -> None in
      let expected = run (fun () -> race_lint_per_pair ~top w) in
      expected = run (fun () -> Race_lint.analyse ~top w)
      && expected
         = run (fun () ->
               Race_lint.analyse ~reach:(Depgraph.reach w.Workload.graph) ~top w))

let () =
  Alcotest.run "analysis"
    [
      ( "lattice",
        [
          Alcotest.test_case "order" `Quick test_lattice_order;
          Alcotest.test_case "join/meet laws" `Quick test_lattice_ops;
          Alcotest.test_case "names" `Quick test_lattice_names;
        ] );
      ( "verify",
        [
          Alcotest.test_case "shipped layer combos" `Quick
            test_verify_shipped_layers;
          Alcotest.test_case "claims" `Quick test_verify_claim;
          Alcotest.test_case "every weak layer named" `Quick
            test_verify_reports_every_layer;
        ] );
      ( "workload",
        [
          Alcotest.test_case "of_ops replay" `Quick test_workload_of_ops;
          Alcotest.test_case "of_sites validation" `Quick
            test_workload_of_sites_validation;
        ] );
      ( "races",
        [
          Alcotest.test_case "ordered pair" `Quick test_race_ordered_pair;
          Alcotest.test_case "deleted edge" `Quick test_race_deleted_edge;
          Alcotest.test_case "same origin" `Quick test_race_same_origin;
          Alcotest.test_case "sync separation" `Quick
            test_race_sync_separation;
          Alcotest.test_case "shipped workloads clean" `Quick
            test_shipped_workloads_clean;
          Alcotest.test_case "protocol schedules" `Quick
            test_protocol_schedules;
          Alcotest.test_case "refuse mode" `Quick test_refuse_mode;
        ] );
      ( "reach equivalence",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_reach_equals_ancestors;
            prop_spec_lint_equals_per_pair;
            prop_race_lint_equals_two_sweeps;
            prop_race_sweep_equals_per_pair;
          ]
        @ [ Alcotest.test_case "foreign index refused" `Quick test_foreign_reach ] );
      ( "cross-check",
        [
          test ~count:40 "static accept => dynamic clean" config_gen
            cross_check_prop;
        ] );
    ]
