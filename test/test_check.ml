(* Tests for the ordering oracle (lib/check): the trace scan primitives,
   the four offline checkers on hand-built and simulated traces, the
   dependency-spec lint, and the mutation harness — every composition's
   clean trace must pass, every seeded violation must be caught. *)

module Trace = Causalb_sim.Trace
module Label = Causalb_graph.Label
module Dep = Causalb_graph.Dep
module Depgraph = Causalb_graph.Depgraph
module Diag = Causalb_check.Diag
module Trace_check = Causalb_check.Trace_check
module Spec_lint = Causalb_check.Spec_lint
module Mutate = Causalb_check.Mutate
module Drivers = Causalb_harness.Drivers

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let lbl ?name origin seq = Label.make ?name ~origin ~seq ()

(* --- trace storage primitives ---------------------------------------- *)

let test_trace_array () =
  let t = Trace.create ~capacity:2 () in
  for i = 0 to 99 do
    Trace.record t ~time:(float_of_int i) ~node:(i mod 3) ~kind:Trace.Deliver
      ~tag:(Printf.sprintf "m%d" i) ()
  done;
  check_int "length" 100 (Trace.length t);
  check_int "get 0 node" 0 (Trace.get t 0).Trace.node;
  check "get 99 tag" true ((Trace.get t 99).Trace.tag = "m99");
  let n = ref 0 in
  Trace.iter t (fun _ -> incr n);
  check_int "iter visits all" 100 !n;
  let sum = Trace.fold t ~init:0.0 ~f:(fun acc r -> acc +. r.Trace.time) in
  check "fold sums times" true (sum = 4950.0);
  check_int "events agrees" 100 (List.length (Trace.events t));
  check "get out of range" true
    (try
       ignore (Trace.get t 100);
       false
     with Invalid_argument _ -> true)

let test_deliveries_include_release () =
  let t = Trace.create () in
  Trace.record t ~time:1.0 ~node:0 ~kind:Trace.Deliver ~tag:"a" ();
  Trace.record t ~time:2.0 ~node:0 ~kind:Trace.Deliver ~tag:"b" ();
  Trace.record t ~time:3.0 ~node:0 ~kind:Trace.Release ~tag:"b" ();
  Trace.record t ~time:4.0 ~node:0 ~kind:Trace.Release ~tag:"a" ();
  (* deliveries_at surfaces both kinds: the deliver→release pairing *)
  check_int "deliver and release surfaced" 4
    (List.length (Trace.deliveries_at t 0));
  (* the application-visible order is the Release sequence when present *)
  check "delivery_order prefers releases" true
    (Trace.delivery_order t 0 = [ "b"; "a" ]);
  let t2 = Trace.create () in
  Trace.record t2 ~time:1.0 ~node:0 ~kind:Trace.Deliver ~tag:"a" ();
  check "delivery_order falls back to delivers" true
    (Trace.delivery_order t2 0 = [ "a" ])

(* --- depgraph analysis helpers ---------------------------------------- *)

let test_graph_helpers () =
  let a = lbl 0 0 and b = lbl 1 0 and c = lbl 2 0 and ghost = lbl 3 9 in
  let g = Depgraph.create () in
  Depgraph.add g a ~dep:Dep.null;
  Depgraph.add g b ~dep:(Dep.after a);
  Depgraph.add g c ~dep:(Dep.after_all [ b; ghost ]);
  check "missing_parents names the ghost" true
    (Depgraph.missing_parents g c = [ ghost ]);
  check "no missing parents for b" true (Depgraph.missing_parents g b = []);
  check "acyclic" true (Depgraph.find_cycle g = None);
  (match Depgraph.shortest_path g a c with
  | Some [ x; y; z ] ->
    check "path a->b->c" true
      (Label.equal x a && Label.equal y b && Label.equal z c)
  | _ -> Alcotest.fail "expected a 3-label path");
  check "no reverse path" true (Depgraph.shortest_path g c a = None);
  (* forward references make cycles expressible: the lint must see them *)
  let g2 = Depgraph.create () in
  let x = lbl 0 1 and y = lbl 1 1 in
  Depgraph.add g2 x ~dep:(Dep.after y);
  Depgraph.add g2 y ~dep:(Dep.after x);
  match Depgraph.find_cycle g2 with
  | Some (first :: _ :: _ as path) ->
    check "cycle closes on itself" true
      (Label.equal first (List.nth path (List.length path - 1)))
  | _ -> Alcotest.fail "expected a cycle"

(* --- checkers on hand-built traces ------------------------------------ *)

(* Two messages, b depends on a; node 0 delivers them in order, node 1
   delivers b first: the causal checker must name node 1, both records,
   and the a -> b chain. *)
let test_causal_checker () =
  let a = lbl ~name:"a" 0 0 and b = lbl ~name:"b" 1 0 in
  let g = Depgraph.create () in
  Depgraph.add g a ~dep:Dep.null;
  Depgraph.add g b ~dep:(Dep.after a);
  let t = Trace.create () in
  Trace.record t ~time:1.0 ~node:0 ~kind:Trace.Deliver ~tag:"a" ();
  Trace.record t ~time:2.0 ~node:0 ~kind:Trace.Deliver ~tag:"b" ();
  Trace.record t ~time:1.0 ~node:1 ~kind:Trace.Deliver ~tag:"b" ();
  Trace.record t ~time:2.0 ~node:1 ~kind:Trace.Deliver ~tag:"a" ();
  match Trace_check.causal ~graph:g t with
  | [ d ] ->
    check "names node 1" true (d.Diag.node = Some 1);
    check_int "both records cited" 2 (List.length d.Diag.records);
    check "chain a->b" true
      (List.map Label.name d.Diag.chain = [ "a"; "b" ])
  | ds -> Alcotest.fail (Printf.sprintf "expected 1 diag, got %d" (List.length ds))

let test_fifo_checker () =
  let a = lbl ~name:"a" 0 0 and b = lbl ~name:"b" 0 1 in
  let g = Depgraph.create () in
  Depgraph.add g a ~dep:Dep.null;
  Depgraph.add g b ~dep:Dep.null;
  let t = Trace.create () in
  Trace.record t ~time:1.0 ~node:0 ~kind:Trace.Deliver ~tag:"b" ();
  Trace.record t ~time:2.0 ~node:0 ~kind:Trace.Deliver ~tag:"a" ();
  (match Trace_check.fifo ~graph:g t with
  | [ d ] -> check "fifo diag at node 0" true (d.Diag.node = Some 0)
  | _ -> Alcotest.fail "expected exactly one fifo diag");
  let clean = Trace.create () in
  Trace.record clean ~time:1.0 ~node:0 ~kind:Trace.Deliver ~tag:"a" ();
  Trace.record clean ~time:2.0 ~node:0 ~kind:Trace.Deliver ~tag:"b" ();
  check "in-order passes" true (Trace_check.fifo ~graph:g clean = [])

(* A doubled Deliver record: the causal checker (per-node delivered set)
   and the FIFO checker (an equal sequence number) both name it. *)
let test_duplicate_checker () =
  let a = lbl ~name:"a" 0 0 and b = lbl ~name:"b" 0 1 in
  let g = Depgraph.create () in
  Depgraph.add g a ~dep:Dep.null;
  Depgraph.add g b ~dep:(Dep.after a);
  let t = Trace.create () in
  Trace.record t ~time:1.0 ~node:0 ~kind:Trace.Deliver ~tag:"a" ();
  Trace.record t ~time:2.0 ~node:0 ~kind:Trace.Deliver ~tag:"b" ();
  Trace.record t ~time:3.0 ~node:0 ~kind:Trace.Deliver ~tag:"b" ();
  Trace.record t ~time:1.0 ~node:1 ~kind:Trace.Deliver ~tag:"a" ();
  Trace.record t ~time:2.0 ~node:1 ~kind:Trace.Deliver ~tag:"b" ();
  let named checker =
    match checker ~graph:g t with
    | [ d ] ->
      d.Diag.check = "duplicate"
      && d.Diag.node = Some 0
      && List.map (fun r -> r.Trace.time) d.Diag.records = [ 2.0; 3.0 ]
    | _ -> false
  in
  check "causal names the duplicate" true (named Trace_check.causal);
  check "fifo names the duplicate" true (named Trace_check.fifo)

let test_total_order_checker () =
  let a = lbl ~name:"a" 0 0 and b = lbl ~name:"b" 1 0 in
  let s = lbl ~name:"s" 2 0 in
  let g = Depgraph.create () in
  Depgraph.add g a ~dep:Dep.null;
  Depgraph.add g b ~dep:Dep.null;
  Depgraph.add g s ~dep:(Dep.after_all [ a; b ]);
  let rel t node tags =
    List.iteri
      (fun i tag ->
        Trace.record t ~time:(float_of_int i) ~node ~kind:Trace.Release ~tag ())
      tags
  in
  (* same window set, different interior order: windows agree, strict no *)
  let t = Trace.create () in
  rel t 0 [ "a"; "b"; "s" ];
  rel t 1 [ "b"; "a"; "s" ];
  let sync = Label.Set.singleton s in
  check "window agreement holds" true (Trace_check.total_order ~graph:g ~sync t = []);
  check "strict agreement fails" true
    (Trace_check.total_order ~strict:true ~graph:g ~sync:Label.Set.empty t <> []);
  (* an interior op past its sync: window agreement must fail *)
  let t2 = Trace.create () in
  rel t2 0 [ "a"; "b"; "s" ];
  rel t2 1 [ "a"; "s"; "b" ];
  check "migrated interior caught" true
    (Trace_check.total_order ~graph:g ~sync t2 <> [])

let test_stable_checker () =
  let mark t node tag info =
    Trace.record t ~time:1.0 ~node ~kind:Trace.Mark ~tag ~info ()
  in
  let t = Trace.create () in
  mark t 0 "stable:0" "digest=aa";
  mark t 1 "stable:0" "digest=aa";
  check "matching digests pass" true (Trace_check.stable_points t = []);
  let t2 = Trace.create () in
  mark t2 0 "stable:0" "digest=aa";
  mark t2 1 "stable:0" "digest=bb";
  match Trace_check.stable_points t2 with
  | [ d ] -> check_int "both marks cited" 2 (List.length d.Diag.records)
  | _ -> Alcotest.fail "expected one stable-point diag"

(* --- spec lint --------------------------------------------------------- *)

let test_lint () =
  let a = lbl ~name:"a" 0 0 and b = lbl ~name:"b" 1 0 in
  let c = lbl ~name:"c" 2 0 and ghost = lbl ~name:"ghost" 3 9 in
  (* clean chain: no issues *)
  let g = Depgraph.create () in
  Depgraph.add g a ~dep:Dep.null;
  Depgraph.add g b ~dep:(Dep.after a);
  Depgraph.add g c ~dep:(Dep.after b);
  check "clean spec lints clean" true (Spec_lint.lint g = []);
  (* dangling + unsatisfiable *)
  let g = Depgraph.create () in
  Depgraph.add g a ~dep:(Dep.after ghost);
  let names = List.map Spec_lint.issue_name (Spec_lint.lint g) in
  check "dangling flagged" true (List.mem "lint:dangling" names);
  check "unsatisfiable flagged" true (List.mem "lint:unsatisfiable" names);
  (* cycle *)
  let g = Depgraph.create () in
  Depgraph.add g a ~dep:(Dep.after b);
  Depgraph.add g b ~dep:(Dep.after a);
  check "cycle flagged" true
    (List.exists
       (function Spec_lint.Cycle _ -> true | _ -> false)
       (Spec_lint.lint g));
  (* redundant conjunct: c after_all [a; b] while b already requires a *)
  let g = Depgraph.create () in
  Depgraph.add g a ~dep:Dep.null;
  Depgraph.add g b ~dep:(Dep.after a);
  Depgraph.add g c ~dep:(Dep.after_all [ a; b ]);
  check "redundant edge flagged" true
    (List.exists
       (function
         | Spec_lint.Redundant_edge { ancestor; via; _ } ->
           Label.equal ancestor a && Label.equal via b
         | _ -> false)
       (Spec_lint.lint g));
  (* dead alternative: c after_any [a; b] where b happens-after a, so a
     can never be the last-missing alternative that fires *)
  let g = Depgraph.create () in
  Depgraph.add g a ~dep:Dep.null;
  Depgraph.add g b ~dep:(Dep.after a);
  Depgraph.add g c ~dep:(Dep.after_any [ a; b ]);
  check "dead alternative flagged" true
    (List.exists
       (function Spec_lint.Dead_alternative _ -> true | _ -> false)
       (Spec_lint.lint g));
  (* the "dropped edge" bug: remove a label the predicates still name *)
  let g = Depgraph.create () in
  Depgraph.add g a ~dep:Dep.null;
  Depgraph.add g b ~dep:(Dep.after a);
  Depgraph.add g c ~dep:(Dep.after b);
  check "drop_label produces issues" true
    (Spec_lint.lint (Mutate.drop_label g b) <> [])

let test_lint_sends () =
  let a = lbl ~name:"a" 0 0 and b = lbl ~name:"b" 1 0 in
  check "clean send list" true
    (Spec_lint.lint_sends [ (a, Dep.null); (b, Dep.after a) ] = []);
  (* two sends defining the same label, with the positions reported *)
  let issues =
    Spec_lint.lint_sends [ (a, Dep.null); (b, Dep.null); (a, Dep.after b) ]
  in
  check "duplicate flagged with positions" true
    (List.exists
       (function
         | Spec_lint.Duplicate_label { first = 0; second = 2; label } ->
           Label.equal label a
         | _ -> false)
       issues);
  check "stable issue name" true
    (List.mem "lint:duplicate-label" (List.map Spec_lint.issue_name issues));
  check "diag carries the label" true
    (List.exists
       (fun d ->
         d.Diag.check = "lint:duplicate-label" && d.Diag.chain = [ a ])
       (Spec_lint.to_diags issues));
  (* the surviving sends are still linted as a graph *)
  check "survivors linted" true
    (List.mem "lint:dangling"
       (List.map Spec_lint.issue_name
          (Spec_lint.lint_sends [ (a, Dep.after b) ])));
  (* a duplicate whose first definition carries the edges: dropping the
     second must not lose them *)
  let issues =
    Spec_lint.lint_sends [ (a, Dep.null); (b, Dep.after a); (b, Dep.null) ]
  in
  check "only the duplicate reported" true
    (List.for_all
       (function Spec_lint.Duplicate_label _ -> true | _ -> false)
       issues)

(* --- the simulated compositions, clean and mutated --------------------- *)

let all_specs ops =
  [
    Drivers.Fifo_only;
    Drivers.Bss_stack;
    Drivers.Psync_stack;
    Drivers.Osend_stack;
    Drivers.Osend_merge;
    Drivers.Osend_counted (ops + 1);
    Drivers.Osend_sequencer;
  ]

let audit_of ?(seed = 42) ?(replicas = 3) ?(ops = 30) ?(window = 3) spec =
  let w = { Drivers.ops; spacing = 0.5; mix = Drivers.Fixed_window window } in
  let r = Drivers.run_stack ~seed ~replicas ~check:true spec w in
  match r.Drivers.audit with
  | Some a -> (r, a)
  | None -> Alcotest.fail "check run produced no audit"

let test_compositions_pass () =
  List.iter
    (fun spec ->
      let r, a = audit_of spec in
      let name = Drivers.stack_spec_name spec in
      check (name ^ " no diagnostics") true (a.Drivers.diagnostics = []);
      check (name ^ " no lint") true (a.Drivers.lint = []);
      check (name ^ " checks_ok") true r.Drivers.checks_ok;
      check (name ^ " trace recorded") true (Trace.length a.Drivers.trace > 0))
    (all_specs 30)

let test_no_check_no_audit () =
  let w = { Drivers.ops = 10; spacing = 0.5; mix = Drivers.Fixed_window 3 } in
  let r = Drivers.run_stack ~seed:1 ~replicas:2 Drivers.Osend_stack w in
  check "audit absent by default" true (r.Drivers.audit = None)

(* Each mutator plants a violation its checker must catch; the diagnostic
   must cite the offending records by tag. *)
let test_mutations_caught () =
  let _, osend = audit_of Drivers.Osend_stack in
  let _, merge = audit_of Drivers.Osend_merge in
  let _, fifo = audit_of ~replicas:2 Drivers.Fifo_only in
  (match Mutate.reorder_causal ~graph:osend.Drivers.graph osend.Drivers.trace with
  | None -> Alcotest.fail "no causal mutation site"
  | Some (mut, ra, rb) -> (
    match Trace_check.causal ~graph:osend.Drivers.graph mut with
    | [] -> Alcotest.fail "causal checker missed the reordered delivery"
    | d :: _ ->
      let tags = List.map (fun r -> r.Trace.tag) d.Diag.records in
      check "causal diag names the swapped records" true
        (List.mem ra.Trace.tag tags || List.mem rb.Trace.tag tags)));
  (match Mutate.reorder_fifo ~graph:fifo.Drivers.graph fifo.Drivers.trace with
  | None -> Alcotest.fail "no fifo mutation site"
  | Some (mut, _, _) ->
    check "fifo checker objects" true
      (Trace_check.fifo ~graph:fifo.Drivers.graph mut <> []));
  (match Mutate.reorder_release ~graph:merge.Drivers.graph merge.Drivers.trace with
  | None -> Alcotest.fail "no release mutation site"
  | Some (mut, _, _) ->
    check "strict total-order checker objects" true
      (Trace_check.total_order ~strict:true ~graph:merge.Drivers.graph
         ~sync:Label.Set.empty mut
      <> []));
  (match
     Mutate.reorder_release ~sync:osend.Drivers.sync
       ~graph:osend.Drivers.graph osend.Drivers.trace
   with
  | None -> Alcotest.fail "no window mutation site"
  | Some (mut, _, _) ->
    check "window checker objects" true
      (Trace_check.total_order ~graph:osend.Drivers.graph
         ~sync:osend.Drivers.sync mut
      <> []));
  match Mutate.corrupt_mark merge.Drivers.trace with
  | None -> Alcotest.fail "no stable mark to corrupt"
  | Some (mut, victim) -> (
    match Trace_check.stable_points mut with
    | [] -> Alcotest.fail "stable-point checker missed the corrupt digest"
    | d :: _ ->
      check "stable diag names the mark" true
        (List.exists (fun r -> r.Trace.tag = victim.Trace.tag) d.Diag.records))

(* --- properties -------------------------------------------------------- *)

let qtest ?(count = 20) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let params_gen =
  let open QCheck2.Gen in
  int_range 8 40 >>= fun ops ->
  int_range 1 5 >>= fun window ->
  int_range 2 4 >>= fun replicas ->
  int_range 0 10_000 >|= fun seed -> (ops, window, replicas, seed)

(* Random §6.1 workloads over every composition pass every applicable
   checker — the oracle never cries wolf on a correct stack. *)
let prop_clean_workloads =
  qtest ~count:15 "random workloads pass all checkers" params_gen
    (fun (ops, window, replicas, seed) ->
      List.for_all
        (fun spec ->
          let _, a = audit_of ~seed ~replicas ~ops ~window spec in
          a.Drivers.diagnostics = [] && a.Drivers.lint = [])
        (all_specs ops))

(* One swapped delivery on a causal trace is always caught (whenever the
   trace offers an adjacent dependent pair to swap). *)
let prop_mutations_always_caught =
  qtest ~count:15 "swapped deliveries always fail" params_gen
    (fun (ops, window, replicas, seed) ->
      let _, osend = audit_of ~seed ~replicas ~ops ~window Drivers.Osend_stack in
      let _, merge = audit_of ~seed ~replicas ~ops ~window Drivers.Osend_merge in
      let causal_caught =
        match
          Mutate.reorder_causal ~graph:osend.Drivers.graph osend.Drivers.trace
        with
        | None -> true (* no adjacent dependent pair in this run *)
        | Some (mut, _, _) ->
          Trace_check.causal ~graph:osend.Drivers.graph mut <> []
      in
      let release_caught =
        match
          Mutate.reorder_release ~graph:merge.Drivers.graph merge.Drivers.trace
        with
        | None -> true
        | Some (mut, _, _) ->
          Trace_check.total_order ~strict:true ~graph:merge.Drivers.graph
            ~sync:Label.Set.empty mut
          <> []
      in
      causal_caught && release_caught)

let () =
  Alcotest.run "check"
    [
      ( "trace",
        [
          Alcotest.test_case "array storage" `Quick test_trace_array;
          Alcotest.test_case "release pairing" `Quick
            test_deliveries_include_release;
        ] );
      ("graph", [ Alcotest.test_case "analysis helpers" `Quick test_graph_helpers ]);
      ( "checkers",
        [
          Alcotest.test_case "causal" `Quick test_causal_checker;
          Alcotest.test_case "fifo" `Quick test_fifo_checker;
          Alcotest.test_case "duplicate" `Quick test_duplicate_checker;
          Alcotest.test_case "total order" `Quick test_total_order_checker;
          Alcotest.test_case "stable points" `Quick test_stable_checker;
        ] );
      ( "lint",
        [
          Alcotest.test_case "spec issues" `Quick test_lint;
          Alcotest.test_case "send list / duplicates" `Quick test_lint_sends;
        ] );
      ( "harness",
        [
          Alcotest.test_case "compositions pass" `Quick test_compositions_pass;
          Alcotest.test_case "no audit without check" `Quick
            test_no_check_no_audit;
          Alcotest.test_case "mutations caught" `Quick test_mutations_caught;
        ] );
      ("props", [ prop_clean_workloads; prop_mutations_always_caught ]);
    ]
