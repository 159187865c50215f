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

(* A cycle the lowest marking node never closed is still cross-checked:
   node 0 closes only stable:0, nodes 1 and 2 disagree on stable:1.  The
   checker used to compare everyone against node 0 alone, and passed. *)
let test_stable_checker_per_tag () =
  let mark t node tag info =
    Trace.record t ~time:1.0 ~node ~kind:Trace.Mark ~tag ~info ()
  in
  let t = Trace.create () in
  mark t 0 "stable:0" "digest=aa";
  mark t 1 "stable:0" "digest=aa";
  mark t 1 "stable:1" "digest=bb";
  mark t 2 "stable:0" "digest=aa";
  mark t 2 "stable:1" "digest=cc";
  match List.map Diag.to_string (Trace_check.stable_points t) with
  | [ d ] ->
    Alcotest.(check string)
      "node 2 against node 1"
      "[stable] node 2: replica digests disagree at stable:1: node 1 \
       recorded digest=bb, node 2 recorded digest=cc\n\
      \  |      1.000 n1 mark stable:1 digest=bb\n\
      \  |      1.000 n2 mark stable:1 digest=cc"
      d
  | ds ->
    Alcotest.fail
      (Printf.sprintf "expected one stable-point diag, got %d" (List.length ds))

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
  List.iter
    (fun (a : Drivers.stack_audit) ->
      match Mutate.duplicate_delivery ~graph:a.Drivers.graph a.Drivers.trace with
      | None -> Alcotest.fail "no Deliver record to repeat"
      | Some (mut, victim) ->
        List.iter
          (fun (name, checker) ->
            match checker ~graph:a.Drivers.graph mut with
            | d :: _ ->
              check (name ^ " names the repeat a duplicate") true
                (d.Diag.check = "duplicate"
                && List.for_all (fun r -> r.Trace.tag = victim.Trace.tag) d.Diag.records)
            | [] -> Alcotest.fail (name ^ " missed the repeated delivery"))
          [ ("fifo", Trace_check.fifo); ("causal", Trace_check.causal) ])
    [ fifo; osend ];
  match Mutate.corrupt_mark merge.Drivers.trace with
  | None -> Alcotest.fail "no stable mark to corrupt"
  | Some (mut, victim) -> (
    match Trace_check.stable_points mut with
    | [] -> Alcotest.fail "stable-point checker missed the corrupt digest"
    | d :: _ ->
      check "stable diag names the mark" true
        (List.exists (fun r -> r.Trace.tag = victim.Trace.tag) d.Diag.records))

(* --- the oracle as it was before the index, written out ---------------- *)

(* Every checker rescanned the trace per node and kind, rebuilt the tag
   resolver, and rendered each dependency's tag to test membership; the
   stable-point checker compared every node against the lowest marking
   node only.  The indexed oracle must report the very same diagnostics
   (stable points: the same ones first, then only cycles that node never
   closed). *)
module Parent = struct
  let nodes trace =
    let seen = Hashtbl.create 8 in
    Trace.iter trace (fun r ->
        if r.Trace.node >= 0 then Hashtbl.replace seen r.Trace.node ());
    List.sort compare (Hashtbl.fold (fun n () acc -> n :: acc) seen [])

  let records_at trace ~node kind =
    List.rev
      (Trace.fold trace ~init:[] ~f:(fun acc r ->
           if r.Trace.node = node && r.Trace.kind = kind then r :: acc else acc))

  let deliver_records trace ~node = records_at trace ~node Trace.Deliver

  let release_records trace ~node =
    (* The application-visible sequence: [Release] when the stack or a
       total-order layer recorded releases at this node, else the causal
       [Deliver] sequence (standalone engines record only that). *)
    match records_at trace ~node Trace.Release with
    | [] -> records_at trace ~node Trace.Deliver
    | rs -> rs

  (* Trace tags are label renderings ([Label.to_string]); the graph is the
     authority for mapping them back.  Tags the graph does not know (bare
     transport records, protocol milestones) are skipped by every
     checker. *)
  let resolver graph =
    let tbl = Hashtbl.create 64 in
    List.iter
      (fun l -> Hashtbl.replace tbl (Label.to_string l) l)
      (Depgraph.labels graph);
    fun tag -> Hashtbl.find_opt tbl tag

  let chain_of graph a b =
    match Depgraph.shortest_path graph a b with
    | Some path -> path
    | None -> [ a; b ]

  (* --- causal-delivery safety (paper §3–4) ----------------------------- *)

  let causal ~graph trace =
    let resolve = resolver graph in
    let diags = ref [] in
    List.iter
      (fun node ->
        let records = deliver_records trace ~node in
        (* Membership is tracked by trace tag, not by graph-resolved label:
           the audited graph is one member's extracted R(M), and under loss
           it can lack a vertex for a message other members legitimately
           delivered — resolving such a delivery to nothing would drop it
           from the set and flag its descendants as premature.  Tags are
           label renderings and unique per run, so tag equality is label
           equality wherever both exist. *)
        let delivered = Hashtbl.create 64 in (* tag -> first Deliver record *)
        let later_record a rest =
          List.find_opt
            (fun r -> String.equal r.Trace.tag (Label.to_string a))
            rest
        in
        let rec scan = function
          | [] -> ()
          | r :: rest ->
            (match resolve r.Trace.tag with
            | None -> ()
            | Some label ->
              let ok l = Hashtbl.mem delivered (Label.to_string l) in
              let dep = Depgraph.dep_of graph label in
              if not (Dep.satisfied ~delivered:ok dep) then begin
                let missing =
                  List.filter (fun a -> not (ok a)) (Dep.ancestors dep)
                in
                let first = List.hd missing in
                let ancestor_records =
                  List.filter_map (fun a -> later_record a rest) missing
                in
                let describe a =
                  match later_record a rest with
                  | Some r' ->
                    Printf.sprintf "%s (delivered later, t=%.3f)"
                      (Label.to_string a) r'.Trace.time
                  | None ->
                    Printf.sprintf "%s (never delivered here)"
                      (Label.to_string a)
                in
                let which =
                  match dep with
                  | Dep.After_any _ -> "any of its R(M) alternatives"
                  | _ -> "its R(M) ancestors"
                in
                diags :=
                  Diag.make ~check:"causal" ~node
                    ~records:(r :: ancestor_records)
                    ~chain:(chain_of graph first label)
                    (Printf.sprintf "%s delivered before %s: %s"
                       (Label.to_string label) which
                       (String.concat ", " (List.map describe missing)))
                  :: !diags
              end);
            (* Every delivery joins the set, resolvable or not — a record
               the graph cannot name still satisfies dependencies that
               name it.  A tag already in the set is a second delivery of
               one message. *)
            (match Hashtbl.find_opt delivered r.Trace.tag with
            | Some first ->
              diags :=
                Diag.make ~check:"duplicate" ~node ~records:[ first; r ]
                  (Printf.sprintf "%s delivered twice (first at t=%.3f)"
                     r.Trace.tag first.Trace.time)
                :: !diags
            | None -> Hashtbl.add delivered r.Trace.tag r);
            scan rest
        in
        scan records)
      (nodes trace);
    List.rev !diags

  (* --- FIFO per sender -------------------------------------------------- *)

  let fifo ~graph trace =
    let resolve = resolver graph in
    let diags = ref [] in
    List.iter
      (fun node ->
        let high = Hashtbl.create 8 in (* origin -> highest (seq, record) *)
        List.iter
          (fun r ->
            match resolve r.Trace.tag with
            | None -> ()
            | Some label ->
              let origin = Label.origin label and seq = Label.seq label in
              (match Hashtbl.find_opt high origin with
              | Some (s, prev) when s > seq ->
                diags :=
                  Diag.make ~check:"fifo" ~node ~records:[ prev; r ]
                    (Printf.sprintf
                       "sender %d out of order: seq %d delivered after seq %d"
                       origin seq s)
                  :: !diags
              | Some (s, prev) when s = seq ->
                diags :=
                  Diag.make ~check:"duplicate" ~node ~records:[ prev; r ]
                    (Printf.sprintf "sender %d seq %d delivered twice" origin
                       seq)
                  :: !diags
              | _ -> ());
              (match Hashtbl.find_opt high origin with
              | Some (s, _) when s > seq -> ()
              | _ -> Hashtbl.replace high origin (seq, r)))
          (deliver_records trace ~node))
      (nodes trace);
    List.rev !diags

  (* --- total-order agreement (paper §5.2 / §3.2 windows) ---------------- *)

  let strict_agreement per_node =
    match per_node with
    | [] | [ _ ] -> []
    | (n0, r0) :: rest ->
      List.concat_map
        (fun (n, r) ->
          let rec cmp i a b =
            match (a, b) with
            | [], [] -> []
            | x :: xs, y :: ys ->
              if String.equal x.Trace.tag y.Trace.tag then cmp (i + 1) xs ys
              else
                [
                  Diag.make ~check:"total" ~node:n ~records:[ x; y ]
                    (Printf.sprintf
                       "release sequences diverge at position %d: node %d \
                        released %s where node %d released %s"
                       i n y.Trace.tag n0 x.Trace.tag);
                ]
            | x :: _, [] ->
              [
                Diag.make ~check:"total" ~node:n ~records:[ x ]
                  (Printf.sprintf
                     "node %d released only %d messages; node %d continued \
                      with %s"
                     n i n0 x.Trace.tag);
              ]
            | [], y :: _ ->
              [
                Diag.make ~check:"total" ~node:n ~records:[ y ]
                  (Printf.sprintf
                     "node %d released only %d messages; node %d continued \
                      with %s"
                     n0 i n y.Trace.tag);
              ]
          in
          cmp 0 r0 r)
        rest

  (* Split a node's release sequence at the synchronization points: the
     result is a list of (interior set, closing sync) windows plus a
     trailing open window.  Members must agree on the sync order and on
     each interior *set* — order inside a window is free (commutative
     [Cid] reordering between [Ncid] anchors, §6.1). *)
  let windows_of ~resolve ~sync records =
    let close (set, recs) sync_r = (set, recs, sync_r) in
    let rec go acc cur = function
      | [] -> (List.rev acc, cur)
      | r :: rest -> (
        match resolve r.Trace.tag with
        | None -> go acc cur rest
        | Some label ->
          if Label.Set.mem label sync then go (close cur r :: acc) (Label.Set.empty, []) rest
          else
            let set, recs = cur in
            go acc (Label.Set.add label set, r :: recs) rest)
    in
    go [] (Label.Set.empty, []) records

  let set_to_string s =
    String.concat ", " (List.map Label.to_string (Label.Set.elements s))

  let window_agreement ~resolve ~sync per_node =
    match per_node with
    | [] | [ _ ] -> []
    | (n0, r0) :: rest ->
      let w0, (tail0, _) = windows_of ~resolve ~sync r0 in
      List.concat_map
        (fun (n, r) ->
          let w, (tail, _) = windows_of ~resolve ~sync r in
          let rec cmp k a b =
            match (a, b) with
            | [], [] ->
              if Label.Set.equal tail0 tail then []
              else
                [
                  Diag.make ~check:"total" ~node:n
                    (Printf.sprintf
                       "open windows differ after the last sync: node %d has \
                        {%s}, node %d has {%s}"
                       n0 (set_to_string tail0) n (set_to_string tail));
                ]
            | (s0, recs0, sr0) :: xs, (s, recs, sr) :: ys ->
              if not (String.equal sr0.Trace.tag sr.Trace.tag) then
                [
                  Diag.make ~check:"total" ~node:n ~records:[ sr0; sr ]
                    (Printf.sprintf
                       "sync order diverges at window %d: node %d closed with \
                        %s, node %d with %s"
                       k n0 sr0.Trace.tag n sr.Trace.tag);
                ]
              else if not (Label.Set.equal s0 s) then begin
                let only0 = Label.Set.diff s0 s and only = Label.Set.diff s s0 in
                let offending =
                  List.filter
                    (fun r ->
                      Label.Set.exists
                        (fun l -> String.equal (Label.to_string l) r.Trace.tag)
                        (Label.Set.union only0 only))
                    (List.rev_append recs0 (List.rev recs))
                in
                [
                  Diag.make ~check:"total" ~node:n
                    ~records:(offending @ [ sr ])
                    (Printf.sprintf
                       "window %d (closed by %s) differs: only node %d has \
                        {%s}; only node %d has {%s}"
                       k sr.Trace.tag n0 (set_to_string only0) n
                       (set_to_string only));
                ]
              end
              else cmp (k + 1) xs ys
            | (_, _, sr) :: _, [] ->
              [
                Diag.make ~check:"total" ~node:n ~records:[ sr ]
                  (Printf.sprintf
                     "node %d closed window %d with %s; node %d never closed it"
                     n0 k sr.Trace.tag n);
              ]
            | [], (_, _, sr) :: _ ->
              [
                Diag.make ~check:"total" ~node:n ~records:[ sr ]
                  (Printf.sprintf
                     "node %d closed window %d with %s; node %d never closed it"
                     n k sr.Trace.tag n0);
              ]
          in
          cmp 0 w0 w)
        rest

  let total_order ?(strict = false) ~graph ?sync trace =
    let per_node =
      List.map (fun n -> (n, release_records trace ~node:n)) (nodes trace)
      |> List.filter (fun (_, rs) -> rs <> [])
    in
    if strict then strict_agreement per_node
    else
      let resolve = resolver graph in
      let sync =
        match sync with
        | Some s -> s
        | None -> Label.Set.of_list (Depgraph.sync_points graph)
      in
      window_agreement ~resolve ~sync per_node

  (* --- stable-point agreement (paper §4.1, §6.1) ------------------------ *)

  let is_stable_mark r =
    r.Trace.kind = Trace.Mark
    && String.length r.Trace.tag >= 7
    && String.sub r.Trace.tag 0 7 = "stable:"

  let stable_points trace =
    let marks_of node =
      List.filter is_stable_mark (records_at trace ~node Trace.Mark)
    in
    let per_node =
      List.map (fun n -> (n, marks_of n)) (nodes trace)
      |> List.filter (fun (_, ms) -> ms <> [])
    in
    match per_node with
    | [] | [ _ ] -> []
    | (n0, m0) :: rest ->
      let digest_at marks tag =
        List.find_opt (fun r -> String.equal r.Trace.tag tag) marks
      in
      List.concat_map
        (fun (n, marks) ->
          List.filter_map
            (fun r0 ->
              match digest_at marks r0.Trace.tag with
              | Some r when not (String.equal r.Trace.info r0.Trace.info) ->
                Some
                  (Diag.make ~check:"stable" ~node:n ~records:[ r0; r ]
                     (Printf.sprintf
                        "replica digests disagree at %s: node %d recorded %s, \
                         node %d recorded %s"
                        r0.Trace.tag n0 r0.Trace.info n r.Trace.info))
              | _ -> None)
            m0)
        rest
end

let rendered = List.map Diag.to_string

(* The per-tag rule, as a predicate: some node's first mark of a tag
   differs from a mark of that tag at the lowest node that recorded it. *)
let stable_disagreement trace =
  let marks =
    List.filter
      (fun r ->
        r.Trace.node >= 0
        && r.Trace.kind = Trace.Mark
        && String.length r.Trace.tag >= 7
        && String.sub r.Trace.tag 0 7 = "stable:")
      (Trace.events trace)
  in
  let tags = List.sort_uniq compare (List.map (fun r -> r.Trace.tag) marks) in
  List.exists
    (fun tag ->
      let of_tag = List.filter (fun r -> r.Trace.tag = tag) marks in
      let low = List.fold_left (fun m r -> min m r.Trace.node) max_int of_tag in
      let refs = List.filter (fun r -> r.Trace.node = low) of_tag in
      let others =
        List.sort_uniq compare
          (List.filter_map
             (fun r -> if r.Trace.node > low then Some r.Trace.node else None)
             of_tag)
      in
      List.exists
        (fun n ->
          let first = List.find (fun r -> r.Trace.node = n) of_tag in
          List.exists (fun r0 -> r0.Trace.info <> first.Trace.info) refs)
        others)
    tags

(* The indexed oracle against the parent's, every checker, one trace.
   [Error] names the first checker that differs. *)
let oracle_agrees ~graph ~sync trace =
  let same name a b = if rendered a = rendered b then Ok () else Error name in
  let ( let* ) = Result.bind in
  let* () =
    same "causal" (Trace_check.causal ~graph trace) (Parent.causal ~graph trace)
  in
  let* () = same "fifo" (Trace_check.fifo ~graph trace) (Parent.fifo ~graph trace) in
  let* () =
    same "strict"
      (Trace_check.total_order ~strict:true ~graph ~sync:Label.Set.empty trace)
      (Parent.total_order ~strict:true ~graph ~sync:Label.Set.empty trace)
  in
  let* () =
    same "windows"
      (Trace_check.total_order ~graph ~sync trace)
      (Parent.total_order ~graph ~sync trace)
  in
  let* () =
    same "same-set"
      (Trace_check.total_order ~graph ~sync:Label.Set.empty trace)
      (Parent.total_order ~graph ~sync:Label.Set.empty trace)
  in
  let* () =
    same "sync points"
      (Trace_check.total_order ~graph trace)
      (Parent.total_order ~graph trace)
  in
  let ix = Trace_check.index ~graph trace in
  let* () =
    same "one index"
      (Trace_check.check_causal ix @ Trace_check.check_fifo ix
      @ Trace_check.check_total_order ~sync ix
      @ Trace_check.check_stable_points ix)
      (Trace_check.causal ~graph trace @ Trace_check.fifo ~graph trace
      @ Trace_check.total_order ~graph ~sync trace
      @ Trace_check.stable_points trace)
  in
  let now = rendered (Trace_check.stable_points trace)
  and before = rendered (Parent.stable_points trace) in
  let k = List.length before in
  if List.filteri (fun i _ -> i < k) now <> before then Error "stable prefix"
  else if (now <> []) <> stable_disagreement trace then Error "stable per tag"
  else Ok ()

(* Random graphs over [u] labels ([u - n] never added; predicates may
   name them, name later labels, or name a label under its unnamed
   rendering; labels 2 and 3 render alike), and random traces over their
   renderings, a stray tag and three stable-point tags, at nodes -1..3
   and one far-off node id. *)
let oracle_label i =
  lbl ~name:(Printf.sprintf "op%d" (if i = 3 then 2 else i)) (i mod 3) (i / 3)

let oracle_gen =
  let open QCheck2.Gen in
  int_range 1 10 >>= fun n ->
  int_range 0 3 >>= fun absent ->
  let u = n + absent in
  let dep = pair (int_range 0 3) (list_size (int_range 0 3) (pair (int_range 0 (u - 1)) bool)) in
  let record =
    quad
      (frequency
         [ (1, return Trace.Send); (1, return Trace.Receive); (5, return Trace.Deliver);
           (4, return Trace.Release); (3, return Trace.Mark); (1, return Trace.Drop) ])
      (int_range (-1) 4) (int_range 0 (u + 1)) (int_range 0 2)
  in
  quad (return u) (list_repeat n dep)
    (list_size (int_range 0 60) record)
    (list_size (int_range 0 4) (int_range 0 (u - 1)))

let oracle_case (u, deps, records, sync) =
  let g = Depgraph.create () in
  List.iteri
    (fun i (kind, names) ->
      let ls =
        List.filter_map
          (fun (j, unnamed) ->
            if j = i then None
            else if unnamed then Some (lbl (j mod 3) (j / 3))
            else Some (oracle_label j))
          names
      in
      let dep =
        match (kind, ls) with
        | 0, _ | _, [] -> Dep.Null
        | 1, l :: _ -> Dep.After l
        | 2, _ -> Dep.After_all ls
        | _ -> Dep.After_any ls
      in
      Depgraph.add g (oracle_label i) ~dep)
    deps;
  let t = Trace.create () in
  List.iteri
    (fun i (kind, node, tag, info) ->
      let node = if node = 4 then 5000 else node in
      let tag =
        match kind with
        | Trace.Mark -> if tag = u + 1 then "lock" else Printf.sprintf "stable:%d" (tag mod 3)
        | _ ->
          if tag < u then Label.to_string (oracle_label tag)
          else if tag = u then "m0.0"
          else "x"
      in
      Trace.record t ~time:(float_of_int i) ~node ~kind ~tag
        ~info:(Printf.sprintf "digest=%d" info) ())
    records;
  (g, Label.Set.of_list (List.map oracle_label sync), t)

let print_oracle_case (u, deps, records, sync) =
  Printf.sprintf "u=%d deps=[%s] records=[%s] sync=[%s]" u
    (String.concat "; "
       (List.map
          (fun (k, ns) ->
            Printf.sprintf "%d:%s" k
              (String.concat ","
                 (List.map (fun (j, un) -> Printf.sprintf "%d%s" j (if un then "'" else "")) ns)))
          deps))
    (String.concat "; "
       (List.map
          (fun (k, n, tag, info) ->
            Printf.sprintf "%s@%d:%d/%d" (Trace.kind_to_string k) n tag info)
          records))
    (String.concat "," (List.map string_of_int sync))

let prop_oracle_equals_parent =
  QCheck2.Test.make ~count:500 ~name:"oracle = parent, random traces"
    ~print:print_oracle_case oracle_gen (fun c ->
      let graph, sync, trace = oracle_case c in
      match oracle_agrees ~graph ~sync trace with
      | Ok () -> true
      | Error which -> QCheck2.Test.fail_reportf "%s differs" which)

(* The same comparison on simulated traces, clean and with each Mutate
   plant, over every composition. *)
let test_oracle_equals_parent_planted () =
  List.iter
    (fun (seed, spec) ->
      let _, a = audit_of ~seed ~replicas:4 ~ops:24 ~window:3 spec in
      let graph = a.Drivers.graph and sync = a.Drivers.sync in
      let tr = a.Drivers.trace in
      let first (t, _, _) = t in
      let plants =
        [
          ("clean", Some tr);
          ("reorder_causal", Option.map first (Mutate.reorder_causal ~graph tr));
          ("reorder_fifo", Option.map first (Mutate.reorder_fifo ~graph tr));
          ("reorder_release", Option.map first (Mutate.reorder_release ~graph tr));
          ( "reorder_release ~sync",
            Option.map first (Mutate.reorder_release ~sync ~graph tr) );
          ("corrupt_mark", Option.map fst (Mutate.corrupt_mark tr));
          ("duplicate_delivery", Option.map fst (Mutate.duplicate_delivery ~graph tr));
        ]
      in
      List.iter
        (fun (plant, mutated) ->
          match mutated with
          | None -> ()
          | Some t -> (
            match oracle_agrees ~graph ~sync t with
            | Ok () -> ()
            | Error which ->
              Alcotest.failf "%s seed %d, %s: %s differs"
                (Drivers.stack_spec_name spec) seed plant which))
        plants)
    (List.concat_map
       (fun seed -> List.map (fun spec -> (seed, spec)) (all_specs 24 @ [ Drivers.Pc_stack ]))
       [ 3; 42; 77 ])

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
          Alcotest.test_case "stable points per tag" `Quick
            test_stable_checker_per_tag;
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
      ( "index",
        [
          QCheck_alcotest.to_alcotest prop_oracle_equals_parent;
          Alcotest.test_case "simulated and planted traces" `Quick
            test_oracle_equals_parent_planted;
        ] );
    ]
