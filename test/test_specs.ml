(* The sequential-spec object layer: Cid/Ncid derivation, the shared
   window bookkeeping, the commute lint, and qcheck convergence — the
   same operation multiset applied in any causally-consistent order
   (permutations within each §6.1 window) reaches equal states and
   equal canonical digests. *)

module Label = Causalb_graph.Label
module Op = Causalb_data.Op
module Seq_spec = Causalb_data.Seq_spec
module Dt = Causalb_data.Datatypes
module Objects = Causalb_data.Objects
module Window = Causalb_data.Window
module Commute_lint = Causalb_data.Commute_lint
module Workflow = Causalb_data.Workflow

let check = Alcotest.check Alcotest.bool

let check_int = Alcotest.check Alcotest.int

(* --- derivation ------------------------------------------------------- *)

let cid spec = Seq_spec.cid_classes spec

let test_derived_cid_sets () =
  Alcotest.(check (list string))
    "int register" [ "inc"; "dec" ]
    (cid Dt.Int_register.spec);
  Alcotest.(check (list string))
    "kv store discovers del/del" [ "del"; "qry" ] (cid Dt.Kv_store.spec);
  Alcotest.(check (list string)) "document" [ "annotate" ] (cid (Dt.Document.spec ~sections:2));
  Alcotest.(check (list string)) "bank" [ "deposit"; "withdraw" ]
    (cid Dt.Bank_account.spec);
  Alcotest.(check (list string)) "or-set" [ "add" ] (cid Objects.Or_set.spec);
  Alcotest.(check (list string))
    "lww-map: all mutators" [ "put"; "remove" ] (cid Objects.Lww_map.spec);
  Alcotest.(check (list string))
    "rga: both mutators" [ "insert"; "delete" ] (cid Objects.Rga.spec)

let test_derived_kinds_match_hand_marking () =
  (* the labelings the pre-spec code hand-marked, now derived *)
  let k spec op = Seq_spec.kind spec op in
  check "inc Cid" true (k Dt.Int_register.spec (Dt.Int_register.Inc 1) = Op.Commutative);
  check "set Ncid" true
    (k Dt.Int_register.spec (Dt.Int_register.Set 3) = Op.Non_commutative);
  check "read Ncid (observer)" true
    (k Dt.Int_register.spec Dt.Int_register.Read = Op.Non_commutative);
  check "qry Cid" true
    (k Dt.Kv_store.spec (Dt.Kv_store.Qry "x") = Op.Commutative);
  check "upd Ncid" true
    (k Dt.Kv_store.spec (Dt.Kv_store.Upd ("x", "1")) = Op.Non_commutative);
  check "audit Ncid" true
    (k Dt.Bank_account.spec Dt.Bank_account.Audit = Op.Non_commutative);
  (* one op of every declared class of every shipped spec: [kind] says
     Cid exactly when the op's class is among the derived Cid classes *)
  let pinned (spec : _ Seq_spec.t) ops =
    Alcotest.(check (list string))
      (spec.name ^ ": one op per class")
      spec.classes
      (List.map spec.class_of ops);
    List.iter
      (fun op ->
        let c = spec.class_of op in
        check (spec.name ^ " " ^ c)
          (List.mem c (cid spec))
          (k spec op = Op.Commutative))
      ops
  in
  pinned Dt.Int_register.spec Dt.Int_register.[ Inc 1; Dec 1; Set 3; Read ];
  pinned
    (Dt.Multi_register.spec ~items:2)
    Dt.Multi_register.[ Inc (0, 1); Dec (1, 1); Set (0, 3); Read_all ];
  pinned Dt.Kv_store.spec Dt.Kv_store.[ Upd ("x", "1"); Del "x"; Qry "x" ];
  pinned
    (Dt.Document.spec ~sections:2)
    Dt.Document.[ Annotate (0, "n"); Commit (1, "b"); Review ];
  pinned Dt.Log.spec
    Dt.Log.[ Append (entry ~author:0 ~seq:0 "hi"); Seal ];
  pinned Dt.Bank_account.spec
    Dt.Bank_account.[ Deposit 5; Withdraw 3; Withdraw_checked 2; Audit ];
  pinned Dt.Card_table.spec Dt.Card_table.[ Play (0, "S2"); Round_end ];
  pinned Objects.Counter.spec Objects.Counter.[ Add 2; Value ];
  pinned Objects.Gset.spec Objects.Gset.[ Add "a"; Elements ];
  pinned Objects.Or_set.spec
    Objects.Or_set.[ Add ("a", 1); Remove "a"; Elements ];
  pinned Objects.Lww_map.spec
    Objects.Lww_map.
      [
        Put { key = "k"; ts = 1; src = 0; value = "v" };
        Remove { key = "k"; ts = 2; src = 1 };
        Get "k";
      ];
  pinned Objects.Rga.spec
    Objects.Rga.
      [ Insert { id = (1, 0); after = None; ch = "a" }; Delete (1, 0); Read ]

let test_make_validation () =
  let raises f =
    match f () with exception Invalid_argument _ -> true | _ -> false
  in
  check "empty classes rejected" true
    (raises (fun () ->
         Seq_spec.make ~name:"x" ~init:0 ~apply:(fun s _ -> s)
           ~equal:Int.equal ~classes:[] ~class_of:(fun _ -> "a")
           ~commutes:(fun _ _ -> true) ()));
  check "duplicate class rejected" true
    (raises (fun () ->
         Seq_spec.make ~name:"x" ~init:0 ~apply:(fun s _ -> s)
           ~equal:Int.equal ~classes:[ "a"; "a" ] ~class_of:(fun _ -> "a")
           ~commutes:(fun _ _ -> true) ()));
  check "asymmetric relation rejected" true
    (raises (fun () ->
         Seq_spec.make ~name:"x" ~init:0 ~apply:(fun s _ -> s)
           ~equal:Int.equal ~classes:[ "a"; "b" ] ~class_of:(fun _ -> "a")
           ~commutes:(fun x y -> x = "a" && y = "b") ()))

(* --- the commute lint ------------------------------------------------- *)

let test_lint_suite_clean () =
  List.iter
    (fun r ->
      check
        (Format.asprintf "%a" Commute_lint.pp_report r)
        true (Commute_lint.ok r))
    (Commute_lint.suite ~seed:7)

let test_lint_catches_lie () =
  let lying =
    Seq_spec.make ~name:"lying" ~init:0
      ~apply:(fun s op -> match op with `Inc n -> s + n | `Set n -> n)
      ~equal:Int.equal
      ~classes:[ "inc"; "set" ]
      ~class_of:(function `Inc _ -> "inc" | `Set _ -> "set")
      ~commutes:(fun _ _ -> true)
      ()
  in
  (* the greedy derivation believes the relation … *)
  Alcotest.(check (list string)) "lie derives both" [ "inc"; "set" ]
    (Seq_spec.cid_classes lying);
  (* … and the lint catches it *)
  let module Rng = Causalb_util.Rng in
  let gen r = if Rng.bool r then `Inc (1 + Rng.int r 9) else `Set (Rng.int r 50) in
  let r = Commute_lint.check lying ~gen_op:gen ~seed:7 () in
  check "violations found" true (r.Commute_lint.violations <> [])

(* --- the shared window ------------------------------------------------ *)

let lbl i = Label.make ~origin:0 ~seq:i ()

let test_window_deps () =
  let w = Window.create () in
  Alcotest.(check (list bool)) "fresh: no deps" []
    (List.map (fun _ -> true)
       (Window.deps_for w ~kind:Op.Commutative ~fallback:[]));
  (* fallback anchors both kinds when nothing was noted *)
  check "fallback used" true
    (Window.deps_for w ~kind:Op.Commutative ~fallback:[ lbl 99 ] = [ lbl 99 ]);
  check "fallback used (sync)" true
    (Window.deps_for w ~kind:Op.Non_commutative ~fallback:[ lbl 99 ]
    = [ lbl 99 ]);
  (* Cid ops join the window; they all anchor on the last sync *)
  Window.note w ~kind:Op.Non_commutative (lbl 0);
  Window.note w ~kind:Op.Commutative (lbl 1);
  Window.note w ~kind:Op.Commutative (lbl 2);
  check "cid after last sync" true
    (Window.deps_for w ~kind:Op.Commutative ~fallback:[] = [ lbl 0 ]);
  check "sync closes whole window" true
    (Window.deps_for w ~kind:Op.Non_commutative ~fallback:[]
    = [ lbl 1; lbl 2 ]);
  check_int "size" 2 (Window.size w);
  (* noting the sync resets the window and bumps the cycle count *)
  Window.note w ~kind:Op.Non_commutative (lbl 3);
  check_int "window reset" 0 (Window.size w);
  check_int "syncs" 2 (Window.syncs w);
  check "new anchor" true
    (Window.deps_for w ~kind:Op.Commutative ~fallback:[] = [ lbl 3 ]);
  (* empty window: a sync falls back to the last sync *)
  check "sync on empty window" true
    (Window.deps_for w ~kind:Op.Non_commutative ~fallback:[] = [ lbl 3 ]);
  Window.reset w;
  check "reset forgets labels" true
    (Window.deps_for w ~kind:Op.Non_commutative ~fallback:[] = []);
  check_int "reset keeps syncs" 2 (Window.syncs w)

(* --- Workflow.of_ops: the §6.1 DAG from derived kinds ----------------- *)

let test_workflow_of_ops () =
  let open Dt.Int_register in
  let steps =
    Workflow.of_ops ~spec ~src:(fun i -> i mod 3)
      [ Inc 1; Inc 2; Read; Inc 3; Read ]
  in
  let g = Workflow.graph_of steps in
  (* op0,op1 concurrent; op2 closes them; op3 after op2; op4 after op3 *)
  let module Depgraph = Causalb_graph.Depgraph in
  check_int "labels" 5 (List.length (Depgraph.labels g));
  let parents name =
    let l =
      List.find
        (fun l -> Label.name l = name)
        (Depgraph.labels g)
    in
    List.sort compare (List.map Label.name (Depgraph.parents g l))
  in
  Alcotest.(check (list string)) "op0 roots" [] (parents "op0");
  Alcotest.(check (list string)) "op1 roots" [] (parents "op1");
  Alcotest.(check (list string)) "read closes window" [ "op0"; "op1" ]
    (parents "op2");
  Alcotest.(check (list string)) "next window anchors" [ "op2" ] (parents "op3");
  Alcotest.(check (list string)) "empty-window sync" [ "op3" ] (parents "op4")

(* --- qcheck convergence ----------------------------------------------- *)

(* Causally-consistent reorderings of a §6.1 run: operations permute
   freely inside their window, sync points stay put.  Convergence =
   equal final state and equal canonical digest whatever the
   permutation. *)

let qtest ?(count = 120) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

(* rounds of (window ops, closing sync), plus a permutation seed *)
let rounds_gen cid_gen sync_gen =
  let open QCheck2.Gen in
  list_size (int_range 1 6)
    (pair (list_size (int_range 0 8) cid_gen) sync_gen)
  >>= fun rounds ->
  int >|= fun perm_seed -> (rounds, perm_seed)

let permute_within_rounds ~perm_seed rounds =
  let rng = Causalb_util.Rng.create perm_seed in
  List.concat_map
    (fun (window, sync) ->
      let arr = Array.of_list window in
      Causalb_util.Rng.shuffle rng arr;
      Array.to_list arr @ [ sync ])
    rounds

let converges (spec : _ Seq_spec.t) (rounds, perm_seed) =
  (* every window op must be Cid — drop any the derivation made Ncid so
     the reordering stays causally consistent *)
  let rounds =
    List.map
      (fun (w, s) -> (List.filter (Seq_spec.is_cid spec) w, s))
      rounds
  in
  let a = List.concat_map (fun (w, s) -> w @ [ s ]) rounds in
  let b = permute_within_rounds ~perm_seed rounds in
  let run ops = List.fold_left spec.Seq_spec.apply spec.Seq_spec.init ops in
  let sa = run a and sb = run b in
  spec.Seq_spec.equal sa sb
  && spec.Seq_spec.digest sa = spec.Seq_spec.digest sb

let counter_convergence =
  let open QCheck2.Gen in
  qtest "counter: window perms converge"
    (rounds_gen
       (int_range (-9) 9 >|= fun n -> Objects.Counter.Add n)
       (return Objects.Counter.Value))
    (converges Objects.Counter.spec)

let or_set_convergence =
  let open QCheck2.Gen in
  let elt = oneofl [ "a"; "b"; "c" ] in
  qtest "or-set: window perms converge"
    (rounds_gen
       (pair elt (int_range 0 1000) >|= fun (e, t) -> Objects.Or_set.Add (e, t))
       (oneof
          [
            (elt >|= fun e -> Objects.Or_set.Remove e);
            return Objects.Or_set.Elements;
          ]))
    (converges Objects.Or_set.spec)

let lww_convergence =
  let open QCheck2.Gen in
  let key = oneofl [ "k1"; "k2" ] in
  let mut =
    oneof
      [
        ( pair key (pair (int_range 0 50) (int_range 0 3)) >|= fun (key, (ts, src)) ->
          Objects.Lww_map.Put { key; ts; src; value = Printf.sprintf "%d.%d" ts src } );
        ( pair key (pair (int_range 0 50) (int_range 0 3)) >|= fun (key, (ts, src)) ->
          Objects.Lww_map.Remove { key; ts; src } );
      ]
  in
  qtest "lww-map: window perms converge"
    (rounds_gen mut (key >|= fun k -> Objects.Lww_map.Get k))
    (converges Objects.Lww_map.spec)

let rga_convergence =
  let open QCheck2.Gen in
  (* ops derived from one int each: colliding ids carry identical
     payloads, mirroring the uniqueness invariant of real clients *)
  let mut =
    int_range 0 10_000 >|= fun n ->
    if n mod 7 = 0 then Objects.Rga.Delete (n mod 13, n mod 4)
    else
      let seq = n mod 97 and src = n mod 5 in
      let after = if seq mod 3 = 0 then None else Some (seq mod 13, src) in
      Objects.Rga.Insert
        {
          id = (seq, src);
          after;
          ch = String.make 1 (Char.chr (97 + ((seq * 7) + src) mod 26));
        }
  in
  qtest "rga: window perms converge" (rounds_gen mut (return Objects.Rga.Read))
    (converges Objects.Rga.spec)

let kv_convergence =
  let open QCheck2.Gen in
  let key = oneofl [ "a"; "b"; "c" ] in
  qtest "kv-store: window perms converge"
    (rounds_gen
       (oneof
          [
            (key >|= fun k -> Dt.Kv_store.Del k);
            (key >|= fun k -> Dt.Kv_store.Qry k);
          ])
       (pair key (int_range 0 9) >|= fun (k, v) ->
        Dt.Kv_store.Upd (k, string_of_int v)))
    (converges Dt.Kv_store.spec)

(* The end-to-end form: the same multiset through the real service under
   different delivery interleavings (different seeds) reaches the same
   stable digests — exercised via the harness driver. *)
let test_end_to_end_digests () =
  let module Drivers = Causalb_harness.Drivers in
  let subs = Drivers.editing_workload ~replicas:3 ~rounds:6 ~window:4 () in
  List.iter
    (fun seed ->
      let r =
        Drivers.run_object ~seed ~replicas:3 ~spec:Objects.Rga.spec subs
      in
      check (Printf.sprintf "seed %d clean" seed) true (Drivers.object_ok r))
    [ 1; 2; 3 ]

let () =
  Alcotest.run "specs"
    [
      ( "derivation",
        [
          Alcotest.test_case "cid sets" `Quick test_derived_cid_sets;
          Alcotest.test_case "kinds match hand-marking" `Quick
            test_derived_kinds_match_hand_marking;
          Alcotest.test_case "make validation" `Quick test_make_validation;
        ] );
      ( "lint",
        [
          Alcotest.test_case "suite clean" `Quick test_lint_suite_clean;
          Alcotest.test_case "catches mislabeled relation" `Quick
            test_lint_catches_lie;
        ] );
      ("window", [ Alcotest.test_case "deps and notes" `Quick test_window_deps ]);
      ( "workflow",
        [ Alcotest.test_case "of_ops derives the DAG" `Quick test_workflow_of_ops ] );
      ( "convergence",
        [
          counter_convergence;
          or_set_convergence;
          lww_convergence;
          rga_convergence;
          kv_convergence;
          Alcotest.test_case "end-to-end stable digests" `Quick
            test_end_to_end_digests;
        ] );
    ]
