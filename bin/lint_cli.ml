(* causalb-lint — the static consistency verifier as a command.

   Audits every shipped configuration WITHOUT executing it: pass 1
   composes each stack's declared guarantee lattice bottom-up and checks
   it against the configuration's claim; pass 2 replays the workload
   intent purely and flags every non-commuting pair that neither the
   intended R(M), a sync point, nor the top-of-stack guarantee covers.
   Exit status 1 on any issue, so CI can gate on it:

     causalb-lint                     # all stack compositions, S1 params
     causalb-lint --all               # compositions + object workloads
     causalb-lint --spec osend        # a subset
     causalb-lint --json              # diagnostics as JSON lines
     causalb-lint --self-test         # seed violations, assert caught *)

open Cmdliner

module Drivers = Causalb_harness.Drivers
module Stack = Causalb_stack.Stack
module Guarantee = Causalb_stackbase.Guarantee
module Stack_verify = Causalb_analysis.Stack_verify
module Race_lint = Causalb_analysis.Race_lint
module Workload = Causalb_analysis.Workload
module Diag = Causalb_check.Diag
module Spec_lint = Causalb_check.Spec_lint
module Label = Causalb_graph.Label
module Dep = Causalb_graph.Dep
module Depgraph = Causalb_graph.Depgraph
module Latency = Causalb_sim.Latency
module Dt = Causalb_data.Datatypes
module Seq_spec = Causalb_data.Seq_spec
module Objects = Causalb_data.Objects
module Rng = Causalb_util.Rng
module Conference = Causalb_protocols.Conference
module Card_game = Causalb_protocols.Card_game
module Name_service = Causalb_protocols.Name_service

let emit_diags ~json ds =
  if json then List.iter (fun d -> print_endline (Diag.to_json_line d)) ds
  else List.iter (fun d -> print_endline ("    " ^ Diag.to_string d)) ds

(* --- stack mode: verify every composition statically ----------------- *)

let lint_stacks ~seed ~sigma ~replicas ~ops ~window ~spacing ~json ~verbose
    specs =
  let latency = Latency.lognormal ~mu:0.5 ~sigma () in
  let w = { Drivers.ops; spacing; mix = Drivers.Fixed_window window } in
  if not json then
    Printf.printf
      "static verifier: replicas=%d ops=%d window=%d seed=%d (no execution)\n\n"
      replicas ops window seed;
  let one spec =
    let r = Drivers.static_audit ~seed ~latency ~replicas spec w in
    let ok = Drivers.static_ok r in
    if not json then begin
      Printf.printf "%-18s claim=%-12s top=%-12s demand=%-12s races=%-3d %s\n"
        (Drivers.stack_spec_name spec)
        (Guarantee.to_string r.Drivers.claim)
        (Guarantee.to_string r.Drivers.verify.Stack_verify.top)
        (Guarantee.to_string r.Drivers.demand)
        (List.length r.Drivers.races)
        (if ok then "ok"
         else
           Printf.sprintf "FAILED (%d issues)"
             (List.length r.Drivers.static_diags));
      if verbose then
        Format.printf "    @[%a@]@." Stack_verify.pp_report r.Drivers.verify
    end;
    if (not ok) || (json && verbose) then
      emit_diags ~json r.Drivers.static_diags;
    ok
  in
  List.map one specs

(* --- object mode: race-lint the shipped object workloads ------------- *)

(* The same builders, sizes and seeds as bench experiment O1 and
   causalb-check --objects (42/43/44 by default), replayed purely: the
   analysed intent is the schedule those runs submit.  All of them run
   over the stable-point service, whose causal layer provides [Causal]. *)
let lint_objects ~seed:_ ~replicas ~json () =
  let rounds = 24 and window = 6 in
  let top = Guarantee.Causal in
  let one name (w : Workload.t) =
    let { Race_lint.races; demand } = Race_lint.analyse ~top w in
    let ok = races = [] in
    if not json then
      Printf.printf "%-18s sites=%-5d sync=%-4d demand=%-12s races=%-3d %s\n"
        name
        (List.length w.Workload.sites)
        (Label.Set.cardinal w.Workload.sync)
        (Guarantee.to_string demand) (List.length races)
        (if ok then "ok" else "FAILED");
    if not ok then emit_diags ~json (Race_lint.to_diags races);
    ok
  in
  let counter =
    one "counter-pipeline"
      (Workload.of_submissions ~spec:Objects.Counter.spec
         (Drivers.counter_pipeline ~replicas ~rounds ~window ()))
  in
  let cart =
    one "or-set-cart"
      (Workload.of_submissions ~spec:Objects.Or_set.spec
         (Drivers.cart_workload ~replicas ~rounds ~window ()))
  in
  let edit =
    one "rga-collab-edit"
      (Workload.of_submissions ~spec:Objects.Rga.spec
         (Drivers.editing_workload ~replicas ~rounds ~window ()))
  in
  [ counter; cart; edit ]

(* --- protocol mode: lint the shipped protocol schedules -------------- *)

(* The protocol case studies, replayed from the schedules the modules
   themselves export — the lint sees exactly the intent the runtime
   submits.  Each is checked against the guarantee of the stack the
   protocol actually composes. *)
let lint_protocols ~seed ~json () =
  let one name ~top ?note (w : Workload.t) =
    let { Race_lint.races; demand } = Race_lint.analyse ~top w in
    let ok = races = [] in
    if not json then begin
      Printf.printf
        "%-18s top=%-12s sites=%-5d sync=%-4d demand=%-12s races=%-3d %s\n"
        name (Guarantee.to_string top)
        (List.length w.Workload.sites)
        (Label.Set.cardinal w.Workload.sync)
        (Guarantee.to_string demand) (List.length races)
        (if ok then "ok" else "FAILED");
      Option.iter (fun n -> Printf.printf "    %s\n" n) note
    end;
    if not ok then emit_diags ~json (Race_lint.to_diags races);
    ok
  in
  (* Conference (§1, ref [11]): the scripted annotate/commit session over
     the stable-point service — causal layer, commits are sync points. *)
  let conference =
    let sections = 4 in
    let rows =
      Conference.session_schedule ~participants:4 ~sections ~annotations:48
        ~commit_every:8 (Rng.create seed)
    in
    one "conference" ~top:Guarantee.Causal
      (Workload.of_submissions ~spec:(Dt.Document.spec ~sections) rows)
  in
  (* Card game (§5.1): the strict-turns chain over the causal group.
     Plays commute structurally, so the chain serves gameplay, not
     consistency — demand stays at unordered. *)
  let cards =
    let rows = Card_game.static_schedule ~players:4 ~rounds:8 in
    let spec = Dt.Card_table.spec in
    let obj = Workload.obj_of_spec spec in
    let graph = Depgraph.create () in
    List.iter (fun (label, dep, _, _) -> Depgraph.add graph label ~dep) rows;
    let sites =
      List.map
        (fun (label, _, _, op) ->
          {
            Workload.label;
            obj = obj.Workload.name;
            cls = spec.Seq_spec.class_of op;
          })
        rows
    in
    one "card-game" ~top:Guarantee.Causal
      (Workload.of_sites ~graph ~objects:[ obj ] sites)
  in
  (* Name service (§5.2, Fig. 4): spontaneous upd/qry rows — no edges, no
     sync — verified against the Total_order sequencer box.  The same
     workload under the App_check box (causal top) is deliberately short
     of ordering: the application's context check, not the broadcast
     layer, closes that gap, so that box is reported, not gated on. *)
  let ns =
    let spec = Dt.Kv_store.spec in
    let obj = Workload.obj_of_spec spec in
    let rows = Name_service.static_schedule ~front_ends:4 ~keys:3 ~ops:36 in
    let graph = Depgraph.create () in
    let seqs = Hashtbl.create 8 in
    let sites =
      List.map
        (fun (src, op) ->
          let seq = Option.value ~default:0 (Hashtbl.find_opt seqs src) in
          Hashtbl.replace seqs src (seq + 1);
          let label = Label.make ~origin:src ~seq () in
          Depgraph.add graph label ~dep:Dep.Null;
          {
            Workload.label;
            obj = obj.Workload.name;
            cls = spec.Seq_spec.class_of op;
          })
        rows
    in
    let w = Workload.of_sites ~graph ~objects:[ obj ] sites in
    let app_check = List.length (Race_lint.check ~top:Guarantee.Causal w) in
    one "name-service" ~top:Guarantee.Causal_total
      ~note:
        (Printf.sprintf
           "app-check box: %d pairs fall to the context check (Fig. 4)"
           app_check)
      w
  in
  [ conference; cards; ns ]

let run_lints ~seed ~sigma ~replicas ~ops ~window ~spacing ~json ~verbose
    ~all specs =
  let oks =
    lint_stacks ~seed ~sigma ~replicas ~ops ~window ~spacing ~json ~verbose
      specs
  in
  let oks =
    if not all then oks
    else begin
      if not json then print_newline ();
      let oks = oks @ lint_objects ~seed ~replicas ~json () in
      if not json then print_newline ();
      oks @ lint_protocols ~seed ~json ()
    end
  in
  if not json then print_newline ();
  if List.for_all Fun.id oks then begin
    if not json then
      print_endline "all configurations passed the static verifier";
    0
  end
  else begin
    if not json then print_endline "static consistency issues found";
    1
  end

(* --- self-test: seed violations, assert both passes object ----------- *)

(* The §6.1 shape in miniature: two incs from two members, closed by a
   read that depends on both.  [drop] deletes the read's R(M) edges — the
   mutation the race lint must catch. *)
let mini_workload ~drop =
  let spec = Dt.Int_register.spec in
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
    ~objects:[ Workload.obj_of_spec spec ]
    [ site a "inc"; site b "inc"; site r "read" ]

let self_test ~json () =
  let failures = ref 0 in
  let report name = function
    | Ok detail -> Printf.printf "  %-36s caught: %s\n" name detail
    | Error msg ->
      incr failures;
      Printf.printf "  %-36s NOT CAUGHT: %s\n" name msg
  in
  let first_diag name to_diags = function
    | [] -> report name (Error "verifier accepted the broken configuration")
    | issues ->
      let d = List.hd (to_diags issues) in
      if json then print_endline (Diag.to_json_line d);
      report name (Ok (Diag.to_string d))
  in
  print_endline
    "self-test: seeding known violations, both static passes must object";
  (* 1. A weakened composition: a merge total layer over a FIFO-only
     causal layer — merge requires Causal below it. *)
  let weak =
    Stack_verify.verify_stack
      ~ordering:Stack.Fifo
      ~total:(Stack.Merge (fun _ -> true))
      ~fifo:false ()
  in
  first_diag "verify: total layer over fifo"
    (fun issues -> List.map Stack_verify.to_diag issues)
    (List.filter
       (function Stack_verify.Weak_layer _ -> true | _ -> false)
       weak.Stack_verify.issues);
  (* 2. An overclaimed composition: Causal claimed over a FIFO-only
     pipeline. *)
  let overclaim =
    Stack_verify.verify_stack ~claim:Guarantee.Causal ~ordering:Stack.Fifo
      ~total:Stack.Pass ~fifo:false ()
  in
  first_diag "verify: causal claim over fifo"
    (fun issues -> List.map Stack_verify.to_diag issues)
    (List.filter
       (function Stack_verify.Claim_unmet _ -> true | _ -> false)
       overclaim.Stack_verify.issues);
  (* 3. A deleted R(M) edge on an Ncid pair.  Control first: with the
     edges intact the workload is race-free at Causal. *)
  (match Race_lint.check ~top:Guarantee.Causal (mini_workload ~drop:false) with
  | [] -> report "race: control (edges intact)" (Ok "no race, as intended")
  | _ :: _ ->
    report "race: control (edges intact)"
      (Error "race reported on a fully ordered workload"));
  first_diag "race: deleted Ncid edge"
    Race_lint.to_diags
    (Race_lint.check ~top:Guarantee.Causal (mini_workload ~drop:true));
  (* 4. Two sends defining the same label. *)
  let dup = Label.make ~name:"dup" ~origin:0 ~seq:0 () in
  first_diag "spec-lint: duplicate label"
    Spec_lint.to_diags
    (List.filter
       (function Spec_lint.Duplicate_label _ -> true | _ -> false)
       (Spec_lint.lint_sends [ (dup, Dep.Null); (dup, Dep.Null) ]));
  (* 5. Every shipped composition must be statically clean — the seeded
     violations above must be the only way to make the verifier fire. *)
  let w = { Drivers.ops = 60; spacing = 0.5; mix = Drivers.Fixed_window 5 } in
  List.iter
    (fun spec ->
      let r = Drivers.static_audit ~replicas:4 spec w in
      if not (Drivers.static_ok r) then begin
        incr failures;
        Printf.printf "  shipped composition %s FAILED the static verifier\n"
          (Drivers.stack_spec_name spec);
        emit_diags ~json r.Drivers.static_diags
      end)
    (Drivers.stack_specs ~counted:61);
  print_newline ();
  if !failures = 0 then begin
    print_endline "self-test passed: every seeded violation was caught";
    0
  end
  else begin
    Printf.printf "self-test FAILED: %d violation(s) escaped the verifier\n"
      !failures;
    1
  end

(* --- command line ----------------------------------------------------- *)

let seed =
  let doc = "Random seed for the deterministic workload derivation." in
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc)

let sigma =
  let doc = "Lognormal latency sigma (affects only RNG stream layout)." in
  Arg.(value & opt float 1.0 & info [ "sigma" ] ~docv:"S" ~doc)

let replicas =
  let doc = "Group size." in
  Arg.(value & opt int 4 & info [ "replicas" ] ~docv:"N" ~doc)

let ops =
  let doc = "Operations in the workload (a closing sync is appended)." in
  Arg.(value & opt int 200 & info [ "ops" ] ~docv:"K" ~doc)

let window =
  let doc = "Commutative operations per \xc2\xa76.1 cycle." in
  Arg.(value & opt int 5 & info [ "window" ] ~docv:"W" ~doc)

let spacing =
  let doc = "Milliseconds between submissions." in
  Arg.(value & opt float 0.5 & info [ "spacing" ] ~docv:"MS" ~doc)

let verbose =
  let doc = "Print the per-layer guarantee table for every composition." in
  Arg.(value & flag & info [ "v"; "verbose" ] ~doc)

let json_flag =
  let doc = "Emit diagnostics as JSON lines (one object per issue)." in
  Arg.(value & flag & info [ "json" ] ~doc)

let all_flag =
  let doc =
    "Also race-lint the shipped object workloads (counter pipeline, \
     or-set cart, rga collaborative edit) against the service's causal \
     guarantee, and the protocol schedules the protocol modules export \
     (conference session, card-game turn chain, name-service spontaneous \
     mix) against the guarantee of the stack each protocol composes."
  in
  Arg.(value & flag & info [ "all" ] ~doc)

let self_test_flag =
  let doc =
    "Run the mutation harness instead: seed one known violation per pass \
     (total layer over FIFO, overclaimed guarantee, deleted R(M) edge on \
     a non-commuting pair, duplicate label) and fail unless every one is \
     caught while all shipped compositions stay clean."
  in
  Arg.(value & flag & info [ "self-test" ] ~doc)

let spec_args =
  let doc =
    "Composition(s) to verify: fifo, bss, psync, osend, merge, counted, \
     sequencer, pc.  Repeatable; default all."
  in
  Arg.(value & opt_all string [] & info [ "spec" ] ~docv:"SPEC" ~doc)

let main seed sigma replicas ops window spacing verbose json all self specs =
  if self then self_test ~json ()
  else
    match Drivers.parse_specs ~counted:(ops + 1) specs with
    | Error msg ->
      prerr_endline ("causalb-lint: " ^ msg);
      2
    | Ok specs ->
      run_lints ~seed ~sigma ~replicas ~ops ~window ~spacing ~json ~verbose
        ~all specs

let cmd =
  let doc = "static consistency verifier for the causalb stack compositions" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Verifies configurations $(b,before) execution. Pass 1 composes \
         each stack's declared ordering guarantees bottom-up over the \
         lattice unordered \xe2\x8a\x91 fifo \xe2\x8a\x91 causal \xe2\x8a\x91 \
         causal-total, flagging layers whose requirement the composition \
         below them does not meet and claims the top of the stack cannot \
         honour. Pass 2 replays the workload intent purely and flags \
         every pair of operations in non-commuting classes on the same \
         object that neither the intended $(b,R(M)) reachability, a \
         synchronization point, nor the stack's top guarantee orders. \
         Any issue prints a structured diagnostic and sets the exit \
         status to 1.";
    ]
  in
  let info = Cmd.info "causalb-lint" ~version:"%%VERSION%%" ~doc ~man in
  Cmd.v info
    Term.(
      const main $ seed $ sigma $ replicas $ ops $ window $ spacing $ verbose
      $ json_flag $ all_flag $ self_test_flag $ spec_args)

let () = exit (Cmd.eval' cmd)
