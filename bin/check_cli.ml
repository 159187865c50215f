(* causalb-check — the offline ordering oracle as a command.

   Runs the §6.1 workload over every stack composition with tracing on,
   feeds each trace to the checkers that soundly apply to that
   composition, lints the dependency specification, and prints one
   verdict line per composition (plus every diagnostic).  Exit status 1
   when any check fails, so CI can gate on it:

     causalb-check                          # all compositions, S1 params
     causalb-check --spec osend --spec bss  # a subset
     causalb-check --objects                # audit the O1 object runs
     causalb-check --self-test              # seed violations, assert caught *)

open Cmdliner

module Drivers = Causalb_harness.Drivers
module Trace = Causalb_sim.Trace
module Label = Causalb_graph.Label
module Depgraph = Causalb_graph.Depgraph
module Latency = Causalb_sim.Latency
module Diag = Causalb_check.Diag
module Trace_check = Causalb_check.Trace_check
module Spec_lint = Causalb_check.Spec_lint
module Mutate = Causalb_check.Mutate
module Seq_spec = Causalb_data.Seq_spec
module Objects = Causalb_data.Objects
module Commute_lint = Causalb_data.Commute_lint
module Rng = Causalb_util.Rng

(* The checker column: the composition's audit-policy row. *)
let checkers_column spec =
  String.concat ", "
    (List.map
       (fun (c, _) -> Drivers.checker_name c)
       (Drivers.audit_policy spec Drivers.Fixed))

let audit_of ~seed ~latency ~replicas ~w spec =
  let r = Drivers.run_stack ~seed ~latency ~check:true ~replicas spec w in
  match r.Drivers.audit with
  | Some a -> a
  | None -> assert false (* run with ~check:true *)

(* --- default mode: audit every composition --------------------------- *)

let run_audits ~seed ~sigma ~replicas ~ops ~window ~spacing ~verbose ~json
    specs =
  let latency = Latency.lognormal ~mu:0.5 ~sigma () in
  let w = { Drivers.ops; spacing; mix = Drivers.Fixed_window window } in
  if not json then
    Printf.printf
      "ordering oracle: replicas=%d ops=%d window=%d seed=%d sigma=%.2f\n\n"
      replicas ops window seed sigma;
  let audit spec =
    let a = audit_of ~seed ~latency ~replicas ~w spec in
    let diags =
      a.Drivers.diagnostics
      @ Spec_lint.to_diags a.Drivers.lint
      @ a.Drivers.static
    in
    let ok = diags = [] in
    if not json then
      Printf.printf "%-18s [%-27s] trace=%-5d lint=%d static=%d  %s\n"
        (Drivers.stack_spec_name spec)
        (checkers_column spec)
        (Trace.length a.Drivers.trace)
        (List.length a.Drivers.lint)
        (List.length a.Drivers.static)
        (if ok then "ok"
         else
           Printf.sprintf "FAILED (%d diagnostics)"
             (List.length a.Drivers.diagnostics));
    if verbose || not ok then
      List.iter
        (fun d ->
          if json then print_endline (Diag.to_json_line d)
          else print_endline ("    " ^ Diag.to_string d))
        diags;
    ok
  in
  let oks = List.map audit specs in
  if not json then print_newline ();
  if List.for_all Fun.id oks then begin
    if not json then print_endline "all compositions passed the ordering oracle";
    0
  end
  else begin
    if not json then print_endline "ordering violations found";
    1
  end

(* --- object mode: audit the spec-derived object workloads ------------ *)

(* The same builders and per-object seeds as bench experiment O1
   (seed, seed+1, seed+2 = 42,43,44 by default), so this audits
   byte-for-byte the runs the experiment prints. *)
let run_objects ~seed ~replicas ~verbose ~json () =
  let rounds = 24 and window = 6 in
  if not json then
    Printf.printf
      "object oracle: replicas=%d rounds=%d window=%d seed=%d\n\n" replicas
      rounds window seed;
  let audit name cid (r : Drivers.object_result) =
    let ok = Drivers.object_ok r in
    if not json then
      Printf.printf "%-18s Cid={%s}  cycles=%-4d marks=%-4d trace=%-6d %s\n"
        name cid r.Drivers.cycles r.Drivers.stable_marks
        (Trace.length r.Drivers.trace)
        (if ok then "ok"
         else
           Printf.sprintf "FAILED (%d diagnostics)"
             (List.length r.Drivers.diagnostics));
    if verbose || not ok then begin
      if not json then
        List.iter
          (fun (n, v) ->
            if not v then Printf.printf "    check failed: %s\n" n)
          r.Drivers.checks;
      List.iter
        (fun d ->
          if json then print_endline (Diag.to_json_line d)
          else print_endline ("    " ^ Diag.to_string d))
        r.Drivers.diagnostics
    end;
    ok
  in
  let cid spec = String.concat "," (Seq_spec.cid_classes spec) in
  let counter =
    audit "counter-pipeline" (cid Objects.Counter.spec)
      (Drivers.run_object ~seed ~replicas ~spec:Objects.Counter.spec
         (Drivers.counter_pipeline ~replicas ~rounds ~window ()))
  in
  let cart =
    audit "or-set-cart" (cid Objects.Or_set.spec)
      (Drivers.run_object ~seed:(seed + 1) ~replicas
         ~spec:Objects.Or_set.spec
         (Drivers.cart_workload ~replicas ~rounds ~window ()))
  in
  let edit =
    audit "rga-collab-edit" (cid Objects.Rga.spec)
      (Drivers.run_object ~seed:(seed + 2) ~replicas
         ~spec:Objects.Rga.spec
         (Drivers.editing_workload ~replicas ~rounds ~window ()))
  in
  let oks = [ counter; cart; edit ] in
  if not json then print_newline ();
  if List.for_all Fun.id oks then begin
    if not json then
      print_endline "all object workloads passed the ordering oracle";
    0
  end
  else begin
    if not json then print_endline "object ordering violations found";
    1
  end

(* --- self-test: seed violations, assert every checker objects -------- *)

let self_test ~seed ~sigma ~replicas ~ops ~window ~spacing () =
  let latency = Latency.lognormal ~mu:0.5 ~sigma () in
  let w = { Drivers.ops; spacing; mix = Drivers.Fixed_window window } in
  let audit_of = audit_of ~seed ~latency ~replicas ~w in
  let failures = ref 0 in
  let report name = function
    | Ok detail -> Printf.printf "  %-34s caught: %s\n" name detail
    | Error msg ->
      incr failures;
      Printf.printf "  %-34s NOT CAUGHT: %s\n" name msg
  in
  (* Plant one mutation, run one checker, demand a diagnostic — named
     [expect] when given. *)
  let case ?expect name mutated check =
    report name
      (match mutated with
      | None -> Error "no mutation site in this trace"
      | Some mut -> (
        match (check mut, expect) with
        | [], _ -> Error "checker accepted the mutated trace"
        | d :: _, Some name when d.Diag.check <> name ->
          Error (Printf.sprintf "reported as %s, not %s" d.Diag.check name)
        | d :: _, _ -> Ok (Diag.to_string d)))
  in
  print_endline
    "self-test: seeding known violations, every checker must object";
  let osend = audit_of Drivers.Osend_stack in
  let merge = audit_of Drivers.Osend_merge in
  let fifo = audit_of Drivers.Fifo_only in
  let g (a : Drivers.stack_audit) = a.Drivers.graph in
  let tr (a : Drivers.stack_audit) = a.Drivers.trace in
  case "causal: delivery before ancestor"
    (Option.map
       (fun (t, _, _) -> t)
       (Mutate.reorder_causal ~graph:(g osend) (tr osend)))
    (Trace_check.causal ~graph:(g osend));
  case "fifo: inverted sender order"
    (Option.map
       (fun (t, _, _) -> t)
       (Mutate.reorder_fifo ~graph:(g fifo) (tr fifo)))
    (Trace_check.fifo ~graph:(g fifo));
  (* One message delivered twice: both checkers that answer for
     exactly-once delivery must name it. *)
  case ~expect:"duplicate" "fifo: repeated delivery"
    (Option.map fst (Mutate.duplicate_delivery ~graph:(g fifo) (tr fifo)))
    (Trace_check.fifo ~graph:(g fifo));
  case ~expect:"duplicate" "causal: repeated delivery"
    (Option.map fst (Mutate.duplicate_delivery ~graph:(g osend) (tr osend)))
    (Trace_check.causal ~graph:(g osend));
  case "total-order: diverging release"
    (Option.map
       (fun (t, _, _) -> t)
       (Mutate.reorder_release ~graph:(g merge) (tr merge)))
    (Trace_check.total_order ~strict:true ~graph:(g merge)
       ~sync:Label.Set.empty);
  case "windows: release past sync point"
    (Option.map
       (fun (t, _, _) -> t)
       (Mutate.reorder_release ~sync:osend.Drivers.sync ~graph:(g osend)
          (tr osend)))
    (Trace_check.total_order ~graph:(g osend) ~sync:osend.Drivers.sync);
  case "stable-point: corrupted digest"
    (Option.map (fun (t, _) -> t) (Mutate.corrupt_mark (tr merge)))
    Trace_check.stable_points;
  (* The specification bug: a label every predicate still names is gone. *)
  let graph = g osend in
  let victim =
    List.find_map
      (fun l -> match Depgraph.parents graph l with p :: _ -> Some p | [] -> None)
      (Depgraph.labels graph)
  in
  report "lint: dropped dependency label"
    (match victim with
    | None -> Error "no label with a parent in the graph"
    | Some v -> (
      match Spec_lint.lint (Mutate.drop_label graph v) with
      | [] -> Error "lint accepted the broken specification"
      | i :: _ -> Ok (Spec_lint.issue_to_string i)));
  (* The commute lint: the derived Cid labeling rests on the declared
     commutativity relations, so (a) every shipped spec must discharge
     its declared-commuting pairs from reachable states, and (b) a
     deliberately mislabeled relation must be caught. *)
  print_endline
    "\ncommute lint: declared-commuting pairs vs commute_at from reachable states";
  List.iter
    (fun r ->
      Printf.printf "  %s\n" (Format.asprintf "%a" Commute_lint.pp_report r);
      if not (Commute_lint.ok r) then incr failures)
    (Commute_lint.suite ~seed);
  let lying_spec =
    (* an int register whose relation lies: "set" declared commuting *)
    Seq_spec.make ~name:"lying-register" ~init:0
      ~apply:(fun s op -> match op with `Inc n -> s + n | `Set n -> n)
      ~equal:Int.equal
      ~classes:[ "inc"; "set" ]
      ~class_of:(function `Inc _ -> "inc" | `Set _ -> "set")
      ~commutes:(fun _ _ -> true)
      ~pp_op:(fun ppf op ->
        match op with
        | `Inc n -> Format.fprintf ppf "inc(%d)" n
        | `Set n -> Format.fprintf ppf "set(%d)" n)
      ~pp_state:Format.pp_print_int ()
  in
  let gen_lying r =
    if Rng.bool r then `Inc (1 + Rng.int r 9) else `Set (Rng.int r 50)
  in
  report "commute-lint: mislabeled relation"
    (match
       (Commute_lint.check lying_spec ~gen_op:gen_lying ~seed ()).Commute_lint
       .violations
     with
    | [] -> Error "lint accepted a relation that declares set/set commuting"
    | v :: _ ->
      Ok
        (Printf.sprintf "(%s,%s) at %s: %s vs %s" v.Commute_lint.class_a
           v.Commute_lint.class_b v.Commute_lint.state v.Commute_lint.op_a
           v.Commute_lint.op_b));
  print_newline ();
  if !failures = 0 then begin
    print_endline "self-test passed: every seeded violation was caught";
    0
  end
  else begin
    Printf.printf "self-test FAILED: %d violation(s) escaped the oracle\n"
      !failures;
    1
  end

(* --- command line ----------------------------------------------------- *)

let seed =
  let doc = "Random seed for the deterministic simulation." in
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc)

let sigma =
  let doc = "Lognormal latency sigma (link variance)." in
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
  let doc = "Print diagnostics even for passing compositions." in
  Arg.(value & flag & info [ "v"; "verbose" ] ~doc)

let self_test_flag =
  let doc =
    "Run the mutation harness instead: plant one known violation per \
     checker (reordered delivery, inverted sender order, repeated \
     delivery, diverging release, corrupted stable-point digest, dropped \
     dependency label) and fail unless every one is caught."
  in
  Arg.(value & flag & info [ "self-test" ] ~doc)

let objects_flag =
  let doc =
    "Audit the spec-derived object workloads (the O1 bench runs: counter \
     pipeline, or-set cart, rga collaborative edit) instead: online \
     Service checks plus the offline oracle over each trace."
  in
  Arg.(value & flag & info [ "objects" ] ~doc)

let spec_args =
  let doc =
    "Composition(s) to audit: fifo, bss, psync, osend, merge, counted, \
     sequencer, pc.  Repeatable; default all."
  in
  Arg.(value & opt_all string [] & info [ "spec" ] ~docv:"SPEC" ~doc)

let json_flag =
  let doc =
    "Emit diagnostics as JSON lines (one object per violation); \
     suppresses the human-readable report."
  in
  Arg.(value & flag & info [ "json" ] ~doc)

let main seed sigma replicas ops window spacing verbose json self objects specs
    =
  if self then self_test ~seed ~sigma ~replicas ~ops ~window ~spacing ()
  else if objects then run_objects ~seed ~replicas ~verbose ~json ()
  else
    match Drivers.parse_specs ~counted:(ops + 1) specs with
    | Error msg ->
      prerr_endline ("causalb-check: " ^ msg);
      2
    | Ok specs ->
      run_audits ~seed ~sigma ~replicas ~ops ~window ~spacing ~verbose ~json
        specs

let cmd =
  let doc = "offline ordering oracle for the causalb stack compositions" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Runs the \xc2\xa76.1 workload over the ordering-stack compositions \
         with tracing enabled, then audits each trace offline: causal \
         delivery against the extracted $(b,R(M)) graph, FIFO per sender, \
         window or strict release agreement, and stable-point digests. \
         The intended dependency specification is linted statically. Any \
         violation prints a structured diagnostic and sets the exit \
         status to 1.";
    ]
  in
  let info = Cmd.info "causalb-check" ~version:"%%VERSION%%" ~doc ~man in
  Cmd.v info
    Term.(
      const main $ seed $ sigma $ replicas $ ops $ window $ spacing $ verbose
      $ json_flag $ self_test_flag $ objects_flag $ spec_args)

let () = exit (Cmd.eval' cmd)
