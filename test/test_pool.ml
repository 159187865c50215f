(* Tests for the sweep pool and the experiment runner built on it.

   The headline property: a parallel run is byte-identical to a
   sequential one.  [Pool.run ~jobs:4] must yield the same JSON-encoded
   results (per task: name, seed, status, captured output) as
   [Pool.run ~jobs:1], and the assembled sweep output of
   [Runner.run ~jobs:4] must equal the [~jobs:1] bytes.  A task that
   raises fails alone and keeps what it printed; the job count is
   clamped to the machine; GC words are the task's own. *)

module Pool = Causalb_harness.Pool
module Json = Causalb_util.Json
module Printer = Causalb_util.Printer
module Registry = Causalb_bench.Registry
module Runner = Causalb_bench.Runner

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

(* A deterministic task: output depends only on (name, seed). *)
let printer_task name =
  Pool.task ~name (fun ~seed ->
      Printer.printf "%s computed %d\n" name (seed * 3);
      Printer.string (String.concat "," (List.init 5 string_of_int));
      Printer.newline ())

let task_names = [ "alpha"; "beta"; "gamma"; "delta"; "epsilon"; "zeta"; "eta" ]

(* The canonical encoding of a list of results, timings left out: what
   the byte comparison runs over. *)
let encode results =
  String.concat "\n"
    (List.map
       (fun (r : Pool.result) ->
         Json.to_string
           (Json.Obj
              [
                ("name", Json.Str r.name);
                ("seed", Json.Num (float_of_int r.seed));
                ( "error",
                  match r.status with
                  | Pool.Done -> Json.Null
                  | Pool.Failed m -> Json.Str m );
                ("output", Json.Str r.output);
              ]))
       results)

let test_parallel_matches_sequential () =
  let tasks () = List.map printer_task task_names in
  let r1 = Pool.run ~jobs:1 ~base_seed:7 (tasks ()) in
  let r4 = Pool.run ~jobs:4 ~base_seed:7 (tasks ()) in
  check "no failures j1" true (r1.Pool.failures = []);
  check "no failures j4" true (r4.Pool.failures = []);
  check "output captured" true
    ((List.hd r1.Pool.results).Pool.output <> "");
  check_str "JSON byte-identical -j4 vs -j1" (encode r1.Pool.results)
    (encode r4.Pool.results)

let test_seed_independent_of_jobs () =
  let seeds report =
    List.map (fun r -> (r.Pool.name, r.Pool.seed)) report.Pool.results
  in
  let tasks () = List.map printer_task task_names in
  let r1 = Pool.run ~jobs:1 ~base_seed:11 (tasks ()) in
  let r3 = Pool.run ~jobs:3 ~base_seed:11 (tasks ()) in
  check "same (name, seed) pairs" true (seeds r1 = seeds r3);
  (* and the seed really is per-name: distinct names, distinct seeds *)
  let distinct = List.sort_uniq compare (List.map snd (seeds r1)) in
  check_int "distinct seeds" (List.length task_names) (List.length distinct)

let test_empty_and_singleton () =
  let r = Pool.run ~jobs:4 ~base_seed:1 [] in
  check "empty run ok" true (r.Pool.results = [] && r.Pool.failures = []);
  let r = Pool.run ~jobs:4 ~base_seed:1 [ printer_task "only" ] in
  check_int "one result" 1 (List.length r.Pool.results);
  check "one ok" true (List.for_all Pool.ok r.Pool.results)

let test_oversubscribed () =
  (* more workers than tasks: every task still runs exactly once *)
  let tasks = List.map printer_task [ "a"; "b"; "c" ] in
  let r = Pool.run ~jobs:8 ~base_seed:3 tasks in
  check_int "three results" 3 (List.length r.Pool.results);
  check "all ok" true (List.for_all Pool.ok r.Pool.results);
  check "order preserved" true
    (List.map (fun x -> x.Pool.name) r.Pool.results = [ "a"; "b"; "c" ]);
  check "jobs clamped to the tasks" true (r.Pool.jobs <= 3)

(* The clamp is a pure function of (cores, tasks, jobs): no domain is
   started here, whatever the figures. *)
let test_jobs_clamp () =
  let clamp ~cores ~tasks jobs = Pool.jobs_for ~cores ~tasks jobs in
  check_int "capped at the cores" 2 (clamp ~cores:2 ~tasks:4096 200);
  check_int "capped at the tasks" 3 (clamp ~cores:8 ~tasks:3 200);
  check_int "granted when it fits" 4 (clamp ~cores:8 ~tasks:100 4);
  check_int "at least one" 1 (clamp ~cores:8 ~tasks:100 0);
  check_int "negative asks for one" 1 (clamp ~cores:8 ~tasks:100 (-3));
  check_int "no tasks, one job" 1 (clamp ~cores:8 ~tasks:0 5);
  check "never above this machine's cores" true
    (Pool.jobs_for ~tasks:1_000_000 1_000_000 <= Pool.recommended_domains ())

(* Sequential tasks run first, in the calling domain, before any
   parallel task starts — here the timing task is listed last and still
   sees no parallel task begun — and their output is captured too. *)
let test_sequential_first () =
  let started = Atomic.make 0 in
  let seen = ref (-1) in
  let par name =
    Pool.task ~name (fun ~seed:_ ->
        Atomic.incr started;
        Printer.line name)
  in
  let tasks =
    [
      par "p1";
      par "p2";
      Pool.task ~mode:Pool.Sequential ~name:"timing" (fun ~seed:_ ->
          seen := Atomic.get started;
          Printer.line "printed by a timing task");
    ]
  in
  let r = Pool.run ~jobs:2 ~base_seed:3 tasks in
  check "no failures" true (r.Pool.failures = []);
  check_int "timing task ran before the parallel ones" 0 !seen;
  check "order is task order" true
    (List.map (fun x -> x.Pool.name) r.Pool.results = [ "p1"; "p2"; "timing" ]);
  check_str "sink captured the timing task" "printed by a timing task\n"
    (List.nth r.Pool.results 2).Pool.output

let test_task_exception_is_isolated () =
  let tasks =
    [
      printer_task "fine";
      Pool.task ~name:"boom" (fun ~seed:_ -> failwith "deliberate");
      printer_task "also-fine";
    ]
  in
  let r = Pool.run ~jobs:2 ~base_seed:5 tasks in
  check "failure recorded" true (r.Pool.failures = [ "boom" ]);
  check_int "all three reported" 3 (List.length r.Pool.results);
  let boom = List.nth r.Pool.results 1 in
  check "failure message kept" true
    (match boom.Pool.status with
    | Pool.Failed m -> String.length m > 0
    | Pool.Done -> false);
  check "neighbours unaffected" true
    (Pool.ok (List.nth r.Pool.results 0) && Pool.ok (List.nth r.Pool.results 2))

let test_failed_task_keeps_output () =
  let t =
    Pool.task ~name:"partial" (fun ~seed:_ ->
        Printer.line "printed before the crash";
        failwith "after printing")
  in
  let r = Pool.run_one ~base_seed:1 t in
  check "failed" true (not (Pool.ok r));
  check_str "output survives the raise" "printed before the crash\n"
    r.Pool.output

(* Two tasks on two domains, held together by an atomic barrier so each
   allocates while the other does: each must be charged its own words
   only.  A reading taken from [Gc.quick_stat], which sums every domain
   on OCaml 5, would come out near twice the amount.  Either counter
   places the words of a partly filled minor heap only roughly, so a
   reading may be off by up to one minor heap. *)
let test_gc_words_own_domain () =
  if Pool.jobs_for ~tasks:2 2 < 2 then Alcotest.skip ();
  let refs = 1_000_000 in
  let words = float_of_int (2 * refs) (* header + field per ref *) in
  let arrived = Atomic.make 0 and finished = Atomic.make 0 in
  let await c =
    let spins = ref 0 in
    while Atomic.get c < 2 && !spins < 20_000_000_000 do
      incr spins
    done
  in
  let alloc ~seed:_ =
    Atomic.incr arrived;
    await arrived;
    for i = 1 to refs do
      ignore (Sys.opaque_identity (ref i))
    done;
    Atomic.incr finished;
    await finished
  in
  let r =
    Pool.run ~jobs:2 ~base_seed:1
      [ Pool.task ~name:"a" alloc; Pool.task ~name:"b" alloc ]
  in
  check_int "ran on two domains" 2 r.Pool.jobs;
  let slack = float_of_int (Gc.get ()).Gc.minor_heap_size in
  List.iter
    (fun (x : Pool.result) ->
      let w = x.Pool.gc_minor_words in
      if Float.abs (w -. words) > slack then
        Alcotest.failf "%s: %.0f minor words, allocated %.0f" x.Pool.name w
          words)
    r.Pool.results

(* --- the runner on the real registry --- *)

let test_runner_sweep_byte_identical () =
  (* a representative slice of the real registry, T1's split included;
     cheap experiments keep the test quick *)
  let exps =
    List.filter_map Registry.find [ "T3"; "A3"; "T5" ]
  in
  check "picked three" true (List.length exps = 3);
  let o1 = Runner.run ~jobs:1 ~base_seed:42 exps in
  let o4 = Runner.run ~jobs:4 ~base_seed:42 exps in
  check "no failures" true
    (o1.Runner.report.Pool.failures = [] && o4.Runner.report.Pool.failures = []);
  check "assembled output non-trivial" true
    (String.length o1.Runner.stdout_text > 200);
  check_str "sweep bytes identical -j4 vs -j1" o1.Runner.stdout_text
    o4.Runner.stdout_text

(* --- the pool against its one-task baseline ---

   These cases keep the ids of the separate domains pool this module
   absorbed.  Their "fork j1" baseline is now each task run alone by
   [run_one] in the calling domain. *)

let test_run_matches_run_one () =
  let tasks () = List.map printer_task task_names in
  let alone = List.map (Pool.run_one ~base_seed:7) (tasks ()) in
  let r3 = Pool.run ~jobs:3 ~base_seed:7 (tasks ()) in
  check "no failures" true
    (r3.Pool.failures = [] && List.for_all Pool.ok alone);
  check_str "JSON byte-identical -j3 vs one task at a time" (encode alone)
    (encode r3.Pool.results)

(* Failures raised on worker domains: recorded in task order, each with
   the output printed before its raise, neighbours untouched, and the
   whole report the same bytes as at -j 1. *)
let test_failures_match_across_jobs () =
  let tasks () =
    [
      printer_task "fine";
      Pool.task ~name:"boom" (fun ~seed:_ -> failwith "deliberate");
      printer_task "also-fine";
      Pool.task ~name:"partial" (fun ~seed:_ ->
          Printer.line "printed before the crash";
          raise Not_found);
      printer_task "last";
    ]
  in
  let r1 = Pool.run ~jobs:1 ~base_seed:5 (tasks ()) in
  let r3 = Pool.run ~jobs:3 ~base_seed:5 (tasks ()) in
  let nth i = List.nth r3.Pool.results i in
  check "failures in task order" true
    (r3.Pool.failures = [ "boom"; "partial" ]);
  check_str "output printed before the raise kept"
    "printed before the crash\n" (nth 3).Pool.output;
  check "neighbours unaffected" true
    (List.for_all Pool.ok [ nth 0; nth 2; nth 4 ]);
  check_str "JSON byte-identical -j3 vs -j1, failures included"
    (encode r1.Pool.results) (encode r3.Pool.results)

(* An odd job count over a slice given out of registry order: the
   banners follow the order asked for, and the bytes match -j 1. *)
let test_runner_sweep_j3 () =
  let ids = [ "T5"; "A3"; "T3" ] in
  let exps = List.filter_map Registry.find ids in
  let o1 = Runner.run ~jobs:1 ~base_seed:42 exps in
  let o3 = Runner.run ~jobs:3 ~base_seed:42 exps in
  check "no failures" true
    (o1.Runner.report.Pool.failures = [] && o3.Runner.report.Pool.failures = []);
  let at id =
    let b = "######## " ^ id ^ " " in
    let n = String.length b and s = o3.Runner.stdout_text in
    let rec go i =
      if i + n > String.length s then max_int
      else if String.sub s i n = b then i
      else go (i + 1)
    in
    go 0
  in
  let pos = List.map at ids in
  check "banners in the order asked for" true
    (List.for_all (fun p -> p < max_int) pos && List.sort compare pos = pos);
  check_str "sweep bytes identical -j3 vs -j1" o1.Runner.stdout_text
    o3.Runner.stdout_text

let test_t1_parts_concatenate () =
  (* the split experiment's parts reassemble into one well-formed table:
     header+rows+footer widths all agree *)
  match Registry.find "T1" with
  | None -> Alcotest.fail "T1 not registered"
  | Some e ->
    check "T1 is split" true (List.length e.Registry.parts > 2);
    let names = List.map (fun p -> p.Registry.pname) e.Registry.parts in
    check "part names are namespaced" true
      (List.for_all
         (fun n -> String.length n > 3 && String.sub n 0 3 = "T1:")
         names)

let () =
  Alcotest.run "pool"
    [
      ( "determinism",
        [
          Alcotest.test_case "j4 JSON = j1 JSON" `Quick
            test_parallel_matches_sequential;
          Alcotest.test_case "seeds independent of jobs" `Quick
            test_seed_independent_of_jobs;
        ] );
      ( "sharding",
        [
          Alcotest.test_case "empty and singleton" `Quick
            test_empty_and_singleton;
          Alcotest.test_case "oversubscribed" `Quick test_oversubscribed;
          Alcotest.test_case "jobs clamp" `Quick test_jobs_clamp;
          Alcotest.test_case "sequential tasks run first" `Quick
            test_sequential_first;
        ] );
      ( "failure",
        [
          Alcotest.test_case "task exception isolated" `Quick
            test_task_exception_is_isolated;
          Alcotest.test_case "failed task keeps output" `Quick
            test_failed_task_keeps_output;
        ] );
      ( "accounting",
        [
          Alcotest.test_case "gc words of the task's own domain" `Quick
            test_gc_words_own_domain;
        ] );
      ( "runner",
        [
          Alcotest.test_case "sweep bytes j4 = j1" `Quick
            test_runner_sweep_byte_identical;
          Alcotest.test_case "T1 split parts" `Quick test_t1_parts_concatenate;
        ] );
      ( "dpool",
        [
          Alcotest.test_case "J JSON = fork j1 JSON" `Quick
            test_run_matches_run_one;
          Alcotest.test_case "failure isolated" `Quick
            test_failures_match_across_jobs;
          Alcotest.test_case "runner sweep bytes -J3 = -j1" `Quick
            test_runner_sweep_j3;
        ] );
    ]
