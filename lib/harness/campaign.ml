(* Randomized fault campaign: seed × workload-shape × nemesis-schedule
   combinations over the shipped stack compositions, every run audited by
   the offline oracle, failures shrunk to a minimal deterministic repro.

   A case is a pure value; running it is a pure function of the value
   (the simulation draws everything from the case seed), so a failing
   case IS its repro — shrinking just searches for the smallest case
   value that still fails, re-running each candidate. *)

module D = Drivers
module Nemesis = Causalb_net.Nemesis
module Fault = Causalb_net.Fault
module Rng = Causalb_util.Rng
module Json = Causalb_util.Json
module Printer = Causalb_util.Printer
module Diag = Causalb_check.Diag
module Mutate = Causalb_check.Mutate

type case = {
  id : int;
  name : string;        (* "hunt-<id>" — the seed is derived from it *)
  seed : int;           (* the simulation seed (Pool.seed_for-derived) *)
  spec : D.stack_spec;
  replicas : int;
  workload : D.workload;
  nemesis : Nemesis.t;
}

type verdict = {
  case : case;
  ok : bool;
  lost : int;           (* copies the nemesis removed from the wire *)
  messages : int;
  checks : string list; (* names of the checkers that fired, deduped *)
  violation : string option; (* first diagnostic's summary *)
}

(* --- case generation --- *)

let mix_tag (w : D.workload) =
  match w.mix with
  | D.Random p -> Printf.sprintf "random:%.2f" p
  | D.Fixed_window k -> Printf.sprintf "window:%d" k

(* One fault phase: a timed disturbance plus the event that ends it.
   Partitions split the full membership (every node listed, so the
   duplicate-membership guard in [Net.partition] applies to the whole
   assignment); fault phases swap the loss/dup/jitter profile in and
   back out. *)
let gen_phase rng ~buggify ~replicas ~makespan =
  let start = Rng.float rng (makespan *. 0.8) in
  let stop = start +. 1.0 +. Rng.float rng (makespan *. 0.4) in
  if Rng.bool rng then begin
    (* partition into 2 cells (3 under buggify when the group allows) *)
    let order = Array.init replicas (fun i -> i) in
    Rng.shuffle rng order;
    let nodes = Array.to_list order in
    let three = buggify && replicas >= 3 && Rng.bool rng in
    let cut1 = 1 + Rng.int rng (replicas - 1) in
    let cells =
      if three && cut1 < replicas - 1 then
        let cut2 = cut1 + 1 + Rng.int rng (replicas - 1 - cut1) in
        [
          List.filteri (fun i _ -> i < cut1) nodes;
          List.filteri (fun i _ -> i >= cut1 && i < cut2) nodes;
          List.filteri (fun i _ -> i >= cut2) nodes;
        ]
      else
        [
          List.filteri (fun i _ -> i < cut1) nodes;
          List.filteri (fun i _ -> i >= cut1) nodes;
        ]
    in
    [
      { Nemesis.at = start; action = Nemesis.Partition cells };
      { Nemesis.at = stop; action = Nemesis.Heal };
    ]
  end
  else begin
    let scale = if buggify then 0.5 else 0.25 in
    let fault =
      Fault.make
        ~drop_prob:(Rng.float rng scale)
        ~dup_prob:(Rng.float rng scale)
        ~jitter:(Rng.float rng (if buggify then 8.0 else 4.0))
        ()
    in
    [
      { Nemesis.at = start; action = Nemesis.Set_fault fault };
      { Nemesis.at = stop; action = Nemesis.Set_fault Fault.none };
    ]
  end

(* One membership event for a churn case.  Joins name a founding
   contact ([Drivers.run_pc] re-routes through the oldest survivor if
   that contact already left); leaves name a founder other than node 0,
   matching the guards the driver's leave hook enforces — so every
   subset of a generated schedule stays well-formed, which is what lets
   the shrinker drop churn events freely. *)
let gen_churn_event rng ~replicas ~makespan =
  let at = Rng.float rng (makespan *. 0.9) in
  let action =
    if Rng.bool rng then Nemesis.Join { contact = Rng.int rng replicas }
    else Nemesis.Leave (1 + Rng.int rng (replicas - 1))
  in
  { Nemesis.at; action }

let gen_case ~base_seed ~buggify ~min_phases ~churn id =
  let name = Printf.sprintf "hunt-%d" id in
  let seed = Pool.seed_for ~base:base_seed name in
  let rng = Rng.create seed in
  (* churn campaigns run the one composition with dynamic membership;
     the others cycle through the catalogue, whose counted size is set
     per case below *)
  let spec =
    if churn then D.Pc_stack
    else
      let specs = D.stack_specs ~counted:4 in
      List.nth specs (id mod List.length specs)
  in
  let replicas = 3 + Rng.int rng 3 in
  let ops = 20 + Rng.int rng 41 in
  let spacing = [| 0.3; 0.5; 0.8 |].(Rng.int rng 3) in
  let mix =
    if Rng.bool rng then D.Fixed_window (2 + Rng.int rng 5)
    else D.Random (0.6 +. Rng.float rng 0.35)
  in
  (* The count-closed merge only promises agreement when batches align
     with the workload's windows (the §6.2 usage): each member's first
     [k+1] causal deliveries are exactly window plus closing sync, so
     the count must equal the window size + 1 — and the mix must be
     windowed.  A free-running count over a random mix batches
     member-locally different sets, which is not a total order and not a
     bug. *)
  let spec, mix =
    match spec with
    | D.Osend_counted _ ->
      let k = match mix with D.Fixed_window k -> k | D.Random _ -> 4 in
      (D.Osend_counted (k + 1), D.Fixed_window k)
    | s -> (s, mix)
  in
  let workload = { D.ops; spacing; mix } in
  let makespan = float_of_int (ops + 1) *. spacing in
  let phases =
    let cap = if buggify then 4 else 3 in
    Int.max min_phases (Rng.int rng cap)
  in
  let nemesis =
    List.concat
      (List.init phases (fun _ -> gen_phase rng ~buggify ~replicas ~makespan))
    @
    if churn then
      List.init
        (1 + Rng.int rng 3)
        (fun _ -> gen_churn_event rng ~replicas ~makespan)
    else []
  in
  { id; name; seed; spec; replicas; workload; nemesis }

let generate ?(base_seed = 42) ?(buggify = false) ?(min_phases = 0)
    ?(churn = false) ~seeds () =
  List.init seeds (gen_case ~base_seed ~buggify ~min_phases ~churn)

(* --- running one case --- *)

let dedup xs =
  List.fold_left (fun acc x -> if List.mem x acc then acc else acc @ [ x ]) [] xs

(* [mutate] re-audits the run with one seeded violation spliced into its
   trace ([Causalb_check.Mutate]) — the self-test that the campaign's
   oracle plumbing actually rejects bad orderings, end to end, on the
   very traces it hunts over.  A case whose trace has no mutation site
   (too few dependent deliveries) keeps its verdicts. *)
let reaudit ?mutate spec ~lost (a : D.stack_audit) =
  match Option.bind mutate (fun mutate -> mutate a) with
  | None -> a.D.diagnostics
  | Some mutated -> D.recheck spec ~lost { a with D.trace = mutated }

let verdict (c : case) ~ok ~lost ~messages diags =
  {
    case = c;
    ok = ok && diags = [];
    lost;
    messages;
    checks = dedup (List.map (fun d -> d.Diag.check) diags);
    violation =
      (match diags with d :: _ -> Some (Diag.to_string d) | [] -> None);
  }

let run_case_stack ?mutate (c : case) =
  let r =
    D.run_stack ~seed:c.seed ~check:true ~nemesis:c.nemesis
      ~replicas:c.replicas c.spec c.workload
  in
  let audit =
    match r.D.audit with
    | Some a -> a
    | None -> assert false (* ~check:true always produces an audit *)
  in
  verdict c ~ok:r.D.checks_ok ~lost:r.D.lost ~messages:r.D.messages
    (reaudit ?mutate c.spec ~lost:r.D.lost audit)

(* A schedule with membership events runs the PC-broadcast churn driver
   instead, audited under its [Churned] view.  The verdict's [lost]
   reports departure drops too (they are copies the nemesis removed from
   the wire); the audit counts only partition/loss. *)
let run_case_pc ?mutate (c : case) =
  let r =
    D.run_pc ~seed:c.seed ~nemesis:c.nemesis ~replicas:c.replicas c.workload
  in
  verdict c ~ok:r.D.pc_checks_ok
    ~lost:(r.D.pc_lost + r.D.pc_departure_drops)
    ~messages:r.D.pc_messages
    (reaudit ?mutate c.spec ~lost:r.D.pc_lost r.D.pc_audit)

(* The planted violation: a FIFO inversion for the compositions held to
   per-sender order only, a causal inversion otherwise — spliced, under
   churn, into the founders' view, the portion of the trace the causal
   pass audits, so a mutation landing on a joiner can't silently pass. *)
let planted (c : case) (a : D.stack_audit) =
  let reorder =
    match c.spec with
    | D.Fifo_only | D.Bss_stack -> Mutate.reorder_fifo
    | _ -> Mutate.reorder_causal
  in
  let trace =
    match a.D.membership with
    | D.Fixed -> a.D.trace
    | D.Churned { founders } -> D.founders_view a.D.trace ~founders
  in
  Option.map (fun (t, _, _) -> t) (reorder ~graph:a.D.graph trace)

(* Dispatch is per-case-value, not per-campaign: a shrinker candidate
   whose churn events were all removed is an ordinary static case and
   runs (validly) through the stack driver. *)
let run_case ?(plant = false) (c : case) =
  let mutate = if plant then Some (planted c) else None in
  if Nemesis.has_churn c.nemesis then run_case_pc ?mutate c
  else run_case_stack ?mutate c

(* --- shrinking --- *)

let fails ?plant count c =
  incr count;
  not (run_case ?plant c).ok

(* Nemesis first: greedy one-event-at-a-time removal, each candidate
   fully re-run (runs are deterministic, so a removal that keeps the
   case failing is safe to commit).  Greedy is ddmin with chunk size 1 —
   schedules are a handful of events, so the quadratic worst case is
   cheap and the result is 1-minimal: no single remaining event can be
   dropped. *)
let shrink_nemesis ?plant count c =
  let rec loop kept = function
    | [] -> kept
    | e :: rest ->
      if fails ?plant count { c with nemesis = kept @ rest } then
        loop kept rest
      else loop (kept @ [ e ]) rest
  in
  { c with nemesis = loop [] c.nemesis }

(* Then workload length: binary search for the smallest failing op
   count.  Invariant: [hi] fails (the input case does); on exit [lo=hi]
   still fails, so the returned case is a verified repro even when
   failure is not monotone in [ops]. *)
let shrink_ops ?plant count c =
  let with_ops n = { c with workload = { c.workload with D.ops = n } } in
  let lo = ref 1 and hi = ref c.workload.D.ops in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if fails ?plant count (with_ops mid) then hi := mid else lo := mid + 1
  done;
  with_ops !hi

let shrink ?plant c =
  let count = ref 0 in
  let c = shrink_nemesis ?plant count c in
  let c = shrink_ops ?plant count c in
  (c, !count)

(* --- reporting --- *)

let describe c =
  Printf.sprintf "%s: seed=%d spec=%s replicas=%d ops=%d spacing=%.1f \
                  mix=%s nemesis=[%s]"
    c.name c.seed (D.stack_spec_name c.spec) c.replicas c.workload.D.ops
    c.workload.D.spacing (mix_tag c.workload)
    (Nemesis.to_string c.nemesis)

let verdict_json v =
  Json.Obj
    [
      ("name", Json.Str v.case.name);
      ("seed", Json.Num (float_of_int v.case.seed));
      ("spec", Json.Str (D.stack_spec_name v.case.spec));
      ("replicas", Json.Num (float_of_int v.case.replicas));
      ("ops", Json.Num (float_of_int v.case.workload.D.ops));
      ("mix", Json.Str (mix_tag v.case.workload));
      ("nemesis", Json.Str (Nemesis.to_string v.case.nemesis));
      ("ok", Json.Bool v.ok);
      ("lost", Json.Num (float_of_int v.lost));
      ("messages", Json.Num (float_of_int v.messages));
      ("checks", Json.List (List.map (fun c -> Json.Str c) v.checks));
      ( "violation",
        match v.violation with Some s -> Json.Str s | None -> Json.Null );
    ]

type repro = {
  original : verdict;
  minimal : case;
  attempts : int; (* candidate re-runs the shrinker spent *)
}

type report = {
  verdicts : verdict list; (* one per case, in generation order *)
  repros : repro list;     (* one per failing case *)
  jobs : int;
  wall_ms : float;
}

let failures r = List.filter (fun v -> not v.ok) r.verdicts

(* --- the parallel sweep --- *)

(* A case that raises is a failed verdict of its own, not a torn-down
   sweep. *)
let run_case_caught c =
  try run_case c
  with e ->
    {
      case = c;
      ok = false;
      lost = 0;
      messages = 0;
      checks = [ "task" ];
      violation = Some ("task failed: " ^ Printexc.to_string e);
    }

let run ?(jobs = 1) ?(base_seed = 42) ?(buggify = false) ?(churn = false)
    ~seeds () =
  let cases = generate ~base_seed ~buggify ~churn ~seeds () in
  let t0 = Unix.gettimeofday () in
  let verdicts = Pool.map ~jobs run_case_caught cases in
  let wall_ms = (Unix.gettimeofday () -. t0) *. 1000.0 in
  (* Shrinking is sequential, in-process, after the sweep: each failure
     needs many dependent re-runs, and failures are the rare path. *)
  let repros =
    List.filter_map
      (fun v ->
        if v.ok then None
        else if v.checks = [ "task" ] then
          (* a case that raised has no trace to shrink against *)
          Some { original = v; minimal = v.case; attempts = 0 }
        else
          let minimal, attempts = shrink v.case in
          Some { original = v; minimal; attempts })
      verdicts
  in
  {
    verdicts;
    repros;
    jobs = Pool.jobs_for ~tasks:(List.length cases) jobs;
    wall_ms;
  }

(* --- the planted-bug self-test --- *)

(* End-to-end audit of the hunting machinery itself: plant one known
   ordering violation per case (reusing the checker-audit mutators),
   assert the campaign finds it, shrink the first find, and assert the
   minimal repro (a) still fails, deterministically, and (b) is strictly
   smaller on BOTH axes — fewer nemesis events and fewer ops. *)
let self_test ?(base_seed = 42) ?(log = Printer.line) () =
  let seeds = List.length (D.stack_specs ~counted:4) in
  let cases = generate ~base_seed ~min_phases:1 ~seeds () in
  let verdicts = List.map (run_case ~plant:true) cases in
  let found = List.filter (fun v -> not v.ok) verdicts in
  log
    (Printf.sprintf "self-test: planted %d violations, detected %d"
       (List.length cases) (List.length found));
  if found = [] then begin
    log "self-test: FAILED — no planted violation was detected";
    false
  end
  else begin
    let v = List.hd found in
    let minimal, attempts = shrink ~plant:true v.case in
    let v1 = run_case ~plant:true minimal in
    let v2 = run_case ~plant:true minimal in
    let nemesis_reduced =
      List.length minimal.nemesis < List.length v.case.nemesis
    in
    let ops_reduced = minimal.workload.D.ops < v.case.workload.D.ops in
    let still_fails = (not v1.ok) && (not v2.ok) && v1.checks = v2.checks in
    log
      (Printf.sprintf
         "self-test: shrunk %s — nemesis %d -> %d events, ops %d -> %d \
          (%d candidate runs)"
         v.case.name
         (List.length v.case.nemesis)
         (List.length minimal.nemesis)
         v.case.workload.D.ops minimal.workload.D.ops attempts);
    log (Printf.sprintf "self-test: minimal repro  %s" (describe minimal));
    log
      (Printf.sprintf "self-test: repro fails deterministically: %b (%s)"
         still_fails
         (String.concat "," v1.checks));
    (* the churn path end-to-end: over a small churn campaign, at least
       one clean case must have a plantable site in its founders' view
       and the founders-scoped causal pass must reject the inversion *)
    let churn_cases = generate ~base_seed ~churn:true ~seeds:4 () in
    let churn_found =
      List.exists (fun c -> not (run_case ~plant:true c).ok) churn_cases
    in
    log
      (Printf.sprintf
         "self-test: churn plant detected on %d-case campaign: %b" 4
         churn_found);
    (* exactly-once delivery: one repeated [Deliver] record must fail
       every composition's case as a [duplicate] *)
    let duplicate (a : D.stack_audit) =
      Option.map fst (Mutate.duplicate_delivery ~graph:a.D.graph a.D.trace)
    in
    let dup_found =
      List.length
        (List.filter
           (fun c ->
             let v = run_case_stack ~mutate:duplicate c in
             (not v.ok) && List.mem "duplicate" v.checks)
           cases)
    in
    log
      (Printf.sprintf
         "self-test: planted duplicate delivery detected in %d of %d cases"
         dup_found (List.length cases));
    let ok =
      nemesis_reduced && ops_reduced && still_fails && churn_found
      && dup_found = List.length cases
    in
    log (if ok then "self-test: ok" else "self-test: FAILED");
    ok
  end

(* --- rendering --- *)

let print_report ?(json = false) ?(log = Printer.line) r =
  if json then begin
    List.iter (fun v -> log (Json.to_string (verdict_json v))) r.verdicts;
    let fails = failures r in
    log
      (Json.to_string
         (Json.Obj
            [
              ("summary", Json.Str "campaign");
              ("cases", Json.Num (float_of_int (List.length r.verdicts)));
              ("failures", Json.Num (float_of_int (List.length fails)));
              ( "lossy",
                Json.Num
                  (float_of_int
                     (List.length
                        (List.filter (fun v -> v.lost > 0) r.verdicts))) );
              ("jobs", Json.Num (float_of_int r.jobs));
            ]))
  end
  else begin
    let fails = failures r in
    let lossy = List.filter (fun v -> v.lost > 0) r.verdicts in
    log
      (Printf.sprintf
         "campaign: %d cases, %d with loss on the wire, %d failure(s) \
          (%d job(s))"
         (List.length r.verdicts) (List.length lossy) (List.length fails)
         r.jobs);
    List.iter
      (fun (rep : repro) ->
        log (Printf.sprintf "FAIL %s" (describe rep.original.case));
        (match rep.original.violation with
        | Some s -> log (Printf.sprintf "     %s" s)
        | None -> ());
        log
          (Printf.sprintf "     minimal repro (%d candidate runs): %s"
             rep.attempts (describe rep.minimal)))
      r.repros
  end
