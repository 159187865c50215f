(* The sweep pool: tasks on worker domains, results in task-list order.

   Determinism: every task gets a seed derived from the sweep's base
   seed and the task's own name (FNV-1a), never from the domain that
   claimed it — so the seed a task sees is independent of the job count
   and of which other tasks run, and the results a sweep returns are a
   pure function of the task list.

   Capture is [Printer]'s domain-local sink: fd redirection is
   process-global, so it cannot isolate two domains printing at once.
   [Sequential] tasks (the timing parts) run in the calling domain
   before any worker domain is spawned, so their timings are not
   polluted by concurrent mutator work.

   The backend is version-selected (see dune): worker domains on OCaml
   5, a sequential loop in the calling domain on 4.14 — same results,
   same bytes, no speed-up. *)

type mode = Parallel | Sequential

type task = { name : string; mode : mode; run : seed:int -> unit }

type status = Done | Failed of string

type result = {
  name : string;
  seed : int;
  status : status;
  wall_ms : float;
  gc_minor_words : float; (* minor-heap words allocated by the task *)
  gc_major_words : float; (* words promoted to / allocated on the major heap *)
  output : string;        (* what the task printed through Printer *)
}

type report = {
  results : result list; (* one per task, in task-list order *)
  failures : string list; (* names of tasks that did not finish cleanly *)
  wall_ms : float;       (* whole-sweep wall clock *)
  jobs : int;
}

let task ?(mode = Parallel) ~name run = { name; mode; run }

(* FNV-1a over the task name, folded into the base seed.  Stable across
   OCaml versions (pure int arithmetic on 63-bit words), unlike
   [Hashtbl.hash] which we must not depend on here. *)
let seed_for ~base name =
  (* 32-bit FNV-1a constants; arithmetic wraps identically on every
     64-bit OCaml, so the derived seed is stable across the CI matrix. *)
  let h = ref 0x811c9dc5 in
  String.iter
    (fun c ->
      h := !h lxor Char.code c;
      h := !h * 0x01000193)
    name;
  (base lxor (!h land 0x3fffffff)) land 0x3fffffff

let ok r = match r.status with Done -> true | Failed _ -> false

let recommended_domains = Pool_backend.recommended

(* OCaml 5.1 allows at most 128 domains per process; the recommended
   count is already below that limit, and a domain per task is the most
   a sweep can use. *)
let jobs_for ?cores ~tasks jobs =
  let cores =
    match cores with Some c -> c | None -> recommended_domains ()
  in
  max 1 (min jobs (min cores tasks))

let map ~jobs f xs =
  let arr = Array.of_list xs in
  let jobs = jobs_for ~tasks:(Array.length arr) jobs in
  Array.to_list (Pool_backend.map ~jobs f arr)

module Printer = Causalb_util.Printer

(* GC words come from [Gc.counters], which counts the calling domain
   only; [Gc.quick_stat] on OCaml 5 also counts other domains'
   allocations.  The exception is caught inside the captured thunk so
   the buffer's contents survive a failing task. *)
let run_one ~base_seed (t : task) =
  let seed = seed_for ~base:base_seed t.name in
  let minor0, _, major0 = Gc.counters () in
  let t0 = Unix.gettimeofday () in
  let output, status =
    Printer.capture (fun () ->
        try
          t.run ~seed;
          Done
        with e -> Failed (Printexc.to_string e))
  in
  let t1 = Unix.gettimeofday () in
  let minor1, _, major1 = Gc.counters () in
  {
    name = t.name;
    seed;
    status;
    wall_ms = (t1 -. t0) *. 1000.0;
    gc_minor_words = minor1 -. minor0;
    gc_major_words = major1 -. major0;
    output;
  }

let run ?(jobs = 1) ?(base_seed = 42) tasks =
  let t0 = Unix.gettimeofday () in
  let sequential, parallel =
    List.partition (fun t -> t.mode = Sequential) tasks
  in
  let done_first = List.map (run_one ~base_seed) sequential in
  let done_par = map ~jobs (run_one ~base_seed) parallel in
  (* Merge back into task-list order: each list keeps its own order. *)
  let rec merge seq par = function
    | [] -> []
    | t :: rest -> (
      match (t.mode, seq, par) with
      | Sequential, r :: seq, par | Parallel, seq, r :: par ->
        r :: merge seq par rest
      | _ -> assert false (* one result per task of each mode *))
  in
  let results = merge done_first done_par tasks in
  let failures =
    List.filter_map (fun r -> if ok r then None else Some r.name) results
  in
  {
    results;
    failures;
    wall_ms = (Unix.gettimeofday () -. t0) *. 1000.0;
    jobs = jobs_for ~tasks:(List.length parallel) jobs;
  }
