(* Domains-based sweep runner: the in-process sibling of [Pool].

   Where [Pool] forks worker processes and captures task output at the
   fd level, [Dpool] spawns worker domains (OCaml 5) and captures output
   through [Printer]'s domain-local sink — fd redirection is
   process-global, so dup2 cannot isolate two domains printing
   concurrently.  The contract is the [Pool] contract: same task type's
   shape, same derived per-task seeds ([Pool.seed_for]), same [result] /
   [report] records, results in task-list order — so [Runner.assemble]
   reproduces the byte stream of a sequential run from a [-J n] sweep
   exactly as it does from a [-j n] one.

   Tasks come in two modes:

   - [Parallel] (deterministic experiment parts): print through
     [Printer], safe to run in any domain, captured by sink.
   - [Sequential] (timing parts: the micro benches): keep their raw
     prints and their exclusive use of the machine.  They run in the
     main domain through [Pool.run_one]'s fd capture, *before* any
     worker domain is spawned, so the dup2 window never overlaps with
     another domain's output and timing is not polluted by concurrent
     mutator work.

   On 4.14 (or [domains <= 1]) the backend degrades to an in-domain
   sequential loop with the same capture discipline — byte-identical
   results, no warning noise, no speedup. *)

type mode = Parallel | Sequential

type task = { name : string; mode : mode; run : seed:int -> unit }

let task ?(mode = Parallel) ~name run = { name; mode; run }

let available = Dpool_backend.available

let recommended_domains = Dpool_backend.recommended

module Printer = Causalb_util.Printer

(* In-domain capture via the Printer sink.  The exception is caught
   *inside* the captured thunk so the buffer's contents survive a
   failing task, mirroring [Pool.with_capture] keeping the temp file's
   bytes when the task raises. *)
let run_one_buffered ~base_seed (t : task) : Pool.result =
  let seed = Pool.seed_for ~base:base_seed t.name in
  let g0 = Gc.quick_stat () in
  let t0 = Unix.gettimeofday () in
  let output, outcome =
    Printer.capture (fun () ->
        try
          t.run ~seed;
          Pool.Done
        with e -> Pool.Failed (Printexc.to_string e))
  in
  let t1 = Unix.gettimeofday () in
  let g1 = Gc.quick_stat () in
  {
    Pool.name = t.name;
    seed;
    status = outcome;
    wall_ms = (t1 -. t0) *. 1000.0;
    gc_minor_words = g1.Gc.minor_words -. g0.Gc.minor_words;
    gc_major_words = g1.Gc.major_words -. g0.Gc.major_words;
    output;
  }

let run ?(domains = 1) ?(base_seed = 42) (tasks : task list) : Pool.report =
  let t0 = Unix.gettimeofday () in
  let arr = Array.of_list tasks in
  let n = Array.length arr in
  let results : Pool.result option array = Array.make n None in
  (* Phase 1: fd-captured timing tasks, main domain only, no worker
     domain live — see the header comment. *)
  Array.iteri
    (fun i t ->
      if t.mode = Sequential then
        results.(i) <-
          Some (Pool.run_one ~base_seed { Pool.name = t.name; run = t.run }))
    arr;
  (* Phase 2: sink-captured deterministic tasks across worker domains. *)
  let par =
    Array.of_list
      (List.filteri (fun i _ -> arr.(i).mode = Parallel)
         (List.init n (fun i -> i)))
  in
  let thunks =
    Array.map (fun i () -> run_one_buffered ~base_seed arr.(i)) par
  in
  (* Mirror the backend's spawn condition: once a worker domain exists,
     Unix.fork is gone for the rest of the process — let Pool degrade
     instead of crash (see [Pool.fork_unavailable]). *)
  if available && domains > 1 && Array.length thunks > 1 then
    Pool.fork_unavailable := true;
  let rs = Dpool_backend.map ~domains thunks in
  Array.iteri (fun k i -> results.(i) <- Some rs.(k)) par;
  let results =
    Array.to_list results
    |> List.map (function Some r -> r | None -> assert false)
  in
  let failures =
    List.filter_map
      (fun (r : Pool.result) ->
        match r.status with Pool.Done -> None | Pool.Failed _ -> Some r.name)
      results
  in
  {
    Pool.results;
    failures;
    wall_ms = (Unix.gettimeofday () -. t0) *. 1000.0;
    jobs = max 1 domains;
  }
