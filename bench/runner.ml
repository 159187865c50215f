(* Bridges the experiment registry to the fork-based worker pool.

   Each registry part becomes one pool task; the pool captures every
   part's stdout+stderr and returns results in task-list order, so
   [assemble] can rebuild the exact byte stream a sequential run prints:
   banner, then part outputs, in registry order.  The job count only
   changes *where* a part ran, never where its bytes land — the property
   [test/test_pool.ml] asserts. *)

module Pool = Causalb_harness.Pool
module Dpool = Causalb_harness.Dpool

type outcome = {
  report : Pool.report;
  stdout_text : string;
      (* assembled output, byte-identical across job counts *)
}

let tasks_of experiments =
  List.concat_map
    (fun (e : Registry.experiment) ->
      List.map
        (fun (p : Registry.part) ->
          Pool.task ~name:p.pname (fun ~seed:_ -> p.prun ()))
        e.parts)
    experiments

let assemble experiments (report : Pool.report) =
  let buf = Buffer.create 4096 in
  let results = ref report.results in
  List.iter
    (fun (e : Registry.experiment) ->
      Buffer.add_string buf (Registry.banner e);
      List.iter
        (fun (_ : Registry.part) ->
          match !results with
          | r :: rest ->
            results := rest;
            Buffer.add_string buf r.Pool.output
          | [] -> ())
        e.parts)
    experiments;
  Buffer.contents buf

let run ?(jobs = 1) ?(base_seed = 42) experiments =
  let report = Pool.run ~jobs ~base_seed (tasks_of experiments) in
  { report; stdout_text = assemble experiments report }

(* The domains path ([-J n]): same registry, same assembly, but parts
   run on worker domains with sink capture instead of forked processes
   with fd capture.  Deterministic parts print through [Printer] and go
   [Parallel]; timing parts keep raw prints and exclusive machine use,
   so they run [Sequential] in the main domain before any worker domain
   spawns. *)
let dtasks_of experiments =
  List.concat_map
    (fun (e : Registry.experiment) ->
      let mode =
        match e.kind with
        | Registry.Deterministic -> Dpool.Parallel
        | Registry.Timing -> Dpool.Sequential
      in
      List.map
        (fun (p : Registry.part) ->
          Dpool.task ~mode ~name:p.pname (fun ~seed:_ -> p.prun ()))
        e.parts)
    experiments

let run_domains ?(domains = 1) ?(base_seed = 42) experiments =
  let report = Dpool.run ~domains ~base_seed (dtasks_of experiments) in
  { report; stdout_text = assemble experiments report }
