(* Bridges the experiment registry to the sweep pool.

   Each registry part becomes one pool task; the pool captures every
   part's output and returns results in task-list order, so [assemble]
   can rebuild the exact byte stream a sequential run prints: banner,
   then part outputs, in registry order.  The job count only changes
   *where* a part ran, never where its bytes land — the property
   [test/test_pool.ml] asserts.

   Deterministic parts run [Parallel] on worker domains; timing parts
   run [Sequential], in the main domain before any worker domain
   spawns, so their measurements have the machine to themselves. *)

module Pool = Causalb_harness.Pool

type outcome = {
  report : Pool.report;
  stdout_text : string;
      (* assembled output, byte-identical across job counts *)
}

let tasks_of experiments =
  List.concat_map
    (fun (e : Registry.experiment) ->
      let mode =
        match e.kind with
        | Registry.Deterministic -> Pool.Parallel
        | Registry.Timing -> Pool.Sequential
      in
      List.map
        (fun (p : Registry.part) ->
          Pool.task ~mode ~name:p.pname (fun ~seed:_ -> p.prun ()))
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
