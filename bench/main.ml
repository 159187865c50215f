(* Experiment harness entry point (sequential).

   With no arguments, regenerates every figure (F1–F5) and every table
   (T1–T8, A1–A4, S1, O1, H1, M1) from DESIGN.md, then runs the
   bechamel micro-benchmarks.
   Pass experiment ids to run a subset:

     dune exec bench/main.exe            # everything
     dune exec bench/main.exe -- T1 T6   # just those
     dune exec bench/main.exe -- figures # F1..F5
     dune exec bench/main.exe -- micro   # bechamel only

   The experiment list itself lives in [Causalb_bench.Registry]; the
   parallel runner is [causalb exp -j N], which spreads the same
   registry over N worker domains and reassembles byte-identical
   output. *)

module Registry = Causalb_bench.Registry

let () =
  let args =
    match Array.to_list Sys.argv with _ :: rest -> rest | [] -> []
  in
  let wanted =
    match args with
    | [] -> List.map (fun (e : Registry.experiment) -> e.id) Registry.all
    | ids -> ids
  in
  let unknown = List.filter (fun id -> Registry.find id = None) wanted in
  if unknown <> [] then begin
    Printf.eprintf "unknown experiment(s): %s\navailable:\n"
      (String.concat ", " unknown);
    List.iter
      (fun (e : Registry.experiment) ->
        Printf.eprintf "  %-8s %s\n" e.id e.descr)
      Registry.all;
    exit 2
  end;
  List.iter
    (fun id ->
      match Registry.find id with
      | Some e -> Registry.run_sequential e
      | None -> ())
    wanted;
  print_endline "\nall requested experiments completed."
