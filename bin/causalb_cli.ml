(* causalb — command-line driver for the simulated protocols.

   Subcommands run each protocol study with tunable parameters and print
   measurements plus the consistency verdicts, e.g.:

     causalb counter --replicas 5 --ops 200 --commutative 0.9
     causalb lock --members 8 --cycles 10
     causalb names --mode total-order --update-frac 0.3
     causalb cards --players 6 --rounds 5 --relax
     causalb scenario            # the Fig. 2 walkthrough, with trace *)

open Cmdliner

module Engine = Causalb_sim.Engine
module Latency = Causalb_sim.Latency
module Trace = Causalb_sim.Trace
module Net = Causalb_net.Net
module Group = Causalb_core.Group
module Dep = Causalb_graph.Dep
module Label = Causalb_graph.Label
module Dt = Causalb_data.Datatypes
module Service = Causalb_data.Service
module Replica = Causalb_data.Replica
module Lock = Causalb_protocols.Lock_service
module Ns = Causalb_protocols.Name_service
module Cards = Causalb_protocols.Card_game
module Stats = Causalb_util.Stats
module Rng = Causalb_util.Rng

(* --- shared options --- *)

let seed =
  let doc = "Random seed for the deterministic simulation." in
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc)

let sigma =
  let doc = "Lognormal latency sigma (link variance)." in
  Arg.(value & opt float 1.0 & info [ "sigma" ] ~docv:"S" ~doc)

let latency_of sigma = Latency.lognormal ~mu:0.5 ~sigma ()

let print_checks checks =
  print_endline "consistency checks:";
  List.iter
    (fun (name, ok) ->
      Printf.printf "  %-32s %s\n" name (if ok then "ok" else "VIOLATED"))
    checks;
  if List.for_all snd checks then 0 else 1

(* --- counter: replicated integer service --- *)

let counter seed sigma replicas ops commutative spacing =
  let engine = Engine.create ~seed () in
  let svc =
    Service.create engine ~replicas ~spec:Dt.Int_register.spec
      ~latency:(latency_of sigma) ~fifo:false ()
  in
  let rng = Engine.fork_rng engine in
  for i = 0 to ops - 1 do
    Engine.schedule_at engine ~time:(float_of_int i *. spacing) (fun () ->
        let op =
          if Rng.bernoulli rng commutative then Dt.Int_register.Inc 1
          else Dt.Int_register.Read
        in
        ignore (Service.submit svc ~src:(i mod replicas) op))
  done;
  (* closing read so the final window reaches a stable point *)
  Engine.schedule_at engine ~time:(float_of_int ops *. spacing) (fun () ->
      ignore (Service.submit svc ~src:0 Dt.Int_register.Read));
  Service.run svc;
  Printf.printf "replicas=%d ops=%d commutative=%.2f sigma=%.2f seed=%d\n"
    replicas ops commutative sigma seed;
  Printf.printf "final value: %d (agreed at %d stable points)\n"
    (Replica.stable_state (Service.replica svc 0))
    (Replica.cycles_closed (Service.replica svc 0));
  Printf.printf "delivery latency: %s\n"
    (Stats.summary (Service.delivery_latency svc));
  Printf.printf "stability latency: %s\n"
    (Stats.summary (Service.stability_latency svc));
  Printf.printf "unicast messages: %d\n" (Service.messages_sent svc);
  print_checks (Service.check svc)

let counter_cmd =
  let replicas =
    Arg.(value & opt int 5 & info [ "replicas" ] ~docv:"N"
           ~doc:"Number of data replicas.")
  in
  let ops =
    Arg.(value & opt int 200 & info [ "ops" ] ~docv:"OPS"
           ~doc:"Operations to submit.")
  in
  let commutative =
    Arg.(value & opt float 0.9 & info [ "commutative" ] ~docv:"P"
           ~doc:"Probability an operation is a commutative inc (the rest \
                 are non-commutative reads).")
  in
  let spacing =
    Arg.(value & opt float 0.5 & info [ "spacing" ] ~docv:"MS"
           ~doc:"Milliseconds between submissions.")
  in
  Cmd.v
    (Cmd.info "counter"
       ~doc:"Replicated integer with the \xc2\xa76.1 stable-point access protocol")
    Term.(const counter $ seed $ sigma $ replicas $ ops $ commutative $ spacing)

(* --- lock: decentralized arbitration --- *)

let lock seed sigma members cycles hold =
  let engine = Engine.create ~seed () in
  let t =
    Lock.create engine ~members ~latency:(latency_of sigma)
      ~hold:(Latency.exponential ~mean:hold ()) ()
  in
  Lock.start t ~cycles;
  Engine.run engine;
  Printf.printf "members=%d cycles=%d hold=%.1fms sigma=%.2f seed=%d\n" members
    cycles hold sigma seed;
  List.iter
    (fun g ->
      Printf.printf "  S=%d holder=%d %8.2f .. %8.2f ms\n" g.Lock.cycle
        g.Lock.holder g.Lock.grant_time g.Lock.release_time)
    (Lock.grants t);
  Printf.printf "cycle duration: %s\n" (Stats.summary (Lock.cycle_durations t));
  Printf.printf "wait for grant: %s\n" (Stats.summary (Lock.wait_times t));
  Printf.printf "messages: %d\n" (Lock.messages_sent t);
  print_checks
    [
      ("mutual-exclusion", Lock.check_mutual_exclusion t);
      ("agreement", Lock.check_agreement t);
      ("liveness", Lock.check_liveness t ~expected_cycles:cycles);
    ]

let lock_cmd =
  let members =
    Arg.(value & opt int 4 & info [ "members" ] ~docv:"N" ~doc:"Group size.")
  in
  let cycles =
    Arg.(value & opt int 5 & info [ "cycles" ] ~docv:"S"
           ~doc:"Arbitration cycles to run.")
  in
  let hold =
    Arg.(value & opt float 1.5 & info [ "hold" ] ~docv:"MS"
           ~doc:"Mean resource hold time (exponential).")
  in
  Cmd.v
    (Cmd.info "lock"
       ~doc:"Decentralized LOCK/TFR arbitration over total order (\xc2\xa76.2)")
    Term.(const lock $ seed $ sigma $ members $ cycles $ hold)

(* --- names: the \xc2\xa75.2 name service --- *)

let names seed sigma servers ops update_frac total_order =
  let engine = Engine.create ~seed () in
  let mode = if total_order then Ns.Total_order else Ns.App_check in
  let t = Ns.create engine ~servers ~mode ~latency:(latency_of sigma) () in
  let rng = Engine.fork_rng engine in
  let keys = [| "a"; "b"; "c"; "d" |] in
  for i = 0 to ops - 1 do
    let src = i mod servers in
    let key = Rng.pick rng keys in
    let upd = Rng.bernoulli rng update_frac in
    Engine.schedule_at engine ~time:(float_of_int i *. 0.8) (fun () ->
        if upd then Ns.update t ~src ~key (Printf.sprintf "v%d" i)
        else Ns.query t ~src ~key)
  done;
  Engine.run engine;
  Printf.printf "servers=%d ops=%d update-frac=%.2f mode=%s seed=%d\n" servers
    ops update_frac
    (if total_order then "total-order" else "app-check")
    seed;
  Printf.printf "updates=%d queries=%d answers=%d discarded=%d (%.1f%%)\n"
    (Ns.updates_issued t) (Ns.queries_issued t)
    (List.length (Ns.answers t))
    (Ns.answers_discarded t)
    (100.0 *. Ns.discard_fraction t);
  Printf.printf "answer latency: %s\n" (Stats.summary (Ns.answer_latency t));
  print_checks
    [
      ("valid-answers-agree", Ns.valid_answers_agree t);
      ( "final-registries-agree",
        (* expected to fail sometimes in app-check mode; informational *)
        Ns.final_states_agree t || mode = Ns.App_check );
    ]

let names_cmd =
  let servers =
    Arg.(value & opt int 4 & info [ "servers" ] ~docv:"N" ~doc:"Name servers.")
  in
  let ops =
    Arg.(value & opt int 200 & info [ "ops" ] ~docv:"OPS" ~doc:"Operations.")
  in
  let update_frac =
    Arg.(value & opt float 0.2 & info [ "update-frac" ] ~docv:"F"
           ~doc:"Fraction of operations that are updates.")
  in
  let total_order =
    Arg.(value & flag & info [ "total-order" ]
           ~doc:"Use the ASend sequencer instead of context checks.")
  in
  Cmd.v
    (Cmd.info "names" ~doc:"Spontaneous-traffic name service (\xc2\xa75.2)")
    Term.(const names $ seed $ sigma $ servers $ ops $ update_frac $ total_order)

(* --- cards: the \xc2\xa75.1 game --- *)

let cards seed sigma players rounds relax think =
  let engine = Engine.create ~seed () in
  let mode =
    if relax then Cards.Relaxed (fun ~round:_ ~player -> player / 2)
    else Cards.Strict_turns
  in
  let t =
    Cards.create engine ~players ~mode ~latency:(latency_of sigma)
      ~think:(Latency.exponential ~mean:think ()) ()
  in
  Cards.start t ~rounds;
  Engine.run engine;
  Printf.printf "players=%d rounds=%d mode=%s seed=%d\n" players rounds
    (if relax then "relaxed (k=l/2)" else "strict turns")
    seed;
  Printf.printf "rounds completed: %d\n" (Cards.rounds_completed t);
  Printf.printf "round duration: %s\n" (Stats.summary (Cards.round_durations t));
  Printf.printf "messages: %d\n" (Cards.messages_sent t);
  print_checks
    [
      ("causal-order", Cards.check_causal_order t);
      ("tables-agree", Cards.check_tables_agree t);
    ]

let cards_cmd =
  let players =
    Arg.(value & opt int 6 & info [ "players" ] ~docv:"N" ~doc:"Players.")
  in
  let rounds =
    Arg.(value & opt int 5 & info [ "rounds" ] ~docv:"R" ~doc:"Rounds.")
  in
  let relax =
    Arg.(value & flag & info [ "relax" ]
           ~doc:"Relaxed causal turn order (player l waits for player l/2) \
                 instead of strict turns.")
  in
  let think =
    Arg.(value & opt float 2.0 & info [ "think" ] ~docv:"MS"
           ~doc:"Mean think time (exponential).")
  in
  Cmd.v
    (Cmd.info "cards" ~doc:"Multiplayer card game with relaxed turns (\xc2\xa75.1)")
    Term.(const cards $ seed $ sigma $ players $ rounds $ relax $ think)

(* --- pages: shared page travelling with the lock --- *)

let pages seed sigma members cycles =
  let module Page = Causalb_protocols.Page_service in
  let engine = Engine.create ~seed () in
  let mutate ~member ~page:(p : Page.page) =
    let stamp = Printf.sprintf "<%d@v%d>" member (p.Page.version + 1) in
    if p.Page.data = "" then stamp else p.Page.data ^ stamp
  in
  let t =
    Page.create engine ~members ~mutate ~latency:(latency_of sigma) ()
  in
  Page.start t ~cycles;
  Engine.run engine;
  Printf.printf "members=%d cycles=%d seed=%d\n" members cycles seed;
  List.iter
    (fun (v, w) -> Printf.printf "  v%-3d by member %d\n" v w)
    (Page.writes t);
  let final = Page.page_at t 0 in
  Printf.printf "final version: %d  messages: %d\n" final.Page.version
    (Page.messages_sent t);
  print_checks
    [
      ( "no-lost-updates",
        Page.check_no_lost_updates t ~expected_writes:(members * cycles) );
      ("copies-converge", Page.check_copies_converge t);
      ("versions-monotone", Page.check_versions_monotone t);
    ]

let pages_cmd =
  let members =
    Arg.(value & opt int 3 & info [ "members" ] ~docv:"N" ~doc:"Group size.")
  in
  let cycles =
    Arg.(value & opt int 3 & info [ "cycles" ] ~docv:"S" ~doc:"Cycles.")
  in
  Cmd.v
    (Cmd.info "pages" ~doc:"Shared page moving with the arbitration lock (\xc2\xa76.2)")
    Term.(const pages $ seed $ sigma $ members $ cycles)

(* --- dsm: the causal-memory baseline of ref [5] --- *)

let dsm seed sigma nodes writes =
  let module Cmem = Causalb_protocols.Causal_memory in
  let engine = Engine.create ~seed () in
  let m = Cmem.create engine ~nodes ~latency:(latency_of sigma) () in
  let rng = Engine.fork_rng engine in
  let vars = [| "x"; "y"; "z" |] in
  for i = 0 to writes - 1 do
    let var = Rng.pick rng vars in
    Engine.schedule_at engine ~time:(float_of_int i *. 0.5) (fun () ->
        Cmem.write m ~node:(i mod nodes) ~var i)
  done;
  Engine.run engine;
  Printf.printf "nodes=%d writes=%d seed=%d\n" nodes writes seed;
  Array.iter
    (fun var ->
      Printf.printf "  %s: %s  (agree: %b)\n" var
        (String.concat " / "
           (List.init nodes (fun n ->
                match Cmem.read m ~node:n ~var with
                | Some v -> string_of_int v
                | None -> "-")))
        (Cmem.nodes_agree_on m ~var))
    vars;
  Printf.printf "divergent variables: %d of %d\n"
    (List.length (Cmem.divergent_vars m))
    (Array.length vars);
  print_checks
    [
      ("causal-application", Cmem.check_causal_application m);
      ("per-writer-order", Cmem.check_per_writer_order m);
    ]

let dsm_cmd =
  let nodes =
    Arg.(value & opt int 4 & info [ "nodes" ] ~docv:"N" ~doc:"Nodes.")
  in
  let writes =
    Arg.(value & opt int 60 & info [ "writes" ] ~docv:"W" ~doc:"Writes.")
  in
  Cmd.v
    (Cmd.info "dsm"
       ~doc:"Causal distributed shared memory baseline (paper ref [5])")
    Term.(const dsm $ seed $ sigma $ nodes $ writes)

(* --- recovery: reliable causal broadcast over a lossy link --- *)

let recovery seed sigma nodes ops drop gc =
  let engine = Engine.create ~seed () in
  let net =
    Net.create engine ~nodes ~latency:(latency_of sigma)
      ~fault:(Causalb_net.Fault.make ~drop_prob:drop ())
      ()
  in
  let g = Causalb_core.Rgroup.create net () in
  Causalb_core.Rgroup.enable_heartbeat ~gc g ~period:15.0
    ~until:(float_of_int ops +. 2_000.0);
  let prev = ref Dep.null in
  for i = 0 to ops - 1 do
    Engine.schedule_at engine ~time:(float_of_int i *. 1.0) (fun () ->
        let dep = if i mod 3 = 0 then !prev else Dep.null in
        let lbl = Causalb_core.Rgroup.osend g ~src:(i mod nodes) ~dep i in
        if i mod 3 = 0 then prev := Dep.after lbl)
  done;
  Engine.run engine;
  let module Rg = Causalb_core.Rgroup in
  Printf.printf "nodes=%d ops=%d drop=%.2f gc=%b seed=%d\n" nodes ops drop gc
    seed;
  List.iteri
    (fun n o -> Printf.printf "  node %d delivered %d/%d\n" n (List.length o) ops)
    (Rg.all_delivered_orders g);
  Printf.printf "nacks=%d repairs=%d summaries=%d pruned=%d stash peak=%d\n"
    (Rg.nacks_sent g) (Rg.repairs_sent g) (Rg.summaries_sent g) (Rg.pruned g)
    (Rg.stash_peak g);
  let complete =
    List.for_all
      (fun o -> List.length o = ops)
      (Rg.all_delivered_orders g)
  in
  print_checks [ ("complete-delivery", complete) ]

let recovery_cmd =
  let nodes =
    Arg.(value & opt int 4 & info [ "nodes" ] ~docv:"N" ~doc:"Group size.")
  in
  let ops =
    Arg.(value & opt int 200 & info [ "ops" ] ~docv:"OPS" ~doc:"Messages.")
  in
  let drop =
    Arg.(value & opt float 0.2 & info [ "drop" ] ~docv:"P"
           ~doc:"Per-copy loss probability.")
  in
  let gc =
    Arg.(value & flag & info [ "gc" ]
           ~doc:"Enable stability-based stash garbage collection.")
  in
  Cmd.v
    (Cmd.info "recovery"
       ~doc:"Reliable causal broadcast (NACK/repair/heartbeat) over loss")
    Term.(const recovery $ seed $ sigma $ nodes $ ops $ drop $ gc)

(* --- membership: virtually synchronous views --- *)

let membership seed sigma =
  let module Vgroup = Causalb_core.Vgroup in
  let engine = Engine.create ~seed () in
  let net = Net.create engine ~nodes:5 ~latency:(latency_of sigma) ~fifo:false () in
  let logs = Array.make 5 [] in
  let g =
    Vgroup.create net ~initial:[ 0; 1 ]
      ~on_deliver:(fun ~node ~vid:_ ~time:_ msg ->
        logs.(node) <- Causalb_core.Message.payload msg :: logs.(node))
      ~on_view:(fun ~node v ->
        Printf.printf "[%7.2f ms] node %d installs view %d {%s}\n"
          (Engine.now engine) node v.Vgroup.vid
          (String.concat "," (List.map string_of_int v.Vgroup.members)))
      ~get_state:(fun ~node -> logs.(node))
      ~set_state:(fun ~node s -> logs.(node) <- s)
      ()
  in
  for i = 0 to 29 do
    Engine.schedule_at engine ~time:(float_of_int i *. 1.5) (fun () ->
        let src = i mod 5 in
        if Vgroup.is_member g src then
          Vgroup.bcast g ~src (Printf.sprintf "m%d" i))
  done;
  Engine.schedule_at engine ~time:10.0 (fun () -> Vgroup.join g ~node:2);
  Engine.schedule_at engine ~time:25.0 (fun () -> Vgroup.join g ~node:3);
  Engine.schedule_at engine ~time:38.0 (fun () -> Vgroup.leave g ~node:1);
  Engine.run engine;
  List.iteri
    (fun n log ->
      Printf.printf "node %d: %d messages applied, member=%b\n" n
        (List.length log) (Vgroup.is_member g n))
    (Array.to_list logs);
  print_checks
    [
      ("views-agree", Vgroup.check_views_agree g);
      ("virtual-synchrony", Vgroup.check_virtual_synchrony g);
    ]

let membership_cmd =
  Cmd.v
    (Cmd.info "membership"
       ~doc:"Dynamic group membership with virtually synchronous views")
    Term.(const membership $ seed $ sigma)

(* --- scenario: the Fig. 2 walkthrough with a full trace --- *)

let scenario seed sigma =
  let engine = Engine.create ~seed () in
  let trace = Trace.create () in
  let net =
    Net.create engine ~nodes:3 ~latency:(latency_of sigma) ~fifo:false ~trace ()
  in
  let group = Group.create net ~trace () in
  let mk = Group.osend group ~src:2 ~name:"mk" ~dep:Dep.null "mk" in
  Engine.run engine;
  let mi = Group.osend group ~src:0 ~name:"mi" ~dep:(Dep.after mk) "mi" in
  let mi' = Group.osend group ~src:1 ~name:"mi2" ~dep:(Dep.after mk) "mi2" in
  Engine.run engine;
  ignore (Group.osend group ~src:0 ~name:"mj" ~dep:(Dep.after_all [ mi; mi' ]) "mj");
  Engine.run engine;
  Format.printf "Fig. 2 scenario trace (seed=%d sigma=%.2f):@.%a@." seed sigma
    Trace.pp trace;
  List.iteri
    (fun node order ->
      Printf.printf "member %d delivered: %s\n" node
        (String.concat " -> " (List.map Label.to_string order)))
    (Group.all_delivered_orders group);
  0

let scenario_cmd =
  Cmd.v
    (Cmd.info "scenario" ~doc:"Fig. 2 walkthrough with a full message trace")
    Term.(const scenario $ seed $ sigma)

(* --- infer: mine the ordering specification from observed runs --- *)

let infer seed sigma runs =
  let module Infer = Causalb_graph.Infer in
  let module Depgraph = Causalb_graph.Depgraph in
  (* ground truth: the §6.1 cycle shape  nc0 -> ||{c1 c2 c3} -> nc4 *)
  let run_once seed =
    let engine = Engine.create ~seed () in
    let net =
      Net.create engine ~nodes:3 ~latency:(latency_of sigma) ~fifo:false ()
    in
    let group = Group.create net () in
    let nc0 = Group.osend group ~src:0 ~name:"nc0" ~dep:Dep.null "nc0" in
    let cs =
      List.init 3 (fun i ->
          Group.osend group ~src:(i mod 3)
            ~name:(Printf.sprintf "c%d" (i + 1))
            ~dep:(Dep.after nc0) "c")
    in
    ignore
      (Group.osend group ~src:0 ~name:"nc4" ~dep:(Dep.after_all cs) "nc4");
    Engine.run engine;
    (Group.all_delivered_orders group, Causalb_core.Osend.graph (Group.member group 0))
  in
  let observations = ref [] in
  let truth = ref None in
  for r = 0 to runs - 1 do
    let orders, g = run_once (seed + r) in
    observations := orders @ !observations;
    if !truth = None then truth := Some g
  done;
  let truth = Option.get !truth in
  let inferred = Infer.infer !observations in
  Printf.printf
    "mined ordering specification from %d observations (%d runs x 3 members):\n"
    (List.length !observations) runs;
  List.iter
    (fun (lbl, dep) ->
      Format.printf "  OSend(%a, G, %a)@." Causalb_graph.Label.pp lbl
        Causalb_graph.Dep.pp dep)
    (Infer.spec inferred);
  Printf.printf "sound (contains the true relation): %b\n"
    (Infer.over_approximation ~truth inferred);
  Printf.printf "exact (equals the true relation):   %b\n"
    (Infer.exact ~truth inferred);
  if Infer.exact ~truth inferred then 0 else 0

let infer_cmd =
  let runs =
    Arg.(value & opt int 4 & info [ "runs" ] ~docv:"R"
           ~doc:"Independent executions to observe.")
  in
  Cmd.v
    (Cmd.info "infer"
       ~doc:"Mine the Occurs_After specification from observed executions \
             (\xc2\xa73.2)")
    Term.(const infer $ seed $ sigma $ runs)

(* --- exp: the experiment sweep, optionally parallel --- *)

module Registry = Causalb_bench.Registry
module Runner = Causalb_bench.Runner
module Pool = Causalb_harness.Pool

let jobs_arg =
  let doc =
    "Worker domains for the sweep.  1 (the default) runs in the calling \
     domain; N > 1 spreads the work over up to N domains, clamped to \
     the machine's cores (OCaml 5; on 4.14 every N runs sequentially).  \
     The output is byte-identical whatever N."
  in
  Arg.(value & opt int 1 & info [ "j"; "jobs" ] ~docv:"N" ~doc)

let list_arg =
  let doc = "List the experiment registry (id, kind, shard count) and exit." in
  Arg.(value & flag & info [ "list" ] ~doc)

let print_registry () =
  List.iter
    (fun (e : Registry.experiment) ->
      Printf.printf "%-8s %-13s %2d shard(s)  %s\n" e.id
        (match e.kind with
        | Registry.Deterministic -> "deterministic"
        | Registry.Timing -> "timing")
        (List.length e.parts) e.descr)
    Registry.all;
  0

let resolve_experiments ids ~default =
  match ids with
  | [] -> Ok default
  | ids ->
    let unknown = List.filter (fun id -> Registry.find id = None) ids in
    if unknown <> [] then Error unknown
    else Ok (List.filter_map Registry.find ids)

let report_unknown unknown =
  Printf.eprintf "unknown experiment(s): %s\navailable:\n"
    (String.concat ", " unknown);
  List.iter
    (fun (e : Registry.experiment) ->
      Printf.eprintf "  %-8s %s\n" e.id e.descr)
    Registry.all;
  2

let summarise_to_stderr (o : Runner.outcome) =
  Printf.eprintf "# sweep: %d task(s), %d job(s), %.0f ms wall\n"
    (List.length o.report.results)
    o.report.jobs o.report.wall_ms;
  List.iter
    (fun (r : Pool.result) ->
      Printf.eprintf "#   %-14s %8.1f ms  %12.0f minor words  %s\n" r.name
        r.wall_ms r.gc_minor_words
        (match r.status with Pool.Done -> "ok" | Pool.Failed m -> "FAILED: " ^ m))
    o.report.results;
  match o.report.failures with
  | [] -> 0
  | names ->
    Printf.eprintf "# FAILED experiment task(s): %s\n" (String.concat ", " names);
    1

let exp_run jobs list seed ids =
  (* With no ids, run the byte-reproducible experiments: the timing
     bench ([micro]) prints measured durations, so it only runs when
     asked for by name. *)
  if list then print_registry ()
  else
    let default =
      List.filter
        (fun (e : Registry.experiment) -> e.kind = Registry.Deterministic)
        Registry.all
    in
    match resolve_experiments ids ~default with
    | Error unknown -> report_unknown unknown
    | Ok exps ->
      let o = Runner.run ~jobs ~base_seed:seed exps in
      print_string o.stdout_text;
      print_endline "\nall requested experiments completed.";
      summarise_to_stderr o

let exp_cmd =
  let ids =
    Arg.(value & pos_all string [] & info [] ~docv:"ID"
           ~doc:"Experiment ids (default: every deterministic experiment).")
  in
  Cmd.v
    (Cmd.info "exp"
       ~doc:"Run registered experiments, optionally spread over worker \
             domains (-j); stdout is byte-identical for every -j")
    Term.(const exp_run $ jobs_arg $ list_arg $ seed $ ids)

(* --- hunt: the randomized fault campaign --- *)

module Campaign = Causalb_harness.Campaign

let hunt seed jobs seeds buggify churn json self_test =
  if self_test then
    if Campaign.self_test ~base_seed:seed () then 0 else 1
  else begin
    let r =
      Campaign.run ~jobs ~base_seed:seed ~buggify ~churn ~seeds ()
    in
    Campaign.print_report ~json r;
    Printf.eprintf "# hunt: %d case(s), %d job(s), %.0f ms wall\n"
      (List.length r.Campaign.verdicts) r.Campaign.jobs r.Campaign.wall_ms;
    if Campaign.failures r = [] then 0 else 1
  end

let hunt_cmd =
  let seeds =
    Arg.(value & opt int 64 & info [ "seeds" ] ~docv:"N"
           ~doc:"Cases to generate and run (compositions cycle, so any \
                 N >= 8 covers every shipped stack).")
  in
  let buggify =
    Arg.(value & flag & info [ "buggify" ]
           ~doc:"Aggressive mode: more fault phases, higher loss and \
                 duplication probabilities, three-way partitions.")
  in
  let churn =
    Arg.(value & flag & info [ "churn" ]
           ~doc:"Membership campaign: every case runs the PC-broadcast \
                 stack with 1-3 timed join/leave events appended to the \
                 fault schedule, audited by the founders-scoped churn \
                 oracle.")
  in
  let json =
    Arg.(value & flag & info [ "json" ]
           ~doc:"One JSON verdict line per case plus a summary object, \
                 instead of the human report.")
  in
  let self_test =
    Arg.(value & flag & info [ "self-test" ]
           ~doc:"Plant a known ordering violation in each composition's \
                 trace, assert the campaign finds it, and shrink the \
                 find to a minimal repro.  Exit 0 iff detection and \
                 shrinking both work.")
  in
  Cmd.v
    (Cmd.info "hunt"
       ~doc:"Randomized fault campaign: seed \xc3\x97 workload \xc3\x97 nemesis \
             cases over every stack composition, oracle-checked, with \
             failures shrunk to minimal deterministic repros")
    Term.(const hunt $ seed $ jobs_arg $ seeds $ buggify $ churn $ json
          $ self_test)

let main_cmd =
  let doc =
    "causal broadcasting and consistency of distributed shared data \
     (Ravindran & Shah, ICDCS 1994) — protocol simulations"
  in
  Cmd.group
    (Cmd.info "causalb" ~version:"1.0.0" ~doc)
    [
      counter_cmd;
      lock_cmd;
      names_cmd;
      cards_cmd;
      scenario_cmd;
      recovery_cmd;
      membership_cmd;
      pages_cmd;
      dsm_cmd;
      infer_cmd;
      exp_cmd;
      hunt_cmd;
    ]

let () = exit (Cmd.eval' main_cmd)
