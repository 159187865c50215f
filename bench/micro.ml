(* Bechamel micro-benchmarks: CPU cost of the hot paths that every
   experiment exercises — one Test.make per experiment family, so each
   table's underlying mechanism has a measured cost.

   These measure engine/protocol code in isolation (no simulated network
   waiting), i.e. the per-message CPU overhead a deployment would pay. *)

module Label = Causalb_graph.Label
module Dep = Causalb_graph.Dep
module Depgraph = Causalb_graph.Depgraph
module Message = Causalb_core.Message
module Osend = Causalb_core.Osend
module Bss = Causalb_core.Bss
module Asend = Causalb_core.Asend
module Vc = Causalb_clock.Vector_clock
module Heap = Causalb_util.Heap
module Dt = Causalb_data.Datatypes
module Replica = Causalb_data.Replica
open Bechamel
open Toolkit

let lbl i = Label.make ~origin:(i mod 8) ~seq:(i / 8) ()

(* T1/F2 family: causal delivery through the OSend engine.  Each run
   receives a fan of 64 messages (1 root, 62 concurrent, 1 closing). *)
let bench_osend_fan =
  Test.make ~name:"t1.osend-deliver-fan64"
    (Staged.stage (fun () ->
         let m = Osend.create ~id:0 () in
         let root = lbl 0 in
         Osend.receive m (Message.make ~label:root ~sender:0 ~dep:Dep.null 0);
         let body = List.init 62 (fun i -> lbl (i + 1)) in
         List.iter
           (fun l ->
             Osend.receive m
               (Message.make ~label:l ~sender:(Label.origin l)
                  ~dep:(Dep.after root) 0))
           body;
         Osend.receive m
           (Message.make ~label:(lbl 63) ~sender:7 ~dep:(Dep.after_all body) 0)))

(* T6 family: BSS vector-clock delivery of 64 messages from 8 senders. *)
let bench_bss_64 =
  Test.make ~name:"t6.bss-deliver-64"
    (Staged.stage (fun () ->
         let m = Bss.member ~id:0 ~group_size:8 () in
         for i = 0 to 63 do
           let sender = i mod 8 in
           let stamp = Array.make 8 0 in
           (* stamp: sender's (i/8 + 1)-th message, nothing else seen *)
           stamp.(sender) <- (i / 8) + 1;
           Bss.receive m
             {
               Bss.sender;
               stamp = Vc.of_array stamp;
               tag = "";
               payload = 0;
             }
         done))

(* T1 family: deterministic-merge release of one 64-message bracket. *)
let bench_merge_batch =
  Test.make ~name:"t1.asend-merge-batch64"
    (Staged.stage (fun () ->
         let m = Asend.Merge.create ~is_sync:(fun e -> Message.payload e) () in
         for i = 0 to 62 do
           Asend.Merge.on_causal_deliver m
             (Message.make ~label:(lbl i) ~sender:0 ~dep:Dep.null false)
         done;
         Asend.Merge.on_causal_deliver m
           (Message.make ~label:(lbl 63) ~sender:0 ~dep:Dep.null true)))

(* T3 family: graph maintenance — build a 128-node dependency graph and
   answer a happens-before query. *)
let bench_graph_build =
  Test.make ~name:"t3.depgraph-build128"
    (Staged.stage (fun () ->
         let g = Depgraph.create () in
         Depgraph.add g (lbl 0) ~dep:Dep.null;
         for i = 1 to 127 do
           Depgraph.add g (lbl i) ~dep:(Dep.after (lbl (i / 2)))
         done;
         ignore (Depgraph.happens_before g (lbl 0) (lbl 127))))

(* T2 family: replica applying a 20-commutative window + sync. *)
let bench_replica_window =
  Test.make ~name:"t2.replica-window-f20"
    (Staged.stage (fun () ->
         let r = Replica.create ~id:0 ~spec:Dt.Int_register.spec () in
         for i = 0 to 19 do
           Replica.on_deliver r
             (Message.make ~label:(lbl i) ~sender:0 ~dep:Dep.null
                (Dt.Int_register.Inc 1))
         done;
         Replica.on_deliver r
           (Message.make ~label:(lbl 20) ~sender:0 ~dep:Dep.null
              Dt.Int_register.Read)))

(* T5 family: the simulator's event queue itself. *)
let bench_heap =
  Test.make ~name:"t5.event-heap-256"
    (Staged.stage (fun () ->
         let h = Heap.create ~cmp:Float.compare () in
         for i = 0 to 255 do
           Heap.push h (float_of_int ((i * 7919) mod 997))
         done;
         while not (Heap.is_empty h) do
           ignore (Heap.pop h)
         done))

(* T4 family: vector clock merge+compare, the per-message cost of the
   inferred-causality baseline. *)
let bench_vclock =
  Test.make ~name:"t4.vclock-merge-compare-n16"
    (Staged.stage
       (let a = Vc.of_array (Array.init 16 (fun i -> i * 3)) in
        let b = Vc.of_array (Array.init 16 (fun i -> 48 - (i * 3))) in
        fun () ->
          ignore (Vc.merge a b);
          ignore (Vc.compare_causal a b)))

(* T1 family: the decentralised timestamp orderer's delivery path — one
   member digesting 32 data envelopes plus the matching acks. *)
let bench_timestamp_member =
  Test.make ~name:"t1.timestamp-deliver-32x4"
    (Staged.stage (fun () ->
         let e = Causalb_sim.Engine.create () in
         let net = Causalb_net.Net.create e ~nodes:4 () in
         let ts = Asend.Timestamp.create net () in
         for i = 0 to 31 do
           Asend.Timestamp.bcast ts ~src:(i mod 4) ~tag:"" i
         done;
         Causalb_sim.Engine.run e))

(* §3.2 family: mining the ordering relation from 6 observations of a
   24-message execution. *)
let bench_infer =
  let g = Depgraph.create () in
  let () =
    Depgraph.add g (lbl 0) ~dep:Dep.null;
    for i = 1 to 23 do
      Depgraph.add g (lbl i) ~dep:(Dep.after (lbl (i / 3)))
    done
  in
  let observations = Depgraph.linearizations ~limit:6 g in
  Test.make ~name:"t3.infer-24msgs-6obs"
    (Staged.stage (fun () -> ignore (Causalb_graph.Infer.infer observations)))

(* §4.2 family: validating + ordering a 64-step workflow DAG. *)
let bench_workflow_graph =
  let steps =
    List.init 64 (fun i ->
        Causalb_data.Workflow.step
          (Printf.sprintf "s%d" i)
          ~src:(i mod 4)
          ~after:(if i = 0 then [] else [ Printf.sprintf "s%d" (i / 2) ])
          i)
  in
  Test.make ~name:"t2.workflow-graph64"
    (Staged.stage (fun () -> ignore (Causalb_data.Workflow.graph_of steps)))

(* scale family: the wakeup-index hot paths at a size where the seed's
   pool sweep was already measurably quadratic (the committed
   BENCH_PR3.json snapshot has the 64/512/4096 ladder against the
   frozen seed engines). *)
let bench_scale_osend_wide =
  let children =
    Array.init 256 (fun i ->
        Message.make ~label:(lbl i) ~sender:0
          ~dep:(Dep.after (Label.make ~origin:9 ~seq:0 ())) 0)
  in
  let independent =
    Array.init 256 (fun i ->
        Message.make ~label:(lbl (256 + i)) ~sender:1 ~dep:Dep.null 0)
  in
  let root =
    Message.make ~label:(Label.make ~origin:9 ~seq:0 ()) ~sender:2
      ~dep:Dep.null 0
  in
  Test.make ~name:"scale.osend-wide512"
    (Staged.stage (fun () ->
         let m = Osend.create ~id:0 () in
         Array.iter (Osend.receive m) children;
         Array.iter (Osend.receive m) independent;
         Osend.receive m root))

let bench_scale_osend_chain =
  let msgs =
    Array.init 512 (fun i ->
        Message.make ~label:(lbl i) ~sender:0
          ~dep:(if i = 0 then Dep.null else Dep.after (lbl (i - 1)))
          0)
  in
  Test.make ~name:"scale.osend-chain512"
    (Staged.stage (fun () ->
         let m = Osend.create ~id:0 () in
         for i = 511 downto 0 do
           Osend.receive m msgs.(i)
         done))

let bench_scale_bss_chain =
  let envs =
    Array.init 512 (fun i ->
        {
          Bss.sender = 1;
          stamp = Vc.of_array [| 0; i + 1 |];
          tag = "";
          payload = 0;
        })
  in
  Test.make ~name:"scale.bss-chain512"
    (Staged.stage (fun () ->
         let m = Bss.member ~id:0 ~group_size:2 () in
         for i = 511 downto 0 do
           Bss.receive m envs.(i)
         done))

let bench_scale_counted_batch =
  let msgs =
    Array.init 512 (fun i ->
        Message.make ~label:(lbl i) ~sender:(i mod 8) ~dep:Dep.null i)
  in
  Test.make ~name:"scale.counted-batch512"
    (Staged.stage (fun () ->
         let m = Asend.Counted.create ~batch_size:512 () in
         Array.iter (Asend.Counted.on_causal_deliver m) msgs))

let all_tests =
  [
    bench_osend_fan;
    bench_bss_64;
    bench_merge_batch;
    bench_graph_build;
    bench_replica_window;
    bench_heap;
    bench_vclock;
    bench_timestamp_member;
    bench_infer;
    bench_workflow_graph;
    bench_scale_osend_wide;
    bench_scale_osend_chain;
    bench_scale_bss_chain;
    bench_scale_counted_batch;
  ]

let run () =
  Causalb_util.Printer.line
    "\n================ micro-benchmarks (bechamel) ================";
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  (* CI smoke runs shrink the per-test budget via CAUSALB_BENCH_QUOTA_MS
     (milliseconds) *)
  let quota_s =
    match Sys.getenv_opt "CAUSALB_BENCH_QUOTA_MS" with
    | Some s -> ( try max 1 (int_of_string s) with _ -> 500) |> fun ms ->
        float_of_int ms /. 1000.0
    | None -> 0.5
  in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second quota_s) ~kde:(Some 1000) ()
  in
  let grouped = Test.make_grouped ~name:"causalb" all_tests in
  let raw = Benchmark.all cfg instances grouped in
  let results =
    List.map (fun instance -> Analyze.all ols instance raw) instances
  in
  let merged = Analyze.merge ols instances results in
  let clock = Hashtbl.find merged (Measure.label Instance.monotonic_clock) in
  let rows =
    Hashtbl.fold
      (fun name est acc ->
        let ns =
          match Analyze.OLS.estimates est with
          | Some (x :: _) -> x
          | Some [] | None -> nan
        in
        (name, ns) :: acc)
      clock []
    |> List.sort compare
  in
  let t =
    Causalb_util.Table.create ~title:"per-iteration cost (monotonic clock)"
      ~columns:[ "benchmark"; "ns/run" ]
  in
  List.iter
    (fun (name, ns) ->
      Causalb_util.Table.add_row t
        [ name; Causalb_util.Table.fmt_float ~digits:0 ns ])
    rows;
  Causalb_util.Table.print t
