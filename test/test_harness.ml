(* Tests for the experiment harness drivers: the quantitative claims in
   EXPERIMENTS.md rest on these being correct and deterministic. *)

module Drivers = Causalb_harness.Drivers
module Stats = Causalb_util.Stats
module Engine = Causalb_sim.Engine
module Latency = Causalb_sim.Latency
module Service = Causalb_data.Service
module Replica = Causalb_data.Replica
module Dt = Causalb_data.Datatypes
module Group = Causalb_core.Group
module Osend = Causalb_core.Osend
module Depgraph = Causalb_graph.Depgraph

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let small = { Drivers.ops = 60; spacing = 0.5; mix = Drivers.Random 0.9 }

let all_deliveries = (small.Drivers.ops + 1) * 4

let test_causal_driver_sound () =
  let r = Drivers.run_stack ~seed:5 ~replicas:4 Drivers.Osend_stack small in
  check "checks ok" true r.Drivers.checks_ok;
  (* ops+1 submissions × 4 replicas deliveries *)
  check_int "delivery samples" all_deliveries (Stats.count r.Drivers.delivery);
  (* the appended closing sync puts every op inside a stable point *)
  check_int "stability samples" all_deliveries
    (Stats.count r.Drivers.stability);
  check "cycles closed" true (r.Drivers.cycles > 0);
  check "positive makespan" true (r.Drivers.sim_time > 0.0)

let test_merge_driver_sound () =
  let r = Drivers.run_stack ~seed:5 ~replicas:4 Drivers.Osend_merge small in
  check "identical total orders" true r.Drivers.checks_ok;
  check_int "all released everywhere" all_deliveries
    (Stats.count r.Drivers.delivery)

let test_sequencer_driver_sound () =
  let r = Drivers.run_stack ~seed:5 ~replicas:4 Drivers.Osend_sequencer small in
  check "identical orders" true r.Drivers.checks_ok;
  check_int "all delivered" all_deliveries (Stats.count r.Drivers.delivery)

let test_timestamp_driver_sound () =
  let r = Drivers.run_timestamp ~seed:5 ~replicas:4 small in
  check "identical orders" true r.Drivers.checks_ok;
  check_int "all delivered" all_deliveries (Stats.count r.Drivers.delivery)

let test_drivers_deterministic () =
  let run seed = Drivers.run_stack ~seed ~replicas:3 Drivers.Osend_stack small in
  let a = run 9 and b = run 9 in
  check "same mean" true
    (Stats.mean a.Drivers.delivery = Stats.mean b.Drivers.delivery);
  check "same messages" true (a.Drivers.messages = b.Drivers.messages);
  let c = run 10 in
  check "different seed differs" true
    (Stats.mean a.Drivers.delivery <> Stats.mean c.Drivers.delivery)

let test_headline_ordering_holds () =
  (* the T1 headline on a small instance: causal < both total orders *)
  let m spec =
    Stats.mean (Drivers.run_stack ~seed:11 ~replicas:5 spec small).Drivers.delivery
  in
  let causal = m Drivers.Osend_stack in
  check "causal < sequencer" true (causal < m Drivers.Osend_sequencer);
  check "causal < merge" true (causal < m Drivers.Osend_merge)

let test_fixed_window_cycles () =
  (* Fixed_window k: ops/(k+1) syncs (+ the appended closer) *)
  let w = { Drivers.ops = 60; spacing = 0.5; mix = Drivers.Fixed_window 5 } in
  let r = Drivers.run_stack ~seed:13 ~replicas:3 Drivers.Osend_stack w in
  check "checks ok" true r.Drivers.checks_ok;
  check_int "cycles = 60/6 + closer" 11 r.Drivers.cycles

let test_fixed_window_zero_is_all_sync () =
  let w = { Drivers.ops = 20; spacing = 0.5; mix = Drivers.Fixed_window 0 } in
  let r = Drivers.run_stack ~seed:15 ~replicas:3 Drivers.Osend_stack w in
  check_int "every op a stable point" 21 r.Drivers.cycles

(* --- the stable-point reference ---
   T1-T3's causal columns come from [run_stack ... Osend_stack], whose
   [checks_ok] is label-level (same delivered set).  The paper's
   stable-point protocol also promises state-level properties:
   agreement at stable points, transition-preserving windows and a
   serial witness.  Run the §6.1 protocol through [Service] on every
   configuration the tables print, assert those checks, and hold the
   stack run to the same numbers. *)

let service_run ~seed ~latency ~replicas (w : Drivers.workload) =
  let engine = Engine.create ~seed () in
  let svc =
    Service.create engine ~replicas ~spec:Dt.Int_register.spec ~latency
      ~fifo:false ()
  in
  let rng = Engine.fork_rng engine in
  List.iteri
    (fun i op ->
      Engine.schedule_at engine ~time:(float_of_int i *. w.Drivers.spacing)
        (fun () -> ignore (Service.submit svc ~src:(i mod replicas) op)))
    (Drivers.op_sequence rng w);
  Service.run svc;
  svc

let sorted s =
  let a = Stats.samples s in
  Array.sort compare a;
  a

let check_reference name ~seed ?(latency = Drivers.default_latency) ~replicas
    w =
  let svc = service_run ~seed ~latency ~replicas w in
  List.iter
    (fun (c, ok) -> check (Printf.sprintf "%s: service %s" name c) true ok)
    (Service.check svc);
  let r = Drivers.run_stack ~seed ~latency ~replicas Drivers.Osend_stack w in
  let samples = Alcotest.(check (array (float 0.0))) in
  samples (name ^ ": delivery samples")
    (sorted (Service.delivery_latency svc))
    (sorted r.Drivers.delivery);
  samples (name ^ ": stability samples")
    (sorted (Service.stability_latency svc))
    (sorted r.Drivers.stability);
  let group = Service.group svc in
  check_int (name ^ ": cycles")
    (Replica.cycles_closed (Service.replica svc 0))
    r.Drivers.cycles;
  check_int (name ^ ": edges")
    (List.length (Depgraph.edges (Osend.graph (Group.member group 0))))
    r.Drivers.edges;
  check_int (name ^ ": messages") (Service.messages_sent svc) r.Drivers.messages;
  check_int (name ^ ": buffered")
    (List.init replicas (fun n -> Osend.buffered_ever (Group.member group n))
    |> List.fold_left ( + ) 0)
    r.Drivers.buffered

let test_reference_t1 () =
  let w = { Drivers.ops = 300; spacing = 0.5; mix = Drivers.Random 0.9 } in
  List.iter
    (fun n -> check_reference (Printf.sprintf "T1 n=%d" n) ~seed:1 ~replicas:n w)
    [ 3; 5; 8; 12; 16; 24; 32 ];
  List.iter
    (fun sigma ->
      check_reference
        (Printf.sprintf "T1b sigma=%.1f" sigma)
        ~seed:2
        ~latency:(Latency.lognormal ~mu:0.5 ~sigma ())
        ~replicas:8 w)
    [ 0.2; 0.6; 1.0; 1.4 ]

let test_reference_t2 () =
  List.iter
    (fun p ->
      check_reference
        (Printf.sprintf "T2 p=%.2f" p)
        ~seed:7 ~replicas:5
        { Drivers.ops = 400; spacing = 0.5; mix = Drivers.Random p })
    [ 0.0; 0.5; 0.8; 0.9; 0.95; 0.99 ]

let test_reference_t3 () =
  List.iter
    (fun fbar ->
      check_reference
        (Printf.sprintf "T3 fbar=%d" fbar)
        ~seed:3 ~replicas:5
        { Drivers.ops = 300; spacing = 0.5; mix = Drivers.Fixed_window fbar })
    [ 0; 1; 5; 20; 50 ]

(* --- the stack driver --- *)

let windowed = { Drivers.ops = 48; spacing = 0.5; mix = Drivers.Fixed_window 5 }

(* The acceptance shape of the stack refactor: ONE workload over every
   composition, every run passing its checks and reporting the uniform
   per-layer table. *)
let test_run_stack_all_compositions_sound () =
  List.iter
    (fun spec ->
      let r = Drivers.run_stack ~seed:21 ~replicas:4 spec windowed in
      let name = Drivers.stack_spec_name spec in
      check (name ^ " checks ok") true r.Drivers.checks_ok;
      check (name ^ " has layers") true (List.length r.Drivers.layers >= 2);
      check
        (name ^ " positive makespan")
        true (r.Drivers.sim_time > 0.0))
    [
      Drivers.Fifo_only;
      Drivers.Bss_stack;
      Drivers.Psync_stack;
      Drivers.Osend_stack;
      Drivers.Osend_merge;
      Drivers.Osend_counted (windowed.Drivers.ops + 1);
      Drivers.Osend_sequencer;
    ]

(* Same seed, same causal traffic: every broadcast-based composition puts
   the identical number of copies on the wire, and the three with an
   OSend causal layer force the identical number of waits there. *)
let test_run_stack_same_wire_cost () =
  let specs =
    [
      Drivers.Fifo_only;
      Drivers.Bss_stack;
      Drivers.Osend_stack;
      Drivers.Osend_merge;
    ]
  in
  let results =
    List.map (fun s -> Drivers.run_stack ~seed:23 ~replicas:4 s windowed) specs
  in
  let msgs =
    List.map (fun (r : Drivers.stack_result) -> r.Drivers.messages) results
  in
  check "identical wire cost" true (List.for_all (( = ) (List.hd msgs)) msgs);
  let osend = Drivers.run_stack ~seed:23 ~replicas:4 Drivers.Osend_stack windowed in
  let merge = Drivers.run_stack ~seed:23 ~replicas:4 Drivers.Osend_merge windowed in
  check_int "merge adds no causal waits" osend.Drivers.buffered
    merge.Drivers.buffered

let test_run_stack_deterministic () =
  let a = Drivers.run_stack ~seed:27 ~replicas:3 Drivers.Osend_merge windowed in
  let b = Drivers.run_stack ~seed:27 ~replicas:3 Drivers.Osend_merge windowed in
  check "same mean" true
    (Stats.mean a.Drivers.delivery = Stats.mean b.Drivers.delivery);
  check_int "same messages" a.Drivers.messages b.Drivers.messages;
  check_int "same waits" a.Drivers.buffered b.Drivers.buffered

let test_run_stack_layer_accounting () =
  let r = Drivers.run_stack ~seed:29 ~replicas:4 Drivers.Osend_merge windowed in
  (match r.Drivers.layers with
  | [ transport; causal; total ] ->
    Alcotest.(check string) "bottom" "transport"
      transport.Causalb_stackbase.Metrics.name;
    Alcotest.(check string) "middle" "causal:osend"
      causal.Causalb_stackbase.Metrics.name;
    Alcotest.(check string) "top" "total:merge"
      total.Causalb_stackbase.Metrics.name;
    (* every submission reaches every replica through every layer *)
    check_int "transport delivered" ((windowed.Drivers.ops + 1) * 4)
      transport.Causalb_stackbase.Metrics.delivered;
    check_int "causal delivered" ((windowed.Drivers.ops + 1) * 4)
      causal.Causalb_stackbase.Metrics.delivered;
    check_int "total released" ((windowed.Drivers.ops + 1) * 4)
      total.Causalb_stackbase.Metrics.delivered
  | l -> Alcotest.failf "expected 3 layers, got %d" (List.length l))

(* Under a pass-through tail every causal delivery is an application
   release, so the causal layer holds one latency sample per release —
   including each sender's own copy, which Psync delivers inside
   [Stack.submit] itself. *)
let test_pass_causal_latency_samples () =
  List.iter
    (fun spec ->
      let r = Drivers.run_stack ~seed:42 ~replicas:4 spec windowed in
      match r.Drivers.layers with
      | [ _; causal ] ->
        check_int
          (Drivers.stack_spec_name spec ^ ": a causal sample per release")
          (Stats.count r.Drivers.delivery)
          (Stats.count causal.Causalb_stackbase.Metrics.latency)
      | l -> Alcotest.failf "expected 2 layers, got %d" (List.length l))
    [
      Drivers.Fifo_only;
      Drivers.Bss_stack;
      Drivers.Psync_stack;
      Drivers.Osend_stack;
      Drivers.Pc_stack;
    ]

(* --- the composition catalogue and the --spec parser --- *)

let spec =
  Alcotest.testable
    (fun ppf s -> Format.pp_print_string ppf (Drivers.stack_spec_name s))
    ( = )

let parses = Alcotest.(check (result (list spec) string))

let test_catalogue_names_parse () =
  let counted = 7 in
  let specs = Drivers.stack_specs ~counted in
  check_int "eight compositions" 8 (List.length specs);
  List.iter
    (fun s ->
      (* the counted merge's name carries its size, which the parser
         takes from [~counted] *)
      let name =
        List.hd (String.split_on_char '(' (Drivers.stack_spec_name s))
      in
      parses name (Ok [ s ]) (Drivers.parse_specs ~counted [ name ]);
      parses
        (String.uppercase_ascii name)
        (Ok [ s ])
        (Drivers.parse_specs ~counted [ String.uppercase_ascii name ]))
    specs;
  List.iter
    (fun (alias, s) ->
      parses alias (Ok [ s ]) (Drivers.parse_specs ~counted [ alias ]))
    [
      ("merge", Drivers.Osend_merge);
      ("counted", Drivers.Osend_counted counted);
      ("sequencer", Drivers.Osend_sequencer);
    ];
  parses "no --spec selects the catalogue" (Ok specs)
    (Drivers.parse_specs ~counted []);
  parses "--spec order kept"
    (Ok [ Drivers.Pc_stack; Drivers.Osend_counted counted; Drivers.Fifo_only ])
    (Drivers.parse_specs ~counted [ "pc"; "counted"; "fifo" ])

let test_unknown_spec_rejected () =
  let unknown name =
    Error
      (Printf.sprintf
         "unknown composition %S (expected \
          fifo|bss|psync|osend|merge|counted|sequencer|pc)"
         name)
  in
  parses "unknown name" (unknown "raft") (Drivers.parse_specs ~counted:5 [ "raft" ]);
  parses "sized counted name" (unknown "osend+counted(5)")
    (Drivers.parse_specs ~counted:5 [ "osend+counted(5)" ]);
  parses "the first unknown name is reported" (unknown "raft")
    (Drivers.parse_specs ~counted:5 [ "osend"; "raft"; "paxos" ])

let () =
  Alcotest.run "harness"
    [
      ( "drivers",
        [
          Alcotest.test_case "causal sound" `Quick test_causal_driver_sound;
          Alcotest.test_case "merge sound" `Quick test_merge_driver_sound;
          Alcotest.test_case "sequencer sound" `Quick test_sequencer_driver_sound;
          Alcotest.test_case "timestamp sound" `Quick test_timestamp_driver_sound;
          Alcotest.test_case "deterministic" `Quick test_drivers_deterministic;
          Alcotest.test_case "headline ordering" `Quick
            test_headline_ordering_holds;
          Alcotest.test_case "fixed window cycles" `Quick test_fixed_window_cycles;
          Alcotest.test_case "fixed window 0" `Quick
            test_fixed_window_zero_is_all_sync;
        ] );
      ( "stable-point reference",
        [
          Alcotest.test_case "T1 and T1b causal runs" `Quick test_reference_t1;
          Alcotest.test_case "T2 causal runs" `Quick test_reference_t2;
          Alcotest.test_case "T3 causal runs" `Quick test_reference_t3;
        ] );
      ( "stack driver",
        [
          Alcotest.test_case "all compositions sound" `Quick
            test_run_stack_all_compositions_sound;
          Alcotest.test_case "same wire cost" `Quick
            test_run_stack_same_wire_cost;
          Alcotest.test_case "deterministic" `Quick
            test_run_stack_deterministic;
          Alcotest.test_case "layer accounting" `Quick
            test_run_stack_layer_accounting;
          Alcotest.test_case "pass: causal latency per release" `Quick
            test_pass_causal_latency_samples;
        ] );
      ( "catalogue",
        [
          Alcotest.test_case "names and aliases parse" `Quick
            test_catalogue_names_parse;
          Alcotest.test_case "unknown name rejected" `Quick
            test_unknown_spec_rejected;
        ] );
    ]
