(* Unit tests for the discrete-event engine, latency models, and traces. *)

module Engine = Causalb_sim.Engine
module Latency = Causalb_sim.Latency
module Trace = Causalb_sim.Trace
module Rng = Causalb_util.Rng

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_float = Alcotest.(check (float 1e-9))

(* --- Engine --- *)

let test_engine_initial () =
  let e = Engine.create () in
  check_float "time 0" 0.0 (Engine.now e);
  check_int "no pending" 0 (Engine.pending e);
  check "step on empty" false (Engine.step e)

let test_engine_time_order () =
  let e = Engine.create () in
  let log = ref [] in
  Engine.schedule e ~delay:5.0 (fun () -> log := "b" :: !log);
  Engine.schedule e ~delay:1.0 (fun () -> log := "a" :: !log);
  Engine.schedule e ~delay:9.0 (fun () -> log := "c" :: !log);
  Engine.run e;
  Alcotest.(check (list string)) "fired by time" [ "a"; "b"; "c" ] (List.rev !log);
  check_float "clock at last event" 9.0 (Engine.now e)

let test_engine_fifo_ties () =
  let e = Engine.create () in
  let log = ref [] in
  for i = 1 to 5 do
    Engine.schedule e ~delay:1.0 (fun () -> log := i :: !log)
  done;
  Engine.run e;
  Alcotest.(check (list int)) "scheduling order on ties" [ 1; 2; 3; 4; 5 ]
    (List.rev !log)

let test_engine_nested_scheduling () =
  let e = Engine.create () in
  let log = ref [] in
  Engine.schedule e ~delay:1.0 (fun () ->
      log := "outer" :: !log;
      Engine.schedule e ~delay:1.0 (fun () -> log := "inner" :: !log));
  Engine.run e;
  Alcotest.(check (list string)) "cascade" [ "outer"; "inner" ] (List.rev !log);
  check_float "time" 2.0 (Engine.now e)

let test_engine_zero_delay () =
  let e = Engine.create () in
  let log = ref [] in
  Engine.schedule e ~delay:0.0 (fun () -> log := 1 :: !log);
  Engine.schedule e ~delay:0.0 (fun () -> log := 2 :: !log);
  Engine.run e;
  Alcotest.(check (list int)) "zero-delay order" [ 1; 2 ] (List.rev !log)

let test_engine_negative_delay () =
  let e = Engine.create () in
  Alcotest.check_raises "negative" (Invalid_argument "Engine.schedule: negative delay")
    (fun () -> Engine.schedule e ~delay:(-1.0) (fun () -> ()))

let test_engine_schedule_at_past () =
  let e = Engine.create () in
  Engine.schedule e ~delay:5.0 (fun () ->
      check "past rejected" true
        (try
           Engine.schedule_at e ~time:1.0 (fun () -> ());
           false
         with Invalid_argument _ -> true));
  Engine.run e

let test_engine_until () =
  let e = Engine.create () in
  let fired = ref 0 in
  List.iter
    (fun d -> Engine.schedule e ~delay:d (fun () -> incr fired))
    [ 1.0; 2.0; 3.0; 10.0 ];
  Engine.run ~until:5.0 e;
  check_int "only events <= until" 3 !fired;
  check_int "one left" 1 (Engine.pending e);
  Engine.run e;
  check_int "rest run later" 4 !fired

let test_engine_max_events () =
  let e = Engine.create () in
  for _ = 1 to 10 do
    Engine.schedule e ~delay:1.0 (fun () -> ())
  done;
  Engine.run ~max_events:4 e;
  check_int "processed" 4 (Engine.events_processed e);
  check_int "left" 6 (Engine.pending e)

let test_engine_every () =
  let e = Engine.create () in
  let ticks = ref 0 in
  Engine.every e ~period:2.0 ~until:9.0 (fun () -> incr ticks);
  Engine.run e;
  check_int "ticks at 2,4,6,8" 4 !ticks

let test_engine_determinism () =
  let run () =
    let e = Engine.create ~seed:99 () in
    let rng = Engine.fork_rng e in
    let log = ref [] in
    for i = 1 to 20 do
      Engine.schedule e ~delay:(Rng.float rng 10.0) (fun () -> log := i :: !log)
    done;
    Engine.run e;
    !log
  in
  check "identical runs" true (run () = run ())

let test_engine_fork_rng_distinct () =
  let e = Engine.create () in
  let a = Engine.fork_rng e and b = Engine.fork_rng e in
  check "distinct streams" true (Rng.int64 a <> Rng.int64 b)

(* A fired event must not stay reachable from the queue: whatever its
   callback captured (a packet, a frame, a member) would outlive the run
   for as long as the engine does. *)
let[@inline never] schedule_capturing e w =
  let big = Array.make 100_000 0 in
  Weak.set w 0 (Some big);
  Engine.schedule e ~delay:1.0 (fun () -> ignore (Sys.opaque_identity big))

let test_engine_releases_fired_callbacks () =
  let e = Engine.create () in
  let w = Weak.create 1 in
  schedule_capturing e w;
  Engine.run e;
  check_int "drained" 0 (Engine.pending e);
  Gc.full_major ();
  check "captured array collected" false (Weak.check w 0);
  check_int "engine still alive" 1 (Engine.events_processed e)

(* Model-based ordering check.  A schedule is a forest: each node fires
   at its parent's firing time plus its delay (roots at an absolute
   time), and its callback schedules its children in list order.  The
   model keeps pending events in scheduling order and fires the first
   element of their stable sort by time — the engine's contract.  Times
   and delays come from small sets so ties are the common case, and the
   run is cut into [until]/[max_events] slices, single steps and
   external schedules between slices. *)
type node = Node of float * node list

type cmd =
  | Run of float option * int option (* [until], events past [processed] *)
  | Step
  | Add of node

let node_gen =
  let open QCheck2.Gen in
  let delay = oneofl [ 0.0; 0.0; 0.5; 1.0; 2.0 ] in
  let rec tree depth =
    delay >>= fun d ->
    if depth = 0 then return (Node (d, []))
    else list_size (int_range 0 2) (tree (depth - 1)) >|= fun kids -> Node (d, kids)
  in
  tree 2

let schedule_gen =
  let open QCheck2.Gen in
  let stop = int_range 0 12 >|= fun k -> 0.5 *. float_of_int k in
  let root = pair (oneofl [ 0.0; 1.0; 2.0; 3.0 ]) node_gen in
  let cmd =
    frequency
      [
        (8, pair (option stop) (option (int_range 0 40)) >|= fun (u, b) -> Run (u, b));
        (2, return Step);
        (1, node_gen >|= fun n -> Add n);
      ]
  in
  pair (list_size (int_range 1 60) root) (list_size (int_range 0 12) cmd)

type model = {
  mutable now : float;
  mutable seq : int;
  mutable processed : int;
  mutable queue : (float * int * node) list; (* scheduling order *)
  mutable fired : (int * float) list;
}

let model_schedule m time n =
  m.queue <- m.queue @ [ (time, m.seq, n) ];
  m.seq <- m.seq + 1

let model_step m =
  match List.stable_sort (fun (a, _, _) (b, _, _) -> Float.compare a b) m.queue with
  | [] -> false
  | (time, seq, Node (_, kids)) :: _ ->
    m.queue <- List.filter (fun (_, s, _) -> s <> seq) m.queue;
    m.now <- time;
    m.processed <- m.processed + 1;
    m.fired <- (seq, time) :: m.fired;
    List.iter (fun (Node (d, _) as k) -> model_schedule m (time +. d) k) kids;
    true

let model_run ?until ?max_events m =
  let ok () =
    (match max_events with None -> true | Some b -> m.processed < b)
    &&
    match (until, m.queue) with
    | Some stop, _ :: _ ->
      List.fold_left (fun acc (t, _, _) -> Float.min acc t) infinity m.queue
      <= stop
    | _ -> true
  in
  while ok () && model_step m do
    ()
  done

let prop_engine_matches_model (roots, cmds) =
  let e = Engine.create () in
  let seq = ref 0 and fired = ref [] in
  let rec engine_schedule ~at (Node (_, kids)) =
    let id = !seq in
    incr seq;
    Engine.schedule_at e ~time:at (fun () ->
        fired := (id, Engine.now e) :: !fired;
        List.iter
          (fun (Node (d, _) as k) -> engine_schedule ~at:(Engine.now e +. d) k)
          kids)
  in
  let m = { now = 0.0; seq = 0; processed = 0; queue = []; fired = [] } in
  let add ~at n =
    engine_schedule ~at n;
    model_schedule m at n
  in
  List.iter (fun (at, n) -> add ~at n) roots;
  let agree () =
    !fired = m.fired
    && Engine.pending e = List.length m.queue
    && Engine.events_processed e = m.processed
    && Engine.now e = m.now
  in
  List.for_all
    (fun c ->
      let stepped_alike =
        match c with
        | Run (until, budget) ->
          let max_events = Option.map (fun k -> m.processed + k) budget in
          Engine.run ?until ?max_events e;
          model_run ?until ?max_events m;
          true
        | Step ->
          let stepped = Engine.step e in
          stepped = model_step m
        | Add (Node (d, _) as n) ->
          add ~at:(m.now +. d) n;
          true
      in
      stepped_alike && agree ())
    cmds
  && (Engine.run e;
      model_run m;
      agree () && Engine.pending e = 0)

let test_engine_matches_model =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:300 ~name:"engine fires in model order"
       schedule_gen prop_engine_matches_model)

(* --- Latency --- *)

let test_latency_constant () =
  let rng = Rng.create 1 in
  check_float "constant" 3.0 (Latency.sample rng (Latency.constant 3.0));
  check_float "mean" 3.0 (Latency.mean (Latency.constant 3.0))

let test_latency_uniform () =
  let rng = Rng.create 2 in
  let m = Latency.uniform ~lo:1.0 ~hi:2.0 in
  for _ = 1 to 1000 do
    let v = Latency.sample rng m in
    check "in range" true (v >= 1.0 && v < 2.0)
  done;
  check_float "mean" 1.5 (Latency.mean m)

let test_latency_exponential_floor () =
  let rng = Rng.create 3 in
  let m = Latency.exponential ~floor:0.5 ~mean:2.0 () in
  for _ = 1 to 1000 do
    check "above floor" true (Latency.sample rng m >= 0.5)
  done;
  check_float "mean" 2.5 (Latency.mean m)

let test_latency_sample_means () =
  let rng = Rng.create 4 in
  let close m =
    let n = 50_000 in
    let sum = ref 0.0 in
    for _ = 1 to n do
      sum := !sum +. Latency.sample rng m
    done;
    let emp = !sum /. float_of_int n in
    abs_float (emp -. Latency.mean m) /. Latency.mean m < 0.1
  in
  check "exponential" true (close (Latency.exponential ~mean:3.0 ()));
  check "lognormal" true (close (Latency.lognormal ~mu:0.5 ~sigma:0.4 ()));
  check "pareto shape>1" true (close (Latency.pareto ~scale:1.0 ~shape:3.0))

let test_latency_validation () =
  check "bad constant" true
    (try
       ignore (Latency.constant 0.0);
       false
     with Invalid_argument _ -> true);
  check "bad uniform" true
    (try
       ignore (Latency.uniform ~lo:2.0 ~hi:1.0);
       false
     with Invalid_argument _ -> true);
  check "pareto heavy mean" true
    (Latency.mean (Latency.pareto ~scale:1.0 ~shape:0.5) = infinity)

let test_latency_defaults_positive () =
  let rng = Rng.create 5 in
  for _ = 1 to 100 do
    check "lan positive" true (Latency.sample rng Latency.lan > 0.0);
    check "wan positive" true (Latency.sample rng Latency.wan > 0.0)
  done;
  check "wan slower" true (Latency.mean Latency.wan > Latency.mean Latency.lan)

(* --- Trace --- *)

let test_trace_roundtrip () =
  let tr = Trace.create () in
  Trace.record tr ~time:1.0 ~node:0 ~kind:Trace.Send ~tag:"m1" ();
  Trace.record tr ~time:2.0 ~node:1 ~kind:Trace.Deliver ~tag:"m1" ();
  Trace.record tr ~time:3.0 ~node:1 ~kind:Trace.Deliver ~tag:"m2" ~info:"x" ();
  check_int "length" 3 (Trace.length tr);
  check_int "deliveries at 1" 2 (List.length (Trace.deliveries_at tr 1));
  Alcotest.(check (list string)) "delivery order" [ "m1"; "m2" ]
    (Trace.delivery_order tr 1);
  check "find m2" true (Trace.find_delivery tr ~node:1 ~tag:"m2" = Some 3.0);
  check "find missing" true (Trace.find_delivery tr ~node:0 ~tag:"m2" = None)

let test_engine_every_unbounded_with_budget () =
  (* an unbounded periodic timer is stoppable via max_events *)
  let e = Engine.create () in
  let ticks = ref 0 in
  Engine.every e ~period:1.0 (fun () -> incr ticks);
  Engine.run ~max_events:25 e;
  check_int "exactly the budget" 25 !ticks

let test_latency_to_string () =
  check "constant renders" true
    (Latency.to_string (Latency.constant 2.0) = "constant(2ms)");
  check "lan renders" true (String.length (Latency.to_string Latency.lan) > 0);
  List.iter
    (fun m -> check "nonempty" true (String.length (Latency.to_string m) > 0))
    [
      Latency.uniform ~lo:1.0 ~hi:2.0;
      Latency.exponential ~mean:1.0 ();
      Latency.pareto ~scale:1.0 ~shape:2.0;
    ]

let test_trace_pp () =
  let tr = Trace.create () in
  Trace.record tr ~time:1.5 ~node:0 ~kind:Trace.Send ~tag:"m" ~info:"x" ();
  Trace.record tr ~time:2.5 ~node:1 ~kind:Trace.Deliver ~tag:"m" ();
  let s = Format.asprintf "%a" Trace.pp tr in
  check "mentions send" true
    (String.length s > 0
    && Trace.kind_to_string Trace.Send = "send"
    && Trace.kind_to_string Trace.Drop = "drop")

let test_trace_filter () =
  let tr = Trace.create () in
  Trace.record tr ~time:1.0 ~node:0 ~kind:Trace.Drop ~tag:"m" ();
  Trace.record tr ~time:2.0 ~node:0 ~kind:Trace.Mark ~tag:"stable" ();
  check_int "drops" 1
    (List.length (Trace.filter tr (fun r -> r.Trace.kind = Trace.Drop)))

let () =
  Alcotest.run "sim"
    [
      ( "engine",
        [
          Alcotest.test_case "initial" `Quick test_engine_initial;
          Alcotest.test_case "time order" `Quick test_engine_time_order;
          Alcotest.test_case "fifo ties" `Quick test_engine_fifo_ties;
          Alcotest.test_case "nested scheduling" `Quick test_engine_nested_scheduling;
          Alcotest.test_case "zero delay" `Quick test_engine_zero_delay;
          Alcotest.test_case "negative delay" `Quick test_engine_negative_delay;
          Alcotest.test_case "schedule_at past" `Quick test_engine_schedule_at_past;
          Alcotest.test_case "run until" `Quick test_engine_until;
          Alcotest.test_case "max events" `Quick test_engine_max_events;
          Alcotest.test_case "every" `Quick test_engine_every;
          Alcotest.test_case "determinism" `Quick test_engine_determinism;
          Alcotest.test_case "fork rng" `Quick test_engine_fork_rng_distinct;
          Alcotest.test_case "fired callbacks released" `Quick
            test_engine_releases_fired_callbacks;
          test_engine_matches_model;
        ] );
      ( "latency",
        [
          Alcotest.test_case "constant" `Quick test_latency_constant;
          Alcotest.test_case "uniform" `Quick test_latency_uniform;
          Alcotest.test_case "exponential floor" `Quick test_latency_exponential_floor;
          Alcotest.test_case "sample means" `Quick test_latency_sample_means;
          Alcotest.test_case "validation" `Quick test_latency_validation;
          Alcotest.test_case "defaults" `Quick test_latency_defaults_positive;
        ] );
      ( "trace",
        [
          Alcotest.test_case "roundtrip" `Quick test_trace_roundtrip;
          Alcotest.test_case "filter" `Quick test_trace_filter;
          Alcotest.test_case "pp" `Quick test_trace_pp;
        ] );
      ( "misc",
        [
          Alcotest.test_case "every + max_events" `Quick
            test_engine_every_unbounded_with_budget;
          Alcotest.test_case "latency to_string" `Quick test_latency_to_string;
        ] );
    ]
