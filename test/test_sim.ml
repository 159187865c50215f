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

(* The same after the queue grew while the event was queued and its
   slot was freed and reused: growth copies the slot arrays and slots
   are recycled, and neither may keep a fired callback alive. *)
let test_engine_releases_after_growth () =
  let e = Engine.create () in
  let w = Weak.create 1 in
  schedule_capturing e w;
  for _ = 1 to 40 do
    Engine.schedule e ~delay:2.0 ignore
  done;
  check "captured event fired first" true (Engine.step e);
  check_float "at its time" 1.0 (Engine.now e);
  for _ = 1 to 100 do
    Engine.schedule e ~delay:3.0 ignore
  done;
  Gc.full_major ();
  check "captured array collected" false (Weak.check w 0);
  check_int "the rest still queued" 140 (Engine.pending e);
  Engine.run e;
  check_int "all fired" 141 (Engine.events_processed e)

(* NaN compares false with every time.  Admitted, it would sit in the
   heap unordered against the other events: delays 3, NaN, 1, 2, 0.5
   would fire at 1, 0.5, 2, 3, the clock running backwards, and the NaN
   event never.  Every scheduler turns it away. *)
let test_engine_rejects_nan () =
  let e = Engine.create () in
  let log = ref [] and rejected = ref [] in
  List.iter
    (fun (name, delay) ->
      try
        Engine.schedule e ~delay (fun () -> log := (name, Engine.now e) :: !log)
      with Invalid_argument _ -> rejected := name :: !rejected)
    [ ("c", 3.0); ("z", Float.nan); ("a", 1.0); ("b", 2.0); ("y", 0.5) ];
  Alcotest.(check (list string)) "NaN delay rejected" [ "z" ] !rejected;
  Engine.run e;
  Alcotest.(check (list (pair string (float 0.0))))
    "fired in time order"
    [ ("y", 0.5); ("a", 1.0); ("b", 2.0); ("c", 3.0) ]
    (List.rev !log);
  let raises f =
    try
      f ();
      false
    with Invalid_argument _ -> true
  in
  check "schedule_at NaN" true
    (raises (fun () -> Engine.schedule_at e ~time:Float.nan ignore));
  check "every NaN period" true
    (raises (fun () -> Engine.every e ~period:Float.nan ignore));
  check_int "nothing queued" 0 (Engine.pending e)

(* [schedule_cell] is [schedule_at] with the time read from a cell when
   the call is made; [clock] is the engine's clock, read in place. *)
let test_engine_cell_and_clock () =
  let e = Engine.create () in
  let clock = Engine.clock e in
  let log = ref [] in
  let note name () = log := (name, clock.Engine.now) :: !log in
  let cell = { Engine.time = 2.0 } in
  Engine.schedule_cell e cell (note "cell");
  cell.time <- 0.5;
  Engine.schedule_cell e cell (note "earlier cell");
  Engine.schedule_at e ~time:2.0 (note "tie, scheduled later");
  Engine.run e;
  Alcotest.(check (list (pair string (float 0.0))))
    "time, then scheduling order"
    [ ("earlier cell", 0.5); ("cell", 2.0); ("tie, scheduled later", 2.0) ]
    (List.rev !log);
  check_float "clock = now" (Engine.now e) clock.now;
  let raises time =
    try
      Engine.schedule_cell e { Engine.time } ignore;
      false
    with Invalid_argument _ -> true
  in
  check "past rejected" true (raises 1.0);
  check "NaN rejected" true (raises Float.nan);
  check "now accepted" false (raises 2.0);
  check_int "one queued" 1 (Engine.pending e)

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

let schedule_gen ~roots =
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
  pair (list_size roots root) (list_size (int_range 0 12) cmd)

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
       (schedule_gen ~roots:(QCheck2.Gen.int_range 1 60))
       prop_engine_matches_model)

(* The same on schedules of 100-300 roots: the queue, which starts at 16
   slots, grows four or five times, and the callbacks that schedule
   children while they fire reuse the slots freed before them. *)
let test_engine_matches_model_growing =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:40 ~name:"model order, growing queue"
       (schedule_gen ~roots:(QCheck2.Gen.int_range 100 300))
       prop_engine_matches_model)

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

let test_latency_rejects_bad_parameters () =
  let rejects name make =
    check name true
      (try
         ignore (make () : Latency.t);
         false
       with Invalid_argument _ -> true)
  in
  let nan = Float.nan and inf = Float.infinity in
  rejects "constant nan" (fun () -> Latency.constant nan);
  rejects "constant inf" (fun () -> Latency.constant inf);
  rejects "uniform hi nan" (fun () -> Latency.uniform ~lo:1.0 ~hi:nan);
  rejects "uniform lo nan" (fun () -> Latency.uniform ~lo:nan ~hi:2.0);
  rejects "uniform hi inf" (fun () -> Latency.uniform ~lo:1.0 ~hi:inf);
  rejects "exponential mean nan" (fun () -> Latency.exponential ~mean:nan ());
  rejects "exponential mean inf" (fun () -> Latency.exponential ~mean:inf ());
  rejects "exponential floor nan" (fun () ->
      Latency.exponential ~floor:nan ~mean:1.0 ());
  rejects "lognormal mu nan" (fun () -> Latency.lognormal ~mu:nan ~sigma:0.5 ());
  rejects "lognormal sigma nan" (fun () ->
      Latency.lognormal ~mu:0.0 ~sigma:nan ());
  rejects "lognormal sigma inf" (fun () ->
      Latency.lognormal ~mu:0.0 ~sigma:inf ());
  rejects "lognormal floor inf" (fun () ->
      Latency.lognormal ~floor:inf ~mu:0.0 ~sigma:0.5 ());
  rejects "exponential floor < 0" (fun () ->
      Latency.exponential ~floor:(-1.0) ~mean:1.0 ());
  rejects "lognormal floor < 0" (fun () ->
      Latency.lognormal ~floor:(-1.0) ~mu:0.0 ~sigma:0.5 ());
  rejects "pareto scale nan" (fun () -> Latency.pareto ~scale:nan ~shape:2.0);
  rejects "pareto shape inf" (fun () -> Latency.pareto ~scale:1.0 ~shape:inf)

(* [add_sample] adds the very draw [sample] returns, from the same RNG
   state, and [add_uniform] adds [Rng.float]'s: the per-copy path of
   [Net] draws what the boxed entries draw. *)
let test_latency_cell_draws () =
  let models =
    [
      Latency.constant 2.5;
      Latency.uniform ~lo:1.0 ~hi:4.0;
      Latency.exponential ~floor:0.5 ~mean:2.0 ();
      Latency.lognormal ~mu:0.0 ~sigma:0.5 ();
      Latency.lan;
      Latency.wan;
      Latency.pareto ~scale:1.0 ~shape:2.0;
    ]
  in
  let rng = Rng.create 11 in
  let cell = { Engine.time = 0.0 } in
  let same msg a b =
    Alcotest.(check int64) msg (Int64.bits_of_float a) (Int64.bits_of_float b)
  in
  for i = 1 to 200 do
    List.iter
      (fun m ->
        let start = float_of_int i *. 0.25 in
        let boxed = Rng.copy rng in
        cell.time <- start;
        Latency.add_sample rng m cell;
        same (Latency.to_string m) (start +. Latency.sample boxed m) cell.time;
        cell.time <- start;
        Latency.add_uniform rng 2.0 cell;
        same "uniform" (start +. Rng.float boxed 2.0) cell.time;
        Alcotest.(check int64) "same draws" (Rng.int64 (Rng.copy boxed))
          (Rng.int64 (Rng.copy rng)))
      models
  done

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
          Alcotest.test_case "released after slot reuse" `Quick
            test_engine_releases_after_growth;
          Alcotest.test_case "NaN rejected" `Quick test_engine_rejects_nan;
          Alcotest.test_case "cell and clock" `Quick test_engine_cell_and_clock;
          test_engine_matches_model_growing;
        ] );
      ( "latency",
        [
          Alcotest.test_case "constant" `Quick test_latency_constant;
          Alcotest.test_case "uniform" `Quick test_latency_uniform;
          Alcotest.test_case "exponential floor" `Quick test_latency_exponential_floor;
          Alcotest.test_case "sample means" `Quick test_latency_sample_means;
          Alcotest.test_case "validation" `Quick test_latency_validation;
          Alcotest.test_case "bad parameters rejected" `Quick
            test_latency_rejects_bad_parameters;
          Alcotest.test_case "cell draws" `Quick test_latency_cell_draws;
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
