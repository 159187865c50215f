(* Equivalence suite for the reverse-indexed delivery engines.

   The seed list-scan engines live on in [Causalb_reference]; every
   property here replays one random workload through the frozen seed
   engine and the indexed engine of [Causalb_core] and demands
   bit-identical observable state: delivered order, pending set, blocked
   ancestors, and the uniform metrics counters.  Workloads include
   duplicate receives (the transport injects copies under fault
   schedules) and [After_any] predicates, the two places where a naive
   wakeup index diverges from the pool sweep.  Delivered orders are also
   audited by the offline causal checker, so agreement with the oracle
   is not trusted blindly. *)

module Label = Causalb_graph.Label
module Dep = Causalb_graph.Dep
module Vc = Causalb_clock.Vector_clock
module Engine = Causalb_sim.Engine
module Trace = Causalb_sim.Trace
module Trace_check = Causalb_check.Trace_check
module Message = Causalb_core.Message
module Osend = Causalb_core.Osend
module Bss = Causalb_core.Bss
module Fifo = Causalb_core.Fifo
module Asend = Causalb_core.Asend
module Group = Causalb_core.Group
module Checker = Causalb_core.Checker
module Metrics = Causalb_stackbase.Metrics
module Stack = Causalb_stack.Stack
module Rosend = Causalb_reference.Osend
module Rbss = Causalb_reference.Bss
module Rfifo = Causalb_reference.Fifo
module Rasend = Causalb_reference.Asend

let test ?(count = 150) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let check = Alcotest.(check bool)

let check_int = Alcotest.(check int)

let label_of_index i = Label.make ~origin:(i mod 5) ~seq:(i / 5) ()

(* The engine side's delivery sequence, collected from its deliver
   callback: [f] picks what to compare of each delivery. *)
let delivery_log f =
  let record, read = Delivery_log.create () in
  ((fun x -> record ~node:0 (f x)), fun () -> read 0)

(* --- OSend: random predicate DAGs, partial arrival, duplicates --- *)

(* For each message: a predicate over earlier indices (Null / After /
   After_all / After_any), an arrival permutation, duplicate re-receives,
   and a cut that withholds a suffix so some messages stay parked. *)
let osend_workload_gen =
  let open QCheck2.Gen in
  int_range 1 32 >>= fun n ->
  let dep_for i =
    if i = 0 then return Dep.null
    else
      let earlier = int_range 0 (i - 1) in
      oneof
        [
          return Dep.null;
          (earlier >|= fun j -> Dep.after (label_of_index j));
          ( list_size (int_range 1 3) earlier >|= fun js ->
            Dep.after_all
              (List.map label_of_index (List.sort_uniq Int.compare js)) );
          ( list_size (int_range 1 3) earlier >|= fun js ->
            Dep.after_any
              (List.map label_of_index (List.sort_uniq Int.compare js)) );
        ]
  in
  let rec deps i acc =
    if i >= n then return (List.rev acc)
    else dep_for i >>= fun d -> deps (i + 1) (d :: acc)
  in
  deps 0 [] >>= fun deps ->
  shuffle_l (List.init n Fun.id) >>= fun arrival ->
  list_size (int_range 0 6) (int_range 0 (n - 1)) >>= fun dups ->
  int_range ((n + 1) / 2) (n + List.length dups) >|= fun cut ->
  (n, deps, arrival, dups, cut)

let osend_arrivals (n, deps, arrival, dups, cut) =
  let msg i =
    Message.make ~label:(label_of_index i) ~sender:(i mod 5)
      ~dep:(List.nth deps i) i
  in
  let seq = arrival @ dups in
  let seq = List.filteri (fun k _ -> k < cut) seq in
  ignore n;
  List.map msg seq

let audit_causal graph order =
  let tr = Trace.create () in
  List.iteri
    (fun i l ->
      Trace.record tr ~time:(float_of_int i) ~node:0 ~kind:Trace.Deliver
        ~tag:(Label.to_string l) ())
    order;
  Trace_check.causal ~graph tr = []

let prop_osend_equiv =
  test "osend: indexed = seed list-scan" osend_workload_gen (fun w ->
      let reference = Rosend.create ~id:0 () in
      let indexed = Osend.create ~id:0 () in
      List.iter
        (fun m ->
          Rosend.receive reference m;
          Osend.receive indexed m)
        (osend_arrivals w);
      Rosend.delivered_order reference = Osend.delivered_order indexed
      && List.map Message.label (Rosend.pending reference)
         = List.map Message.label (Osend.pending indexed)
      && Rosend.pending_count reference = Osend.pending_count indexed
      && Rosend.blocked_on reference = Osend.blocked_on indexed
      && Rosend.buffered_ever reference = Osend.buffered_ever indexed
      && (Rosend.metrics reference).Metrics.buffered
         = (Osend.metrics indexed).Metrics.buffered
      && audit_causal (Osend.graph indexed) (Osend.delivered_order indexed))

(* --- BSS: random vector stamps, overshoot, duplicates --- *)

(* Per-sender sequences 1..k with other components drawn at random: some
   envelopes are deliverable, some buffer, some can never fire (their
   stamp over-claims a component) — both engines must agree on all of
   it, including the zombie bookkeeping left by duplicate copies. *)
let bss_workload_gen =
  let open QCheck2.Gen in
  int_range 2 16 >>= fun nodes ->
  let counts = list_repeat nodes (int_range 0 5) in
  counts >>= fun counts ->
  let envs =
    List.concat
      (List.mapi
         (fun s k -> List.init k (fun seq -> (s, seq + 1)))
         counts)
  in
  let stamp_for (s, seq) =
    let comp k = if k = s then return seq else int_range 0 6 in
    let rec build k acc =
      if k >= nodes then return (List.rev acc)
      else comp k >>= fun v -> build (k + 1) (v :: acc)
    in
    build 0 [] >|= fun comps -> (s, seq, comps)
  in
  let rec all es acc =
    match es with
    | [] -> return (List.rev acc)
    | e :: rest -> stamp_for e >>= fun st -> all rest (st :: acc)
  in
  all envs [] >>= fun stamped ->
  let total = List.length stamped in
  if total = 0 then return (nodes, [])
  else
    list_size (int_range 0 4) (int_range 0 (total - 1)) >>= fun dups ->
    shuffle_l (List.init total Fun.id @ dups) >|= fun order ->
    (nodes, List.map (List.nth stamped) order)

let prop_bss_equiv =
  test "bss: indexed = seed list-scan" bss_workload_gen
    (fun (nodes, arrivals) ->
      let reference = Rbss.member ~id:0 ~group_size:nodes () in
      let deliver, tags = delivery_log (fun e -> e.Bss.tag) in
      let indexed = Bss.member ~id:0 ~group_size:nodes ~deliver () in
      List.iter
        (fun (s, seq, comps) ->
          let e =
            {
              Bss.sender = s;
              stamp = Vc.of_array (Array.of_list comps);
              tag = Printf.sprintf "%d:%d" s seq;
              payload = 0;
            }
          in
          Rbss.receive reference e;
          Bss.receive indexed e)
        arrivals;
      Rbss.delivered_tags reference = tags ()
      && Rbss.delivered_count reference = Bss.delivered_count indexed
      && Rbss.pending_count reference = Bss.pending_count indexed
      && Rbss.buffered_ever reference = Bss.buffered_ever indexed)

(* --- FIFO: shuffled per-sender sequences, gaps, duplicates --- *)

let fifo_workload_gen =
  let open QCheck2.Gen in
  int_range 1 3 >>= fun nodes ->
  list_repeat nodes (int_range 0 8) >>= fun counts ->
  let envs =
    List.concat
      (List.mapi (fun s k -> List.init k (fun seq -> (s, seq))) counts)
  in
  let total = List.length envs in
  if total = 0 then return (nodes, [])
  else
    list_size (int_range 0 5) (int_range 0 (total - 1)) >>= fun dups ->
    shuffle_l (List.init total Fun.id @ dups) >>= fun order ->
    (* dropping a suffix leaves sequence gaps: later numbers park forever *)
    int_range (total / 2) (List.length order) >|= fun cut ->
    (nodes, List.filteri (fun k _ -> k < cut) (List.map (List.nth envs) order))

let prop_fifo_equiv =
  test "fifo: indexed = seed list-scan" fifo_workload_gen
    (fun (nodes, arrivals) ->
      let reference = Rfifo.member ~id:0 ~group_size:nodes () in
      let deliver, tags = delivery_log (fun e -> e.Fifo.tag) in
      let indexed = Fifo.member ~id:0 ~group_size:nodes ~deliver () in
      List.iter
        (fun (s, seq) ->
          let e =
            {
              Fifo.sender = s;
              seq;
              tag = Printf.sprintf "%d:%d" s seq;
              payload = 0;
            }
          in
          Rfifo.receive reference e;
          Fifo.receive indexed e)
        arrivals;
      Rfifo.delivered_tags reference = tags ()
      && Rfifo.delivered_count reference = Fifo.delivered_count indexed
      && Rfifo.pending_count reference = Fifo.pending_count indexed
      && Rfifo.buffered_ever reference = Fifo.buffered_ever indexed)

(* --- Merge / Counted: heap drain = stable sort, with compare ties --- *)

(* A coarse comparator (payload mod 3) forces ties, so only an engine
   that preserves arrival order among equal keys matches the seed's
   stable [List.sort]. *)
let tie_compare a b =
  Int.compare (Message.payload a mod 3) (Message.payload b mod 3)

let msg_of_int i =
  Message.make ~label:(label_of_index i) ~sender:(i mod 5) ~dep:Dep.null i

let merge_gen =
  let open QCheck2.Gen in
  int_range 0 40 >>= fun n ->
  list_repeat n (int_range 0 9) >|= fun syncs -> (n, syncs)

let prop_merge_equiv =
  test "merge: heap = stable sort" merge_gen (fun (n, syncs) ->
      (* payload i mod 10 = 0 marks a sync message *)
      let is_sync m = List.nth syncs (Message.payload m mod n) = 0 in
      let is_sync m = n > 0 && is_sync m in
      let reference =
        Rasend.Merge.create ~is_sync ~compare:tie_compare ()
      in
      let deliver, order = delivery_log Message.label in
      let indexed =
        Asend.Merge.create ~is_sync ~compare:tie_compare ~deliver ()
      in
      for i = 0 to n - 1 do
        let m = msg_of_int i in
        Rasend.Merge.on_causal_deliver reference m;
        Asend.Merge.on_causal_deliver indexed m
      done;
      Rasend.Merge.total_order reference = order ()
      && Rasend.Merge.buffered reference = Asend.Merge.buffered indexed
      && Rasend.Merge.batches reference = Asend.Merge.batches indexed
      && (Rasend.Merge.metrics reference).Metrics.buffered
         = (Asend.Merge.metrics indexed).Metrics.buffered)

let counted_gen =
  let open QCheck2.Gen in
  int_range 1 5 >>= fun batch -> int_range 0 40 >|= fun n -> (batch, n)

let prop_counted_equiv =
  test "counted: heap = stable sort" counted_gen (fun (batch, n) ->
      let reference = Rasend.Counted.create ~batch_size:batch ~compare:tie_compare () in
      let deliver, order = delivery_log Message.label in
      let indexed =
        Asend.Counted.create ~batch_size:batch ~compare:tie_compare ~deliver ()
      in
      for i = 0 to n - 1 do
        let m = msg_of_int i in
        Rasend.Counted.on_causal_deliver reference m;
        Asend.Counted.on_causal_deliver indexed m
      done;
      Rasend.Counted.total_order reference = order ()
      && Rasend.Counted.buffered reference = Asend.Counted.buffered indexed
      && Rasend.Counted.batches reference = Asend.Counted.batches indexed
      && (Rasend.Counted.metrics reference).Metrics.buffered
         = (Asend.Counted.metrics indexed).Metrics.buffered)

(* --- wakeup cascades: deep chain and wide fan in one receive --- *)

(* A chain m0 <- m1 <- ... arriving in reverse parks everything on the
   missing head; receiving m0 must release the whole chain in one call,
   in chain order, leaving no residue in the index. *)
let test_chain_cascade () =
  let n = 500 in
  let msg i =
    Message.make ~label:(label_of_index i) ~sender:0
      ~dep:(if i = 0 then Dep.null else Dep.after (label_of_index (i - 1)))
      i
  in
  let t = Osend.create ~id:0 () in
  for i = n - 1 downto 1 do
    Osend.receive t (msg i)
  done;
  check_int "all parked" (n - 1) (Osend.pending_count t);
  Alcotest.(check (list string))
    "blocked on head only"
    [ Label.to_string (label_of_index 0) ]
    (List.map Label.to_string (Osend.blocked_on t));
  Osend.receive t (msg 0);
  check_int "all delivered" n (Osend.delivered_count t);
  check_int "nothing pending" 0 (Osend.pending_count t);
  check "chain order" true
    (Osend.delivered_order t = List.init n label_of_index);
  check "no stale blocked_on" true (Osend.blocked_on t = [])

let test_fan_cascade () =
  let n = 500 in
  let root = Label.make ~origin:9 ~seq:0 () in
  let t = Osend.create ~id:0 () in
  for i = 0 to n - 1 do
    Osend.receive t
      (Message.make ~label:(label_of_index i) ~sender:0 ~dep:(Dep.after root)
         i)
  done;
  check_int "fan parked" n (Osend.pending_count t);
  Osend.receive t (Message.make ~label:root ~sender:9 ~dep:Dep.null (-1));
  check_int "fan delivered" (n + 1) (Osend.delivered_count t);
  check_int "fan drained" 0 (Osend.pending_count t);
  (* one generation: arrival order is preserved across the whole fan *)
  check "fan order" true
    (Osend.delivered_order t = (root :: List.init n label_of_index))

(* --- partition / heal: buffered traffic drains in one cascade --- *)

(* The minority side buffers a whole dependency chain while the root is
   swallowed by the partition; after heal, re-injecting the root through
   the recovery path must release everything at once and leave no stale
   [blocked_on] entries. *)
let test_partition_heal_cascade () =
  let engine = Engine.create ~seed:37 () in
  let latency = Causalb_sim.Latency.lan in
  let stack =
    Stack.compose ~ordering:Stack.Osend ~latency ~fifo:false engine ~nodes:3
      ()
  in
  let chain = 12 in
  let root = ref None in
  let labels = ref [] in
  Engine.schedule_at engine ~time:0.0 (fun () ->
      Stack.partition stack [ [ 0 ]; [ 1; 2 ] ]);
  Engine.schedule_at engine ~time:1.0 (fun () ->
      root := Stack.submit stack ~src:0 ~dep:Dep.null "root");
  (* the chain is sent after heal, so only the root is missing *)
  Engine.schedule_at engine ~time:50.0 (fun () -> Stack.heal stack);
  for i = 1 to chain do
    Engine.schedule_at engine
      ~time:(50.0 +. float_of_int i)
      (fun () ->
        let dep =
          match !labels with
          | [] -> Dep.after (Option.get !root)
          | l :: _ -> Dep.after l
        in
        labels := Option.get (Stack.submit stack ~src:0 ~dep "link") :: !labels)
  done;
  Stack.run stack;
  check_int "node 1 stuck" 0 (Stack.delivered_count stack 1);
  Alcotest.(check (list string))
    "blocked on root only"
    [ Label.to_string (Option.get !root) ]
    (List.map Label.to_string (Stack.blocked_on stack 1));
  (* recovery: one re-broadcast of the root drains the whole chain *)
  let group = Option.get (Stack.osend_group stack) in
  Engine.schedule_at engine
    ~time:(Engine.now engine +. 1.0)
    (fun () ->
      Group.send_labelled group ~src:0
        ~label:(Option.get !root)
        ~dep:Dep.null "root");
  Stack.run stack;
  List.iter
    (fun n ->
      check_int
        (Printf.sprintf "node %d caught up" n)
        (chain + 1)
        (Stack.delivered_count stack n);
      check "no stale blocked_on" true (Stack.blocked_on stack n = []))
    [ 0; 1; 2 ];
  check "identical orders" true
    (Checker.identical_orders (Stack.all_delivered_orders stack))

let () =
  Alcotest.run "perf_equiv"
    [
      ( "equivalence",
        [
          prop_osend_equiv;
          prop_bss_equiv;
          prop_fifo_equiv;
          prop_merge_equiv;
          prop_counted_equiv;
        ] );
      ( "cascades",
        [
          Alcotest.test_case "deep chain, one receive" `Quick
            test_chain_cascade;
          Alcotest.test_case "wide fan, one receive" `Quick test_fan_cascade;
          Alcotest.test_case "partition/heal drains in one cascade" `Quick
            test_partition_heal_cascade;
        ] );
    ]
