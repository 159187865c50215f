(* Executable reproductions of the paper's five figures (F1–F5).  Each
   prints the scenario's observable behaviour and asserts the property the
   figure illustrates. *)

module Engine = Causalb_sim.Engine
module Latency = Causalb_sim.Latency
module Net = Causalb_net.Net
module Group = Causalb_core.Group
module Osend = Causalb_core.Osend
module Asend = Causalb_core.Asend
module Checker = Causalb_core.Checker
module Message = Causalb_core.Message
module Label = Causalb_graph.Label
module Dep = Causalb_graph.Dep
module Depgraph = Causalb_graph.Depgraph
module Dt = Causalb_data.Datatypes
module Service = Causalb_data.Service
module Replica = Causalb_data.Replica
module Lock = Causalb_protocols.Lock_service
module Table = Causalb_util.Table
module Printer = Causalb_util.Printer

let jittery = Latency.lognormal ~mu:0.5 ~sigma:1.0 ()

let hr title =
  Printer.printf "\n================ %s ================\n" title

(* F1 (Fig. 1): a data-access message is seen by all entities; every local
   copy changes identically. *)
let f1 () =
  hr "F1 (Fig. 1): data access by message broadcast";
  let engine = Engine.create ~seed:101 () in
  let svc =
    Service.create engine ~replicas:3 ~spec:Dt.Kv_store.spec
      ~latency:jittery ()
  in
  ignore (Service.submit svc ~src:0 (Dt.Kv_store.Upd ("VAL", "42")));
  Service.run svc;
  List.iter
    (fun r ->
      Printer.printf "entity a%d: VAL = %s\n" (Replica.id r)
        (Option.value ~default:"?" (Dt.Kv_store.lookup (Replica.state r) "VAL")))
    (Service.replicas svc);
  assert (List.for_all snd (Service.check svc));
  Printer.line "all entities saw the access message: OK"

(* F2 (Fig. 2): R(M) = mk -> ||{mi, mi'}: concurrent messages are seen in
   different orders, but a message depending on both is a synchronization
   point at which views agree. *)
let f2 () =
  hr "F2 (Fig. 2): causal broadcast scenario, mk -> ||{mi,mi'}";
  let engine = Engine.create ~seed:102 () in
  let net =
    Net.create engine ~nodes:3 ~latency:(Latency.lognormal ~mu:1.0 ~sigma:1.2 ())
      ~fifo:false ()
  in
  let group = Group.create net () in
  let mk = Group.osend group ~src:2 ~name:"mk" ~dep:Dep.null "mk" in
  Engine.run engine;
  let mi = Group.osend group ~src:0 ~name:"mi" ~dep:(Dep.after mk) "mi" in
  let mi' = Group.osend group ~src:1 ~name:"mi2" ~dep:(Dep.after mk) "mi2" in
  Engine.run engine;
  let mj =
    Group.osend group ~src:0 ~name:"mj" ~dep:(Dep.after_all [ mi; mi' ]) "mj"
  in
  Engine.run engine;
  let t = Table.create ~title:"delivery order per entity" ~columns:[ "entity"; "order" ] in
  List.iteri
    (fun node order ->
      Table.add_row t
        [
          Printf.sprintf "a%d" node;
          String.concat " -> " (List.map Label.to_string order);
        ])
    (Group.all_delivered_orders group);
  Table.print t;
  let orders = Group.all_delivered_orders group in
  assert (Checker.same_set orders);
  List.iter
    (fun order ->
      assert (Label.equal (List.hd order) mk);
      assert (Label.equal (List.nth order 3) mj))
    orders;
  Printer.line
    "mk first and mj last everywhere; mi/mi' interleave freely: OK"

(* F3 (Fig. 3): the message dependency graph, extracted from the OSend
   trace, identical at every member. *)
let f3 () =
  hr "F3 (Fig. 3): dependency graph extraction";
  let engine = Engine.create ~seed:103 () in
  let net = Net.create engine ~nodes:3 ~latency:jittery ~fifo:false () in
  let group = Group.create net () in
  let msg_ = Group.osend group ~src:0 ~name:"Msg" ~dep:Dep.null "Msg" in
  let m1 = Group.osend group ~src:1 ~name:"m1" ~dep:(Dep.after msg_) "m1" in
  let m2 = Group.osend group ~src:2 ~name:"m2" ~dep:(Dep.after msg_) "m2" in
  ignore
    (Group.osend group ~src:0 ~name:"m3" ~dep:(Dep.after_all [ m1; m2 ]) "m3");
  Engine.run engine;
  let g0 = Osend.graph (Group.member group 0) in
  Printer.string
    (Format.asprintf "graph as seen by member 0:@.%a@." Depgraph.pp g0);
  Printer.line "dot rendering:";
  Printer.string (Depgraph.to_dot g0);
  (* stable information: all members extracted the same graph *)
  List.iter
    (fun node ->
      let g = Osend.graph (Group.member group node) in
      assert (
        List.sort compare (Depgraph.edges g)
        = List.sort compare (Depgraph.edges g0)))
    [ 1; 2 ];
  Printer.line "graphs identical at all members (stable information): OK"

(* F4 (Fig. 4): the total-ordering function interposed between causal
   broadcast and the application. *)
let f4 () =
  hr "F4 (Fig. 4): ASend total-ordering layer over causal broadcast";
  let engine = Engine.create ~seed:104 () in
  let net =
    Net.create engine ~nodes:4
      ~latency:(Latency.lognormal ~mu:0.5 ~sigma:1.2 ())
      ~fifo:false ()
  in
  let raw_orders = Array.make 4 [] in
  let total_orders = Array.make 4 [] in
  let merges =
    Array.init 4 (fun node ->
        Asend.Merge.create
          ~is_sync:(fun m -> Message.payload m = "sync")
          ~deliver:(fun m ->
            total_orders.(node) <- Message.label m :: total_orders.(node))
          ())
  in
  let group =
    Group.create net
      ~on_deliver:(fun ~node ~time:_ m ->
        raw_orders.(node) <- Message.label m :: raw_orders.(node);
        Asend.Merge.on_causal_deliver merges.(node) m)
      ()
  in
  let spont =
    List.init 8 (fun i ->
        Group.osend group ~src:(i mod 4) ~name:(Printf.sprintf "s%d" i)
          ~dep:Dep.null "spont")
  in
  ignore
    (Group.osend group ~src:0 ~name:"sync" ~dep:(Dep.after_all spont) "sync");
  Engine.run engine;
  let t =
    Table.create ~title:"causal (raw) order vs ASend (total) order"
      ~columns:[ "member"; "raw causal order"; "ASend order" ]
  in
  let render o = String.concat " " (List.map Label.to_string (List.rev o)) in
  Array.iteri
    (fun node raw ->
      Table.add_row t
        [ string_of_int node; render raw; render total_orders.(node) ])
    raw_orders;
  Table.print t;
  let totals = Array.to_list (Array.map List.rev total_orders) in
  assert (Checker.identical_orders totals);
  let raws = Array.to_list (Array.map List.rev raw_orders) in
  Printer.printf "raw orders identical: %b (expected: usually false)\n"
    (Checker.identical_orders raws);
  Printer.line "ASend orders identical at all members: OK"

(* F5 (Fig. 5): the LOCK/TFR arbitration timeline. *)
let f5 () =
  hr "F5 (Fig. 5): decentralized lock arbitration";
  let engine = Engine.create ~seed:105 () in
  let lock =
    Lock.create engine ~members:3
      ~latency:(Latency.lognormal ~mu:0.4 ~sigma:0.8 ())
      ~hold:(Latency.constant 1.5) ()
  in
  Lock.start lock ~cycles:2;
  Engine.run engine;
  let t =
    Table.create ~title:"grants" ~columns:[ "cycle S"; "holder"; "grant ms"; "release ms" ]
  in
  List.iter
    (fun g ->
      Table.add_row t
        [
          string_of_int g.Lock.cycle;
          String.make 1 (Char.chr (Char.code 'A' + g.Lock.holder));
          Exp_common.fmt g.Lock.grant_time;
          Exp_common.fmt g.Lock.release_time;
        ])
    (Lock.grants lock);
  Table.print t;
  assert (Lock.check_mutual_exclusion lock);
  assert (Lock.check_agreement lock);
  assert (Lock.check_liveness lock ~expected_cycles:2);
  Printer.line "mutual exclusion, agreement, liveness: OK"

let run () =
  f1 ();
  f2 ();
  f3 ();
  f4 ();
  f5 ()
