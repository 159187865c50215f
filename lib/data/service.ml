module Engine = Causalb_sim.Engine
module Latency = Causalb_sim.Latency
module Net = Causalb_net.Net
module Group = Causalb_core.Group
module Osend = Causalb_core.Osend
module Checker = Causalb_core.Checker
module Message = Causalb_core.Message
module Label = Causalb_graph.Label
module Stats = Causalb_util.Stats

type ('op, 'state) t = {
  engine : Engine.t;
  group : 'op Group.t;
  frontend : 'op Frontend.t;
  replicas : ('op, 'state) Replica.t array;
  send_times : float Label.Tbl.t;
  primaries : int Label.Tbl.t;
  delivery_latency : Stats.t;
  response_latency : Stats.t;
  stability_latency : Stats.t;
}

let create engine ~replicas:n ~spec ?latency ?fifo ?trace () =
  if n <= 0 then invalid_arg "Service.create: replicas must be positive";
  let net = Net.create engine ~nodes:n ?latency ?fifo ?trace () in
  let send_times = Label.Tbl.create 256 in
  let primaries = Label.Tbl.create 256 in
  let delivery_latency = Stats.create () in
  let response_latency = Stats.create () in
  let stability_latency = Stats.create () in
  let replica_cells = Array.make n None in
  let on_deliver ~node ~time msg =
    (match Label.Tbl.find_opt send_times (Message.label msg) with
    | Some t0 ->
      Stats.add delivery_latency (time -. t0);
      if Label.Tbl.find_opt primaries (Message.label msg) = Some node then
        Stats.add response_latency (time -. t0)
    | None -> ());
    match replica_cells.(node) with
    | Some r -> Replica.on_deliver r msg
    | None -> ()
  in
  let group = Group.create net ?trace ~on_deliver () in
  let make_replica id =
    (* When a cycle closes, every op inside it (window + closing sync)
       has just become part of an agreed value: record submit→stable. *)
    let on_stable (cycle : ('op, 'state) Replica.cycle) =
      let now = Engine.now engine in
      let record label =
        match Label.Tbl.find_opt send_times label with
        | Some t0 -> Stats.add stability_latency (now -. t0)
        | None -> ()
      in
      List.iter (fun (l, _) -> record l) cycle.Replica.window;
      record (fst cycle.Replica.closed_by);
      (* Stable-point digest: the window set, the closing sync and the
         agreed state — the quantities §6.1 says every member must agree
         on.  The offline checker compares these Mark records across
         replicas. *)
      match trace with
      | None -> ()
      | Some tr ->
        let window =
          List.sort compare
            (List.map (fun (l, _) -> Label.to_string l) cycle.Replica.window)
        in
        let digest =
          Hashtbl.hash
            ( window,
              Label.to_string (fst cycle.Replica.closed_by),
              spec.Seq_spec.digest cycle.Replica.end_state )
        in
        Causalb_sim.Trace.stable_mark tr ~time:now ~node:id
          ~cycle:cycle.Replica.index ~digest
    in
    Replica.create ~id ~spec ~on_stable ()
  in
  Array.iteri (fun i _ -> replica_cells.(i) <- Some (make_replica i)) replica_cells;
  let replicas =
    Array.map
      (function Some r -> r | None -> assert false)
      replica_cells
  in
  let frontend = Frontend.create group ~kind:(Seq_spec.kind spec) () in
  {
    engine;
    group;
    frontend;
    replicas;
    send_times;
    primaries;
    delivery_latency;
    response_latency;
    stability_latency;
  }

let engine t = t.engine

let group t = t.group

let frontend t = t.frontend

let replica t i = t.replicas.(i)

let replicas t = Array.to_list t.replicas

let size t = Array.length t.replicas

let submit t ~src ?name ?primary op =
  let label = Frontend.submit t.frontend ~src ?name op in
  Label.Tbl.replace t.send_times label (Engine.now t.engine);
  Label.Tbl.replace t.primaries label (Option.value ~default:src primary);
  label

let run ?until t = Engine.run ?until t.engine

let delivery_latency t = t.delivery_latency

let response_latency t = t.response_latency

let stability_latency t = t.stability_latency

let messages_sent t = Net.messages_sent (Group.net t.group)

let check t =
  let reps = replicas t in
  let orders = List.map Replica.applied reps in
  let graphs_ok =
    List.for_all
      (fun i -> Checker.causal_safety (Osend.graph (Group.member t.group i)) (List.nth orders i))
      (List.init (size t) Fun.id)
  in
  [
    ("causal-safety", graphs_ok);
    ("same-delivered-set", Checker.same_set orders);
    ("stable-point-agreement", Consistency.agreement_at_stable_points reps);
    ("stable-digests-agree", Consistency.stable_digests_agree reps);
    ("window-sets-agree", Consistency.window_sets_agree reps);
    ( "windows-transition-preserving",
      List.for_all Consistency.windows_transition_preserving reps );
    ( "one-copy-serializable",
      List.for_all (fun r -> Consistency.serial_witness r <> None) reps );
  ]
