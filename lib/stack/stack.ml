module Engine = Causalb_sim.Engine
module Latency = Causalb_sim.Latency
module Trace = Causalb_sim.Trace
module Net = Causalb_net.Net
module Label = Causalb_graph.Label
module Dep = Causalb_graph.Dep
module Vc = Causalb_clock.Vector_clock
module Stats = Causalb_util.Stats
module Fifo = Causalb_core.Fifo
module Bss = Causalb_core.Bss
module Psync = Causalb_core.Psync
module Osend = Causalb_core.Osend
module Ogroup = Causalb_core.Group
module Asend = Causalb_core.Asend
module Message = Causalb_core.Message
module Pcbcast = Causalb_core.Pcbcast

module Metrics = Causalb_stackbase.Metrics

(* The one generic group wrapper the per-engine [Group] modules now share. *)
module Group = Causalb_stackbase.Sgroup

type ordering = Fifo | Bss | Psync | Osend | Pc

type 'a total =
  | Pass
  | Merge of ('a Message.t -> bool)
  | Counted of int
  | Sequencer of { node : int }

type 'a total_member =
  | T_pass
  | T_merge of 'a Asend.Merge.t
  | T_counted of 'a Asend.Counted.t

type 'a impl =
  | I_fifo of 'a Fifo.Group.t
  | I_bss of 'a Bss.Group.t
  | I_psync of 'a Psync.t
  | I_osend of {
      group : 'a Ogroup.t;
      sequencer : 'a Asend.Sequencer.t option;
    }
  | I_pc of 'a Pcbcast.Group.t

type 'a t = {
  engine : Engine.t;
  nodes : int;
  impl : 'a impl;
  totals : 'a total_member array;
  total_name : string option; (* merge/counted row name; None when absent *)
  send_time : float Label.Tbl.t;
  causal_latency : Stats.t; (* submit/broadcast -> causal delivery *)
  total_latency : Stats.t;  (* submit/broadcast -> total-order release *)
  app_rev : Label.t list array; (* release order per node, reversed *)
  app_count : int array; (* length of app_rev, maintained on release *)
  on_deliver : node:int -> time:float -> 'a Message.t -> unit;
  trace : Trace.t option;
  seqs : int array; (* label mirror for engines with internal counters *)
  net_stats : unit -> int * int * int; (* sent, delivered, in_flight *)
  do_partition : int list list -> unit;
  do_heal : unit -> unit;
  do_set_fault : Causalb_net.Fault.t -> unit;
  do_lost : unit -> int; (* copies dropped by partition + injected loss *)
}

let ordering_name = function
  | Fifo -> "causal:fifo"
  | Bss -> "causal:bss"
  | Psync -> "causal:psync"
  | Osend -> "causal:osend"
  | Pc -> "causal:pc"

(* --- delivery path ------------------------------------------------- *)

(* Runs twice per delivery; [find] with a handler allocates no [Some]. *)
let record_latency tbl stats ~time label =
  match Label.Tbl.find tbl label with
  | t0 -> Stats.add stats (time -. t0)
  | exception Not_found -> ()

let release t ~node ~time msg =
  let label = Message.label msg in
  t.app_rev.(node) <- label :: t.app_rev.(node);
  t.app_count.(node) <- t.app_count.(node) + 1;
  (match t.trace with
  | Some tr ->
    Trace.record tr ~time ~node ~kind:Trace.Release
      ~tag:(Label.to_string label) ()
  | None -> ());
  t.on_deliver ~node ~time msg

let causal_deliver t ~node ~time msg =
  record_latency t.send_time t.causal_latency ~time (Message.label msg);
  (* The OSend group records its own [Deliver] events; the other causal
     layers do not, so the stack records them here — every composition
     then produces the same trace shape for the offline checkers. *)
  (match (t.trace, t.impl) with
  | Some tr, (I_fifo _ | I_bss _ | I_psync _ | I_pc _) ->
    Trace.record tr ~time ~node ~kind:Trace.Deliver
      ~tag:(Label.to_string (Message.label msg)) ()
  | _ -> ());
  match t.totals.(node) with
  | T_pass -> release t ~node ~time msg
  | T_merge m -> Asend.Merge.on_causal_deliver m msg
  | T_counted c -> Asend.Counted.on_causal_deliver c msg

(* --- construction --------------------------------------------------- *)

let compose ?(ordering = Osend) ?(total = Pass) ?(latency = Latency.lan)
    ?(fifo = true) ?trace
    ?(on_deliver = fun ~node:_ ~time:_ _ -> ()) engine ~nodes () =
  (match (total, ordering) with
  | Sequencer _, (Fifo | Bss | Psync | Pc) ->
    invalid_arg
      "Stack.compose: a sequencer needs the explicit-dependency causal \
       layer (ordering = Osend)"
  | Sequencer { node }, Osend when node < 0 || node >= nodes ->
    invalid_arg "Stack.compose: sequencer node out of range"
  | _ -> ());
  (* Knot: engine callbacks close over the stack record via this cell.
     Nothing fires before [compose] returns — network events only run
     inside [Engine.run], and submissions come later. *)
  let self = ref None in
  let this () =
    match !self with Some t -> t | None -> assert false
  in
  let dispatch ~node ~time msg = causal_deliver (this ()) ~node ~time msg in
  let total_release node msg =
    let t = this () in
    let time = Engine.now t.engine in
    record_latency t.send_time t.total_latency ~time (Message.label msg);
    release t ~node ~time msg
  in
  let totals =
    Array.init nodes (fun node ->
        match total with
        | Pass | Sequencer _ -> T_pass
        | Merge is_sync ->
          T_merge
            (Asend.Merge.create ~is_sync ~deliver:(total_release node) ())
        | Counted batch_size ->
          T_counted
            (Asend.Counted.create ~batch_size ~deliver:(total_release node)
               ()))
  in
  let total_name =
    match total with
    | Pass -> None
    | Merge _ -> Some "total:merge"
    | Counted _ -> Some "total:counted"
    | Sequencer _ -> Some "total:sequencer"
  in
  let send_time = Label.Tbl.create 256 in
  let make_net () = Net.create engine ~nodes ~latency ~fifo ?trace () in
  let net_closures net =
    ( (fun () ->
        (Net.messages_sent net, Net.messages_delivered net, Net.in_flight net)),
      (fun cells -> Net.partition net cells),
      (fun () -> Net.heal net),
      (fun f -> Net.set_fault net f),
      fun () -> Net.lost_copies net )
  in
  (* Keep creation order identical to the standalone drivers — net first
     (forks the engine RNG), then the group, then an optional sequencer
     (forks again) — so a stack run consumes the same random stream as the
     pre-stack code on the same seed. *)
  let impl, (net_stats, do_partition, do_heal, do_set_fault, do_lost) =
    match ordering with
    | Fifo ->
      let net = make_net () in
      let g =
        Fifo.Group.create net
          ~on_deliver:(fun ~node ~time (e : _ Fifo.envelope) ->
            let name = if e.Fifo.tag = "" then None else Some e.Fifo.tag in
            let label =
              Label.make ?name ~origin:e.Fifo.sender ~seq:e.Fifo.seq ()
            in
            dispatch ~node ~time
              (Message.make ~label ~sender:e.Fifo.sender ~dep:Dep.null
                 e.Fifo.payload))
          ()
      in
      (I_fifo g, net_closures net)
    | Bss ->
      let net = make_net () in
      let g =
        Bss.Group.create net
          ~on_deliver:(fun ~node ~time (e : _ Bss.envelope) ->
            let name = if e.Bss.tag = "" then None else Some e.Bss.tag in
            (* the sender's own stamp component counts its sends, so the
               0-based sequence number is one below it *)
            let seq = Vc.get e.Bss.stamp e.Bss.sender - 1 in
            let label = Label.make ?name ~origin:e.Bss.sender ~seq () in
            dispatch ~node ~time
              (Message.make ~label ~sender:e.Bss.sender ~dep:Dep.null
                 e.Bss.payload))
          ()
      in
      (I_bss g, net_closures net)
    | Psync ->
      let net = make_net () in
      let p = Psync.create net ~on_deliver:dispatch () in
      (I_psync p, net_closures net)
    | Osend ->
      let net = make_net () in
      let group =
        Ogroup.create net ?trace
          ~on_send:(fun ~time label -> Label.Tbl.replace send_time label time)
          ~on_deliver:dispatch ()
      in
      let sequencer =
        match total with
        | Sequencer { node } ->
          Some (Asend.Sequencer.create group ~node ~submit_latency:latency ())
        | _ -> None
      in
      (I_osend { group; sequencer }, net_closures net)
    | Pc ->
      let net = make_net () in
      let g =
        Pcbcast.Group.create net
          ~on_deliver:(fun ~node ~time (e : _ Pcbcast.envelope) ->
            (* fires for App bodies only; static stacks never carry
               control traffic, so this covers every causal delivery *)
            match e.Pcbcast.body with
            | Pcbcast.Ctrl _ -> ()
            | Pcbcast.App payload ->
              let name =
                if e.Pcbcast.tag = "" then None else Some e.Pcbcast.tag
              in
              let label =
                Label.make ?name ~origin:e.Pcbcast.origin ~seq:e.Pcbcast.seq
                  ()
              in
              dispatch ~node ~time
                (Message.make ~label ~sender:e.Pcbcast.origin ~dep:Dep.null
                   payload))
          ()
      in
      (I_pc g, net_closures net)
  in
  let t =
    {
      engine;
      nodes;
      impl;
      totals;
      total_name;
      send_time;
      causal_latency = Stats.create ();
      total_latency = Stats.create ();
      app_rev = Array.make nodes [];
      app_count = Array.make nodes 0;
      on_deliver;
      trace;
      seqs = Array.make nodes 0;
      net_stats;
      do_partition;
      do_heal;
      do_set_fault;
      do_lost;
    }
  in
  self := Some t;
  t

(* --- sending -------------------------------------------------------- *)

let submit t ~src ?name ?(dep = Dep.null) payload =
  if src < 0 || src >= t.nodes then
    invalid_arg "Stack.submit: src out of range";
  let now = Engine.now t.engine in
  let fresh_label () =
    let seq = t.seqs.(src) in
    t.seqs.(src) <- seq + 1;
    Label.make ?name ~origin:src ~seq ()
  in
  match t.impl with
  | I_fifo g ->
    (* FIFO and BSS infer ordering themselves; an explicit [dep] is
       ignored, as for any layer that does not read predicates. *)
    let label = fresh_label () in
    Label.Tbl.replace t.send_time label now;
    Fifo.Group.bcast g ~src ?tag:name payload;
    Some label
  | I_bss g ->
    let label = fresh_label () in
    Label.Tbl.replace t.send_time label now;
    Bss.Group.bcast g ~src ?tag:name payload;
    Some label
  | I_pc g ->
    let label = fresh_label () in
    Label.Tbl.replace t.send_time label now;
    (* the group's internal counter mirrors [t.seqs]: both 0-based,
       both bumped once per submit, so its label equals [label] *)
    ignore (Pcbcast.Group.bcast g ~src ?tag:name payload);
    Some label
  | I_psync p ->
    let label = fresh_label () in
    (* recorded before the send, because Psync delivers the local copy
       synchronously; its internal counter mirrors [t.seqs] as the PC
       group's does, so its label equals [label] *)
    Label.Tbl.replace t.send_time label now;
    ignore (Psync.send p ~src ?name payload);
    Some label
  | I_osend { group; sequencer = None } ->
    Some (Ogroup.osend group ~src ?name ~dep payload)
  | I_osend { sequencer = Some s; _ } ->
    (* The label is allocated by the sequencer when it broadcasts, after
       the submission hop; delivery reports it via [on_deliver]. *)
    Asend.Sequencer.asend s ~src ?name payload;
    None

let run t = Engine.run t.engine

(* --- inspection ----------------------------------------------------- *)

let delivered_order t node = List.rev t.app_rev.(node)

let all_delivered_orders t =
  List.init t.nodes (fun node -> delivered_order t node)

let delivered_count t node = t.app_count.(node)

let messages_sent t =
  let sent, _, _ = t.net_stats () in
  sent

let blocked_on t node =
  match t.impl with
  | I_fifo _ | I_bss _ | I_pc _ -> []
  | I_psync p -> Osend.blocked_on (Psync.member p node)
  | I_osend { group; _ } -> Osend.blocked_on (Ogroup.member group node)

let osend_group t =
  match t.impl with
  | I_osend { group; _ } -> Some group
  | I_fifo _ | I_bss _ | I_psync _ | I_pc _ -> None

let graph t =
  match t.impl with
  | I_psync p -> Some (Osend.graph (Psync.member p 0))
  | I_osend { group; _ } -> Some (Osend.graph (Ogroup.member group 0))
  | I_pc g -> Some (Pcbcast.Group.graph g)
  | I_fifo _ | I_bss _ -> None

let partition t cells = t.do_partition cells

let heal t = t.do_heal ()

let lost_copies t = t.do_lost ()

let install_nemesis t schedule =
  Causalb_net.Nemesis.install ~engine:t.engine ~partition:t.do_partition
    ~heal:t.do_heal ~set_fault:t.do_set_fault schedule

let metrics t =
  let sent, delivered, in_flight = t.net_stats () in
  let transport =
    Metrics.snapshot ~name:"transport" ~received:sent ~delivered
      ~buffered:in_flight ()
  in
  let per_member f = List.init t.nodes f in
  let causal =
    match t.impl with
    | I_fifo g ->
      Metrics.combine ~latency:t.causal_latency ~name:"causal:fifo"
        (per_member (fun i -> Fifo.metrics (Fifo.Group.member g i)))
    | I_bss g ->
      Metrics.combine ~latency:t.causal_latency ~name:"causal:bss"
        (per_member (fun i -> Bss.metrics (Bss.Group.member g i)))
    | I_psync p ->
      Metrics.combine ~latency:t.causal_latency ~name:"causal:psync"
        (per_member (fun i -> Psync.metrics p i))
    | I_osend { group; _ } ->
      Metrics.combine ~latency:t.causal_latency ~name:"causal:osend"
        (per_member (fun i -> Osend.metrics (Ogroup.member group i)))
    | I_pc g ->
      Metrics.combine ~latency:t.causal_latency ~name:"causal:pc"
        (per_member (fun i -> Pcbcast.metrics (Pcbcast.Group.member g i)))
  in
  let total =
    match t.impl with
    | I_osend { sequencer = Some s; _ } -> [ Asend.Sequencer.metrics s ]
    | _ -> (
      let parts =
        Array.to_list t.totals
        |> List.filter_map (function
             | T_pass -> None
             | T_merge m -> Some (Asend.Merge.metrics m)
             | T_counted c -> Some (Asend.Counted.metrics c))
      in
      match (parts, t.total_name) with
      | [], _ | _, None -> []
      | parts, Some name ->
        [ Metrics.combine ~latency:t.total_latency ~name parts ])
  in
  (transport :: causal :: total)

(* --- guarantee lattice ---------------------------------------------- *)

module Guarantee = Causalb_stackbase.Guarantee

(* The bottom-up [(layer, requires, provides)] descriptors the static
   verifier folds.  Per-link FIFO transport delivers each sender's copies
   in send order at each receiver, which for broadcast is exactly the
   per-sender FIFO guarantee. *)
let layer_guarantees ~ordering ~total ~fifo =
  let transport =
    ( "transport",
      Guarantee.Unordered,
      if fifo then Guarantee.Fifo else Guarantee.Unordered )
  in
  let causal =
    match ordering with
    | Fifo -> ("causal:fifo", Fifo.requires, Fifo.provides)
    | Bss -> ("causal:bss", Bss.requires, Bss.provides)
    | Psync -> ("causal:psync", Psync.requires, Psync.provides)
    | Osend -> ("causal:osend", Osend.requires, Osend.provides)
    | Pc -> ("causal:pc", Pcbcast.requires, Pcbcast.provides)
  in
  let tail =
    match total with
    | Pass -> []
    | Merge _ ->
      [ ("total:merge", Asend.Merge.requires, Asend.Merge.provides) ]
    | Counted _ ->
      [ ("total:counted", Asend.Counted.requires, Asend.Counted.provides) ]
    | Sequencer _ ->
      [
        ( "total:sequencer",
          Asend.Sequencer.requires,
          Asend.Sequencer.provides );
      ]
  in
  transport :: causal :: tail

let describe t =
  let causal = ordering_name (match t.impl with
    | I_fifo _ -> Fifo
    | I_bss _ -> Bss
    | I_psync _ -> Psync
    | I_osend _ -> Osend
    | I_pc _ -> Pc)
  in
  let total = match t.total_name with None -> "" | Some n -> " -> " ^ n in
  Printf.sprintf "transport -> %s%s -> app" causal total

let pp_metrics ppf t =
  Format.fprintf ppf "@[<v>%s@," (describe t);
  List.iter (fun m -> Format.fprintf ppf "%a@," Metrics.pp m) (metrics t);
  Format.fprintf ppf "@]"
