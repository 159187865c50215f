(* T7 — the §5.1 item decomposition: per-item windows vs one global
   window.  "We may relax ordering between inc(x) and dec(x) … while the
   read operation is not commutative", per item: a sync on item x should
   wait only for item x's outstanding operations.  Same workload through
   the single-window front-end and the per-item front-end; the per-item
   variant imposes fewer constraint edges, so sync operations stop
   waiting for unrelated traffic. *)

module Engine = Causalb_sim.Engine
module Latency = Causalb_sim.Latency
module Net = Causalb_net.Net
module Group = Causalb_core.Group
module Osend = Causalb_core.Osend
module Message = Causalb_core.Message
module Label = Causalb_graph.Label
module Seq_spec = Causalb_data.Seq_spec
module Dt = Causalb_data.Datatypes
module Frontend = Causalb_data.Frontend
module Item_frontend = Causalb_data.Item_frontend
module Stats = Causalb_util.Stats
module Rng = Causalb_util.Rng
module Table = Causalb_util.Table
module Printer = Causalb_util.Printer

let replicas = 5

let ops = 400

let items = 8

let spec = Dt.Multi_register.spec ~items

let scope = function
  | Dt.Multi_register.Inc (i, _) | Dt.Multi_register.Dec (i, _)
  | Dt.Multi_register.Set (i, _) ->
    Item_frontend.Item i
  | Dt.Multi_register.Read_all -> Item_frontend.Global

let workload rng =
  List.init ops (fun k ->
      let item = Rng.int rng items in
      if (k + 1) mod 10 = 0 then Dt.Multi_register.Set (item, k)
      else Dt.Multi_register.Inc (item, 1))

type outcome = {
  sync_lat : Stats.t;
  all_lat : Stats.t;
  waits : int;
  edges : int;
}

let run ~per_item ~sigma =
  let engine = Engine.create ~seed:41 () in
  let net =
    Net.create engine ~nodes:replicas
      ~latency:(Latency.lognormal ~mu:0.5 ~sigma ())
      ~fifo:false ()
  in
  let send_times = Label.Tbl.create 256 in
  let sync_lat = Stats.create () and all_lat = Stats.create () in
  let group =
    Group.create net
      ~on_deliver:(fun ~node:_ ~time msg ->
        match Label.Tbl.find_opt send_times (Message.label msg) with
        | Some t0 ->
          let d = time -. t0 in
          Stats.add all_lat d;
          if
            Seq_spec.kind spec (Message.payload msg)
            = Causalb_data.Op.Non_commutative
          then Stats.add sync_lat d
        | None -> ())
      ()
  in
  let submit =
    if per_item then begin
      let fe = Item_frontend.create group ~kind:(Seq_spec.kind spec) ~scope () in
      fun ~src op -> Item_frontend.submit fe ~src op
    end
    else begin
      let fe = Frontend.create group ~kind:(Seq_spec.kind spec) () in
      fun ~src op -> Frontend.submit fe ~src op
    end
  in
  let rng = Engine.fork_rng engine in
  List.iteri
    (fun k op ->
      Engine.schedule_at engine ~time:(float_of_int k *. 0.5) (fun () ->
          let label = submit ~src:(k mod replicas) op in
          Label.Tbl.replace send_times label (Engine.now engine)))
    (workload rng);
  Engine.run engine;
  let waits =
    List.init replicas (fun n -> Osend.buffered_ever (Group.member group n))
    |> List.fold_left ( + ) 0
  in
  let edges =
    List.length (Causalb_graph.Depgraph.edges (Osend.graph (Group.member group 0)))
  in
  { sync_lat; all_lat; waits; edges }

let run () =
  let t =
    Table.create
      ~title:
        "T7: per-item windows vs one global window (8 items, 10% item \
         syncs, 5 replicas) — sync-op delivery latency"
      ~columns:
        [
          "sigma";
          "global sync p95";
          "per-item sync p95";
          "global waits";
          "per-item waits";
          "global edges/op";
          "per-item edges/op";
        ]
  in
  List.iter
    (fun sigma ->
      let g = run ~per_item:false ~sigma in
      let i = run ~per_item:true ~sigma in
      Table.add_row t
        [
          Printf.sprintf "%.1f" sigma;
          Exp_common.fmt (Stats.percentile g.sync_lat 95.0);
          Exp_common.fmt (Stats.percentile i.sync_lat 95.0);
          string_of_int g.waits;
          string_of_int i.waits;
          Printf.sprintf "%.2f" (float_of_int g.edges /. float_of_int ops);
          Printf.sprintf "%.2f" (float_of_int i.edges /. float_of_int ops);
        ])
    [ 0.4; 0.8; 1.2 ];
  Table.print t;
  Printer.line
    "Expected shape: the per-item front-end trims the constraint-edge\n\
     density and, more importantly, slashes forced waits and sync tail\n\
     latency — item syncs stop waiting for other items' in-flight\n\
     traffic, and the gap widens with link variance."
