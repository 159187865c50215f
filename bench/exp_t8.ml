(* T8 — the paper's model vs causal DSM (ref [5]).  §5.2: "Our approach
   to maintaining consistency of distributed shared data is somewhat
   different from the 'distributed shared memory' model used in [5] in
   the way the shared data is realized and the application semantics is
   exploited in the access protocols."

   Same workload — assignments to a handful of variables plus reads —
   three ways:
   - causal memory: writes causally broadcast, reads local and instant,
     no agreement ever (concurrent writes may diverge permanently);
   - stable points + deferred reads: writes are sync ops, reads wait for
     the next stable point, zero extra messages, always agreed;
   - stable points + broadcast reads: reads are ops too (one broadcast
     each), agreed at their own stable point.

   The trade surfaces as: read latency vs agreement vs divergence. *)

module Engine = Causalb_sim.Engine
module Latency = Causalb_sim.Latency
module Cmem = Causalb_protocols.Causal_memory
module Dt = Causalb_data.Datatypes
module Service = Causalb_data.Service
module Replica = Causalb_data.Replica
module Stats = Causalb_util.Stats
module Rng = Causalb_util.Rng
module Table = Causalb_util.Table
module Printer = Causalb_util.Printer

let nodes = 5

let writes = 200

let reads = 100

let vars = 4

let latency = Latency.lognormal ~mu:0.5 ~sigma:1.0 ()

(* schedule: at each tick either a write or a read, interleaved 2:1 *)
let schedule rng =
  List.init (writes + reads) (fun i ->
      let when_ = float_of_int i *. 0.5 in
      let src = i mod nodes in
      let var = Rng.int rng vars in
      if i mod 3 = 2 then (when_, src, `Read var) else (when_, src, `Write (var, i)))

let run_cmem () =
  let e = Engine.create ~seed:51 () in
  let m = Cmem.create e ~nodes ~latency () in
  let rng = Engine.fork_rng e in
  let read_lat = Stats.create () in
  List.iter
    (fun (when_, src, act) ->
      Engine.schedule_at e ~time:when_ (fun () ->
          match act with
          | `Write (v, x) -> Cmem.write m ~node:src ~var:(string_of_int v) x
          | `Read v ->
            ignore (Cmem.read m ~node:src ~var:(string_of_int v));
            Stats.add read_lat 0.0))
    (schedule rng);
  Engine.run e;
  let divergent = List.length (Cmem.divergent_vars m) in
  (Cmem.messages_sent m, read_lat, Printf.sprintf "%d vars diverged" divergent, "no")

let run_stable ~sync_reads () =
  let e = Engine.create ~seed:51 () in
  let spec = Dt.Multi_register.spec ~items:vars in
  let svc = Service.create e ~replicas:nodes ~spec ~latency ~fifo:false () in
  let rng = Engine.fork_rng e in
  let read_lat = Stats.create () in
  List.iter
    (fun (when_, src, act) ->
      Engine.schedule_at e ~time:when_ (fun () ->
          match act with
          | `Write (v, x) ->
            ignore (Service.submit svc ~src (Dt.Multi_register.Set (v, x)))
          | `Read _ when sync_reads ->
            let t0 = Engine.now e in
            ignore (Service.submit svc ~src Dt.Multi_register.Read_all);
            (* answered when the read is applied at the asking replica *)
            Replica.read_deferred (Service.replica svc src) (fun _ ->
                Stats.add read_lat (Engine.now e -. t0))
          | `Read _ ->
            let t0 = Engine.now e in
            Replica.read_deferred (Service.replica svc src) (fun _ ->
                Stats.add read_lat (Engine.now e -. t0))))
    (schedule rng);
  Service.run svc;
  let ok = List.for_all snd (Service.check svc) in
  let states = List.map Replica.stable_state (Service.replicas svc) in
  let converged = List.for_all (( = ) (List.hd states)) states in
  ( Service.messages_sent svc,
    read_lat,
    (if converged then "converged" else "DIVERGED"),
    if ok then "yes" else "VIOLATED" )

let run () =
  let t =
    Table.create
      ~title:
        "T8: causal DSM (ref [5]) vs stable-point shared data — 200 \
         assignments + 100 reads, 4 variables, 5 nodes"
      ~columns:
        [
          "model";
          "unicasts";
          "read p50 ms";
          "read p95 ms";
          "final state";
          "agreement guaranteed";
        ]
  in
  let row name (msgs, lat, final, agreed) =
    Table.add_row t
      [
        name;
        string_of_int msgs;
        Exp_common.fmt (Stats.percentile lat 50.0);
        Exp_common.fmt (Stats.percentile lat 95.0);
        final;
        agreed;
      ]
  in
  row "causal memory [5]" (run_cmem ());
  row "stable points + deferred reads" (run_stable ~sync_reads:false ());
  row "stable points + sync reads" (run_stable ~sync_reads:true ());
  Table.print t;
  Printer.line
    "Expected shape: causal memory reads instantly and cheaply but can\n\
     leave variables permanently divergent after concurrent assignments;\n\
     the stable-point model pays read latency (deferred) or read\n\
     broadcasts (sync) and in exchange every value returned is an agreed\n\
     one and replicas provably converge."
