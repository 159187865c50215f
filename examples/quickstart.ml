(* Quickstart: a replicated integer shared by three entities (Fig. 1/2 of
   the paper).

   Three replicas hold a local copy of one integer.  Clients send
   commutative inc/dec operations and occasional non-commutative reads
   through the §6.1 front-end manager; the causal broadcast layer delivers
   them so that every read closes a cycle and returns the same value at
   every replica — with no agreement protocol anywhere.

   Run with:  dune exec examples/quickstart.exe *)

module Engine = Causalb_sim.Engine
module Latency = Causalb_sim.Latency
module Dt = Causalb_data.Datatypes
module Service = Causalb_data.Service
module Replica = Causalb_data.Replica
module Stats = Causalb_util.Stats

let () =
  let engine = Engine.create ~seed:2024 () in
  let service =
    Service.create engine ~replicas:3 ~spec:Dt.Int_register.spec
      ~latency:(Latency.lognormal ~mu:0.5 ~sigma:1.0 ())
      ~fifo:false ()
  in

  (* Two clients race increments; a third client reads.  The read is
     non-commutative, so the front-end orders it after the whole window
     and it lands on a stable point. *)
  Engine.schedule_at engine ~time:0.0 (fun () ->
      ignore (Service.submit service ~src:0 (Dt.Int_register.Inc 10)));
  Engine.schedule_at engine ~time:0.1 (fun () ->
      ignore (Service.submit service ~src:1 (Dt.Int_register.Inc 5)));
  Engine.schedule_at engine ~time:0.2 (fun () ->
      ignore (Service.submit service ~src:1 (Dt.Int_register.Dec 3)));
  Engine.schedule_at engine ~time:5.0 (fun () ->
      ignore (Service.submit service ~src:2 Dt.Int_register.Read));

  (* A deferred read: ask replica 0 for the value at the next stable
     point (no broadcast needed, §5.1). *)
  Engine.schedule_at engine ~time:0.3 (fun () ->
      Replica.read_deferred (Service.replica service 0) (fun v ->
          Printf.printf "[%.3f ms] deferred read at replica 0 -> %d\n"
            (Engine.now engine) v));

  Service.run service;

  print_endline "--- after the run ---";
  List.iter
    (fun r ->
      Printf.printf "replica %d: stable value = %d (cycles closed: %d)\n"
        (Replica.id r) (Replica.stable_state r) (Replica.cycles_closed r))
    (Service.replicas service);

  Printf.printf "mean delivery latency: %.3f ms\n"
    (Stats.mean (Service.delivery_latency service));
  print_endline "consistency checks:";
  List.iter
    (fun (name, ok) ->
      Printf.printf "  %-32s %s\n" name (if ok then "ok" else "VIOLATED"))
    (Service.check service)
