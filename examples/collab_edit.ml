(* Collaborative editing: an RGA sequence driven through the ordering
   stack by the spec functor — no CRDT merge function anywhere.

   The RGA object is an ordinary sequential specification (Seq_spec):
   its state is a grow-only map of characters anchored after each other
   plus a tombstone set, and its commutativity relation declares that
   inserts and deletes always commute (they add under globally unique
   ids), while reading the text is an observer.  The Cid/Ncid labeling
   is DERIVED from that relation — both mutators ride the concurrent
   §6.1 window; only reads are sync points — and the causal broadcast
   layer supplies exactly the delivery order the relation requires, so
   every replica shows the same text at every read.

   Run with:  dune exec examples/collab_edit.exe *)

module Engine = Causalb_sim.Engine
module Latency = Causalb_sim.Latency
module Seq_spec = Causalb_data.Seq_spec
module Rga = Causalb_data.Objects.Rga
module Service = Causalb_data.Service
module Replica = Causalb_data.Replica

let () =
  Printf.printf "rga spec: classes = %s; derived Cid = {%s}\n\n"
    (String.concat "," Rga.spec.Seq_spec.classes)
    (String.concat "," (Seq_spec.cid_classes Rga.spec));

  let engine = Engine.create ~seed:2026 () in
  let service =
    Service.create engine ~replicas:3 ~spec:Rga.spec
      ~latency:(Latency.lognormal ~mu:0.5 ~sigma:1.0 ())
      ~fifo:false ()
  in
  let at time src op =
    Engine.schedule_at engine ~time (fun () ->
        ignore (Service.submit service ~src op))
  in

  (* Author 0 types "hi" at the head while author 1 concurrently types
     "yo" there too: four inserts in one window, racing.  The RGA order
     (higher id wins the same anchor) interleaves them identically at
     every replica. *)
  at 0.0 0 (Rga.Insert { id = (1, 0); after = None; ch = "h" });
  at 0.4 0 (Rga.Insert { id = (2, 0); after = Some (1, 0); ch = "i" });
  at 0.1 1 (Rga.Insert { id = (1, 1); after = None; ch = "y" });
  at 0.5 1 (Rga.Insert { id = (2, 1); after = Some (1, 1); ch = "o" });
  (* a read closes the first cycle: the first stable text *)
  at 6.0 2 Rga.Read;

  (* Next window: author 2 appends "!", author 1 deletes its "y" — a
     delete is still a Cid operation for this spec. *)
  at 8.0 2 (Rga.Insert { id = (3, 2); after = Some (2, 0); ch = "!" });
  at 8.2 1 (Rga.Delete (1, 1));
  at 14.0 0 Rga.Read;

  Service.run service;

  print_endline "--- after the run ---";
  List.iter
    (fun r ->
      Printf.printf "replica %d: text = %S (%d live chars, %d cycles)\n"
        (Replica.id r)
        (Rga.to_text (Replica.stable_state r))
        (Rga.size (Replica.stable_state r))
        (Replica.cycles_closed r))
    (Service.replicas service);

  print_endline "consistency checks:";
  List.iter
    (fun (name, ok) ->
      Printf.printf "  %-32s %s\n" name (if ok then "ok" else "VIOLATED"))
    (Service.check service)
