(* O1 — causally consistent objects from sequential specifications.

   Three replicated objects whose Cid/Ncid labeling is derived from
   their Seq_spec commutativity relation (no hand-marked kinds), each
   run over the stable-point service with tracing on and audited twice:
   online by Service.check (including canonical stable-digest
   agreement) and offline by the ordering oracle over the trace.

   The workloads are the shared harness builders, so `causalb-check
   --objects` audits byte-for-byte the same runs this experiment
   prints. *)

module Drivers = Causalb_harness.Drivers
module Seq_spec = Causalb_data.Seq_spec
module Objects = Causalb_data.Objects
module Table = Causalb_util.Table
module Printer = Causalb_util.Printer

let replicas = 4

let rounds = 24

let window = 6

let row name cid (r : Drivers.object_result) =
  [
    name;
    cid;
    string_of_int r.Drivers.cycles;
    string_of_int r.Drivers.stable_marks;
    string_of_int r.Drivers.messages;
    (if List.for_all snd r.Drivers.checks then "ok" else "FAILED");
    (if r.Drivers.diagnostics = [] then "ok"
     else Printf.sprintf "%d diags" (List.length r.Drivers.diagnostics));
  ]

let cid_of spec = String.concat "," (Seq_spec.cid_classes spec)

let run () =
  let t =
    Table.create
      ~title:
        (Printf.sprintf
           "O1: spec-derived objects — %d replicas, %d rounds, window %d"
           replicas rounds window)
      ~columns:
        [ "object"; "derived Cid"; "cycles"; "marks"; "msgs"; "checks"; "oracle" ]
  in
  let counter =
    Drivers.run_object ~seed:42 ~replicas ~spec:Objects.Counter.spec
      (Drivers.counter_pipeline ~replicas ~rounds ~window ())
  in
  Table.add_row t (row "counter pipeline" (cid_of Objects.Counter.spec) counter);
  let cart =
    Drivers.run_object ~seed:43 ~replicas ~spec:Objects.Or_set.spec
      (Drivers.cart_workload ~replicas ~rounds ~window ())
  in
  Table.add_row t (row "or-set cart" (cid_of Objects.Or_set.spec) cart);
  let edit =
    Drivers.run_object ~seed:44 ~replicas ~spec:Objects.Rga.spec
      (Drivers.editing_workload ~replicas ~rounds ~window ())
  in
  Table.add_row t (row "rga collab edit" (cid_of Objects.Rga.spec) edit);
  Table.print t;
  Printer.line
    "Expected shape: every object derives its Cid set from the declared\n\
     commutativity relation (note the RGA: both mutators ride the\n\
     window, only the read is a sync point), every closing sync leaves\n\
     one stable Mark per member, and both the online checks and the\n\
     offline oracle come back clean."
