(* A replicated chat room on the shared Log datatype, wired through the
   composable ordering stack.

   The pipeline is  transport -> causal (OSend) -> total (Merge) -> app:
   chat lines are spontaneous commutative appends; sealing the room is
   the closing sync the deterministic merge anchors on.  Every replica
   therefore applies the identical operation sequence — the transcript is
   the same everywhere without a sequencer or extra protocol messages.

   Run with:  dune exec examples/chat.exe *)

module Engine = Causalb_sim.Engine
module Latency = Causalb_sim.Latency
module Stack = Causalb_stack.Stack
module Message = Causalb_core.Message
module Checker = Causalb_core.Checker
module Dep = Causalb_graph.Dep
module Dt = Causalb_data.Datatypes
module Seq_spec = Causalb_data.Seq_spec

let people = [| "ada"; "barbara"; "grace" |]

let () =
  let engine = Engine.create ~seed:17 () in
  let spec = Dt.Log.spec in
  let states = Array.make 3 spec.Seq_spec.init in
  let is_sync m =
    match Message.payload m with Dt.Log.Seal -> true | Dt.Log.Append _ -> false
  in
  let stack =
    Stack.compose ~ordering:Stack.Osend ~total:(Stack.Merge is_sync)
      ~latency:(Latency.lognormal ~mu:1.0 ~sigma:1.0 ())
      ~fifo:false
      ~on_deliver:(fun ~node ~time:_ msg ->
        states.(node) <- spec.Seq_spec.apply states.(node) (Message.payload msg))
      engine ~nodes:3 ()
  in
  let seqs = Array.make 3 0 in
  (* §6.1 shape: appends are spontaneous, but the seal names them all —
     that is what makes the merge bracket identical at every replica. *)
  let window = ref [] in
  let say ~who text =
    let seq = seqs.(who) in
    seqs.(who) <- seq + 1;
    match
      Stack.submit stack ~src:who ~dep:Dep.null
        (Dt.Log.Append (Dt.Log.entry ~author:who ~seq text))
    with
    | Some label -> window := label :: !window
    | None -> ()
  in
  Engine.schedule_at engine ~time:0.0 (fun () -> say ~who:0 "shall we cut 4.2?");
  Engine.schedule_at engine ~time:0.2 (fun () -> say ~who:1 "keep it, trim 5");
  Engine.schedule_at engine ~time:0.3 (fun () -> say ~who:2 "agree with barbara");
  Engine.schedule_at engine ~time:0.6 (fun () -> say ~who:0 "ok, trimming 5");
  Engine.schedule_at engine ~time:5.0 (fun () ->
      ignore
        (Stack.submit stack ~src:0
           ~dep:(Dep.after_all (List.rev !window))
           Dt.Log.Seal));
  Stack.run stack;

  print_endline "--- sealed transcript, as stored at every replica ---";
  List.iter
    (fun segment ->
      List.iter
        (fun (e : Dt.Log.entry) ->
          Printf.printf "  <%s> %s\n" people.(e.Dt.Log.author) e.Dt.Log.text)
        segment)
    (List.rev states.(1).Dt.Log.sealed);

  print_endline "\nconsistency checks:";
  let identical = Checker.identical_orders (Stack.all_delivered_orders stack) in
  Printf.printf "  %-32s %s\n" "identical release order"
    (if identical then "ok" else "VIOLATED");
  let all_equal =
    Array.for_all (fun s -> spec.Seq_spec.equal s states.(0)) states
  in
  Printf.printf "  %-32s %s\n" "transcripts identical"
    (if all_equal then "ok" else "VIOLATED");
  assert (identical && all_equal);

  print_endline "\nper-layer metrics:";
  Format.printf "%a@." Stack.pp_metrics stack
