module Trace = Causalb_sim.Trace
module Label = Causalb_graph.Label
module Depgraph = Causalb_graph.Depgraph

(* Rebuild a trace with the tag/info payloads of records [i] and [j]
   exchanged: the node "observed" the two events in the opposite order
   while times stay monotone — exactly the shape of an ordering bug. *)
let swap_tags trace i j =
  let out = Trace.create ~capacity:(Trace.length trace) () in
  let ri = Trace.get trace i and rj = Trace.get trace j in
  for k = 0 to Trace.length trace - 1 do
    let r = Trace.get trace k in
    let src = if k = i then rj else if k = j then ri else r in
    Trace.record out ~time:r.Trace.time ~node:r.Trace.node ~kind:r.Trace.kind
      ~tag:src.Trace.tag ~info:src.Trace.info ()
  done;
  out

(* Indexed records of one kind at one node, preserving global indices. *)
let indexed trace ~node kind =
  let acc = ref [] and i = ref 0 in
  Trace.iter trace (fun r ->
      if r.Trace.node = node && r.Trace.kind = kind then acc := (!i, r) :: !acc;
      incr i);
  List.rev !acc

let find_adjacent trace ~kind ~pick =
  let rec scan = function
    | (i, a) :: ((j, b) :: _ as rest) ->
      if pick a b then Some (i, j, a, b) else scan rest
    | _ -> None
  in
  List.find_map
    (fun node -> scan (indexed trace ~node kind))
    (Trace_check.nodes trace)

let swap_found trace = function
  | None -> None
  | Some (i, j, a, b) -> Some (swap_tags trace i j, a, b)

let resolver graph =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun l -> Hashtbl.replace tbl (Label.to_string l) l)
    (Depgraph.labels graph);
  fun tag -> Hashtbl.find_opt tbl tag

let reorder_causal ~graph trace =
  let resolve = resolver graph in
  find_adjacent trace ~kind:Trace.Deliver ~pick:(fun a b ->
      match (resolve a.Trace.tag, resolve b.Trace.tag) with
      | Some la, Some lb ->
        List.exists (Label.equal la) (Depgraph.parents graph lb)
      | _ -> false)
  |> swap_found trace

let reorder_fifo ~graph trace =
  let resolve = resolver graph in
  find_adjacent trace ~kind:Trace.Deliver ~pick:(fun a b ->
      match (resolve a.Trace.tag, resolve b.Trace.tag) with
      | Some la, Some lb ->
        Label.origin la = Label.origin lb && Label.seq la < Label.seq lb
      | _ -> false)
  |> swap_found trace

let reorder_release ?sync ~graph trace =
  let resolve = resolver graph in
  let pick =
    match sync with
    | None -> fun a b -> not (String.equal a.Trace.tag b.Trace.tag)
    | Some sync ->
      (* Swap an interior message with the sync that closes its window:
         the message migrates to the next window at this node only. *)
      fun a b ->
        (match (resolve a.Trace.tag, resolve b.Trace.tag) with
        | Some la, Some lb ->
          (not (Label.Set.mem la sync)) && Label.Set.mem lb sync
        | _ -> false)
  in
  find_adjacent trace ~kind:Trace.Release ~pick |> swap_found trace

(* Record [i] twice: the copy follows the original at once, so the node's
   delivered set and its per-sender high-water mark both already hold
   the message — a second delivery, not a reordering. *)
let duplicate_delivery ~graph trace =
  let resolve = resolver graph in
  let idx = ref None and i = ref 0 in
  Trace.iter trace (fun r ->
      if
        !idx = None
        && r.Trace.kind = Trace.Deliver
        && r.Trace.node >= 0
        && resolve r.Trace.tag <> None
      then idx := Some (!i, r);
      incr i);
  match !idx with
  | None -> None
  | Some (i, victim) ->
    let out = Trace.create ~capacity:(Trace.length trace + 1) () in
    let copy (r : Trace.record) =
      Trace.record out ~time:r.Trace.time ~node:r.Trace.node
        ~kind:r.Trace.kind ~tag:r.Trace.tag ~info:r.Trace.info ()
    in
    for k = 0 to Trace.length trace - 1 do
      copy (Trace.get trace k);
      if k = i then copy victim
    done;
    Some (out, victim)

let corrupt_mark trace =
  let idx = ref None and i = ref 0 in
  Trace.iter trace (fun r ->
      if !idx = None && Trace.is_stable_mark r then idx := Some (!i, r);
      incr i);
  match !idx with
  | None -> None
  | Some (i, victim) ->
    let out = Trace.create ~capacity:(Trace.length trace) () in
    for k = 0 to Trace.length trace - 1 do
      let r = Trace.get trace k in
      let info =
        if k = i then r.Trace.info ^ "!corrupted" else r.Trace.info
      in
      Trace.record out ~time:r.Trace.time ~node:r.Trace.node
        ~kind:r.Trace.kind ~tag:r.Trace.tag ~info ()
    done;
    Some (out, victim)

let drop_label graph victim =
  let out = Depgraph.create () in
  List.iter
    (fun l ->
      if not (Label.equal l victim) then
        Depgraph.add out l ~dep:(Depgraph.dep_of graph l))
    (Depgraph.labels graph);
  out
