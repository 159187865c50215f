module Trace = Causalb_sim.Trace
module Label = Causalb_graph.Label
module Dep = Causalb_graph.Dep
module Depgraph = Causalb_graph.Depgraph

(* --- trace access helpers ------------------------------------------- *)

let nodes trace =
  let seen = Hashtbl.create 8 in
  Trace.iter trace (fun r ->
      if r.Trace.node >= 0 then Hashtbl.replace seen r.Trace.node ());
  List.sort compare (Hashtbl.fold (fun n () acc -> n :: acc) seen [])

let records_at trace ~node kind =
  List.rev
    (Trace.fold trace ~init:[] ~f:(fun acc r ->
         if r.Trace.node = node && r.Trace.kind = kind then r :: acc else acc))

let deliver_records trace ~node = records_at trace ~node Trace.Deliver

let release_records trace ~node =
  (* The application-visible sequence: [Release] when the stack or a
     total-order layer recorded releases at this node, else the causal
     [Deliver] sequence (standalone engines record only that). *)
  match records_at trace ~node Trace.Release with
  | [] -> records_at trace ~node Trace.Deliver
  | rs -> rs

(* Trace tags are label renderings ([Label.to_string]); the graph is the
   authority for mapping them back.  Tags the graph does not know (bare
   transport records, protocol milestones) are skipped by every
   checker. *)
let resolver graph =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun l -> Hashtbl.replace tbl (Label.to_string l) l)
    (Depgraph.labels graph);
  fun tag -> Hashtbl.find_opt tbl tag

let chain_of graph a b =
  match Depgraph.shortest_path graph a b with
  | Some path -> path
  | None -> [ a; b ]

(* --- causal-delivery safety (paper §3–4) ----------------------------- *)

let causal ~graph trace =
  let resolve = resolver graph in
  let diags = ref [] in
  List.iter
    (fun node ->
      let records = deliver_records trace ~node in
      (* Membership is tracked by trace tag, not by graph-resolved label:
         the audited graph is one member's extracted R(M), and under loss
         it can lack a vertex for a message other members legitimately
         delivered — resolving such a delivery to nothing would drop it
         from the set and flag its descendants as premature.  Tags are
         label renderings and unique per run, so tag equality is label
         equality wherever both exist. *)
      let delivered = Hashtbl.create 64 in (* tag -> first Deliver record *)
      let later_record a rest =
        List.find_opt
          (fun r -> String.equal r.Trace.tag (Label.to_string a))
          rest
      in
      let rec scan = function
        | [] -> ()
        | r :: rest ->
          (match resolve r.Trace.tag with
          | None -> ()
          | Some label ->
            let ok l = Hashtbl.mem delivered (Label.to_string l) in
            let dep = Depgraph.dep_of graph label in
            if not (Dep.satisfied ~delivered:ok dep) then begin
              let missing =
                List.filter (fun a -> not (ok a)) (Dep.ancestors dep)
              in
              let first = List.hd missing in
              let ancestor_records =
                List.filter_map (fun a -> later_record a rest) missing
              in
              let describe a =
                match later_record a rest with
                | Some r' ->
                  Printf.sprintf "%s (delivered later, t=%.3f)"
                    (Label.to_string a) r'.Trace.time
                | None ->
                  Printf.sprintf "%s (never delivered here)"
                    (Label.to_string a)
              in
              let which =
                match dep with
                | Dep.After_any _ -> "any of its R(M) alternatives"
                | _ -> "its R(M) ancestors"
              in
              diags :=
                Diag.make ~check:"causal" ~node
                  ~records:(r :: ancestor_records)
                  ~chain:(chain_of graph first label)
                  (Printf.sprintf "%s delivered before %s: %s"
                     (Label.to_string label) which
                     (String.concat ", " (List.map describe missing)))
                :: !diags
            end);
          (* Every delivery joins the set, resolvable or not — a record
             the graph cannot name still satisfies dependencies that
             name it.  A tag already in the set is a second delivery of
             one message. *)
          (match Hashtbl.find_opt delivered r.Trace.tag with
          | Some first ->
            diags :=
              Diag.make ~check:"duplicate" ~node ~records:[ first; r ]
                (Printf.sprintf "%s delivered twice (first at t=%.3f)"
                   r.Trace.tag first.Trace.time)
              :: !diags
          | None -> Hashtbl.add delivered r.Trace.tag r);
          scan rest
      in
      scan records)
    (nodes trace);
  List.rev !diags

(* --- FIFO per sender -------------------------------------------------- *)

let fifo ~graph trace =
  let resolve = resolver graph in
  let diags = ref [] in
  List.iter
    (fun node ->
      let high = Hashtbl.create 8 in (* origin -> highest (seq, record) *)
      List.iter
        (fun r ->
          match resolve r.Trace.tag with
          | None -> ()
          | Some label ->
            let origin = Label.origin label and seq = Label.seq label in
            (match Hashtbl.find_opt high origin with
            | Some (s, prev) when s > seq ->
              diags :=
                Diag.make ~check:"fifo" ~node ~records:[ prev; r ]
                  (Printf.sprintf
                     "sender %d out of order: seq %d delivered after seq %d"
                     origin seq s)
                :: !diags
            | Some (s, prev) when s = seq ->
              diags :=
                Diag.make ~check:"duplicate" ~node ~records:[ prev; r ]
                  (Printf.sprintf "sender %d seq %d delivered twice" origin
                     seq)
                :: !diags
            | _ -> ());
            (match Hashtbl.find_opt high origin with
            | Some (s, _) when s > seq -> ()
            | _ -> Hashtbl.replace high origin (seq, r)))
        (deliver_records trace ~node))
    (nodes trace);
  List.rev !diags

(* --- total-order agreement (paper §5.2 / §3.2 windows) ---------------- *)

let strict_agreement per_node =
  match per_node with
  | [] | [ _ ] -> []
  | (n0, r0) :: rest ->
    List.concat_map
      (fun (n, r) ->
        let rec cmp i a b =
          match (a, b) with
          | [], [] -> []
          | x :: xs, y :: ys ->
            if String.equal x.Trace.tag y.Trace.tag then cmp (i + 1) xs ys
            else
              [
                Diag.make ~check:"total" ~node:n ~records:[ x; y ]
                  (Printf.sprintf
                     "release sequences diverge at position %d: node %d \
                      released %s where node %d released %s"
                     i n y.Trace.tag n0 x.Trace.tag);
              ]
          | x :: _, [] ->
            [
              Diag.make ~check:"total" ~node:n ~records:[ x ]
                (Printf.sprintf
                   "node %d released only %d messages; node %d continued \
                    with %s"
                   n i n0 x.Trace.tag);
            ]
          | [], y :: _ ->
            [
              Diag.make ~check:"total" ~node:n ~records:[ y ]
                (Printf.sprintf
                   "node %d released only %d messages; node %d continued \
                    with %s"
                   n0 i n y.Trace.tag);
            ]
        in
        cmp 0 r0 r)
      rest

(* Split a node's release sequence at the synchronization points: the
   result is a list of (interior set, closing sync) windows plus a
   trailing open window.  Members must agree on the sync order and on
   each interior *set* — order inside a window is free (commutative
   [Cid] reordering between [Ncid] anchors, §6.1). *)
let windows_of ~resolve ~sync records =
  let close (set, recs) sync_r = (set, recs, sync_r) in
  let rec go acc cur = function
    | [] -> (List.rev acc, cur)
    | r :: rest -> (
      match resolve r.Trace.tag with
      | None -> go acc cur rest
      | Some label ->
        if Label.Set.mem label sync then go (close cur r :: acc) (Label.Set.empty, []) rest
        else
          let set, recs = cur in
          go acc (Label.Set.add label set, r :: recs) rest)
  in
  go [] (Label.Set.empty, []) records

let set_to_string s =
  String.concat ", " (List.map Label.to_string (Label.Set.elements s))

let window_agreement ~resolve ~sync per_node =
  match per_node with
  | [] | [ _ ] -> []
  | (n0, r0) :: rest ->
    let w0, (tail0, _) = windows_of ~resolve ~sync r0 in
    List.concat_map
      (fun (n, r) ->
        let w, (tail, _) = windows_of ~resolve ~sync r in
        let rec cmp k a b =
          match (a, b) with
          | [], [] ->
            if Label.Set.equal tail0 tail then []
            else
              [
                Diag.make ~check:"total" ~node:n
                  (Printf.sprintf
                     "open windows differ after the last sync: node %d has \
                      {%s}, node %d has {%s}"
                     n0 (set_to_string tail0) n (set_to_string tail));
              ]
          | (s0, recs0, sr0) :: xs, (s, recs, sr) :: ys ->
            if not (String.equal sr0.Trace.tag sr.Trace.tag) then
              [
                Diag.make ~check:"total" ~node:n ~records:[ sr0; sr ]
                  (Printf.sprintf
                     "sync order diverges at window %d: node %d closed with \
                      %s, node %d with %s"
                     k n0 sr0.Trace.tag n sr.Trace.tag);
              ]
            else if not (Label.Set.equal s0 s) then begin
              let only0 = Label.Set.diff s0 s and only = Label.Set.diff s s0 in
              let offending =
                List.filter
                  (fun r ->
                    Label.Set.exists
                      (fun l -> String.equal (Label.to_string l) r.Trace.tag)
                      (Label.Set.union only0 only))
                  (List.rev_append recs0 (List.rev recs))
              in
              [
                Diag.make ~check:"total" ~node:n
                  ~records:(offending @ [ sr ])
                  (Printf.sprintf
                     "window %d (closed by %s) differs: only node %d has \
                      {%s}; only node %d has {%s}"
                     k sr.Trace.tag n0 (set_to_string only0) n
                     (set_to_string only));
              ]
            end
            else cmp (k + 1) xs ys
          | (_, _, sr) :: _, [] ->
            [
              Diag.make ~check:"total" ~node:n ~records:[ sr ]
                (Printf.sprintf
                   "node %d closed window %d with %s; node %d never closed it"
                   n0 k sr.Trace.tag n);
            ]
          | [], (_, _, sr) :: _ ->
            [
              Diag.make ~check:"total" ~node:n ~records:[ sr ]
                (Printf.sprintf
                   "node %d closed window %d with %s; node %d never closed it"
                   n k sr.Trace.tag n0);
            ]
        in
        cmp 0 w0 w)
      rest

let total_order ?(strict = false) ~graph ?sync trace =
  let per_node =
    List.map (fun n -> (n, release_records trace ~node:n)) (nodes trace)
    |> List.filter (fun (_, rs) -> rs <> [])
  in
  if strict then strict_agreement per_node
  else
    let resolve = resolver graph in
    let sync =
      match sync with
      | Some s -> s
      | None -> Label.Set.of_list (Depgraph.sync_points graph)
    in
    window_agreement ~resolve ~sync per_node

(* --- stable-point agreement (paper §4.1, §6.1) ------------------------ *)

let is_stable_mark r =
  r.Trace.kind = Trace.Mark
  && String.length r.Trace.tag >= 7
  && String.sub r.Trace.tag 0 7 = "stable:"

let stable_points trace =
  let marks_of node =
    List.filter is_stable_mark (records_at trace ~node Trace.Mark)
  in
  let per_node =
    List.map (fun n -> (n, marks_of n)) (nodes trace)
    |> List.filter (fun (_, ms) -> ms <> [])
  in
  match per_node with
  | [] | [ _ ] -> []
  | (n0, m0) :: rest ->
    let digest_at marks tag =
      List.find_opt (fun r -> String.equal r.Trace.tag tag) marks
    in
    List.concat_map
      (fun (n, marks) ->
        List.filter_map
          (fun r0 ->
            match digest_at marks r0.Trace.tag with
            | Some r when not (String.equal r.Trace.info r0.Trace.info) ->
              Some
                (Diag.make ~check:"stable" ~node:n ~records:[ r0; r ]
                   (Printf.sprintf
                      "replica digests disagree at %s: node %d recorded %s, \
                       node %d recorded %s"
                      r0.Trace.tag n0 r0.Trace.info n r.Trace.info))
            | _ -> None)
          m0)
      rest
