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

let chain_of graph a b =
  match Depgraph.shortest_path graph a b with
  | Some path -> path
  | None -> [ a; b ]

(* --- the audit index -------------------------------------------------- *)

(* One node's records the checkers read, each sequence in trace order.
   Every [Deliver]/[Release] tag is numbered once per index, so the
   checkers compare, look up and collect integers; tag strings are only
   read again when a diagnostic is written. *)
type at_node = {
  node : int;
  deliver : Trace.record array;
  deliver_ids : int array;
  release : Trace.record array;
      (* the application-visible sequence: [Release] records when the
         node has any, else its [Deliver] records *)
  release_ids : int array;
  marks : Trace.record array; (* stable-point [Mark]s *)
}

type index = {
  graph : Depgraph.t;
  at : at_node array; (* nodes with any such record, ascending *)
  tags : (string, int) Hashtbl.t;
  label : Label.t option array;
      (* tag id -> the graph label rendering to that tag.  Trace tags are
         label renderings ([Label.to_string]) and the graph is the
         authority for mapping them back; tags the graph does not know
         (bare transport records, protocol milestones) resolve to
         nothing and are skipped by every checker. *)
}

type bucket = {
  mutable dl : Trace.record list; (* reversed *)
  mutable rl : Trace.record list;
  mutable ml : Trace.record list;
}

let rev_array = function
  | [] -> [||]
  | x :: _ as l ->
    let n = List.length l in
    let a = Array.make n x in
    List.iteri (fun i y -> a.(n - 1 - i) <- y) l;
    a

(* Trace nodes are member indices, so they index the table of buckets
   directly; it grows to the largest one seen. *)
let index ~graph trace =
  let table = ref [||] in
  let bucket node =
    if node >= Array.length !table then begin
      let grown = Array.make (max (node + 1) (2 * Array.length !table)) None in
      Array.blit !table 0 grown 0 (Array.length !table);
      table := grown
    end;
    match !table.(node) with
    | Some b -> b
    | None ->
      let b = { dl = []; rl = []; ml = [] } in
      !table.(node) <- Some b;
      b
  in
  Trace.iter trace (fun r ->
      let node = r.Trace.node in
      if node >= 0 then
        match r.Trace.kind with
        | Trace.Send | Trace.Receive | Trace.Drop -> ()
        | Trace.Deliver ->
          let b = bucket node in
          b.dl <- r :: b.dl
        | Trace.Release ->
          let b = bucket node in
          b.rl <- r :: b.rl
        | Trace.Mark ->
          if Trace.is_stable_mark r then begin
            let b = bucket node in
            b.ml <- r :: b.ml
          end);
  let buckets = ref [] in
  for n = Array.length !table - 1 downto 0 do
    match !table.(n) with
    | Some b -> buckets := (n, b) :: !buckets
    | None -> ()
  done;
  let tags = Hashtbl.create 64 in
  let id r =
    let tag = r.Trace.tag in
    match Hashtbl.find_opt tags tag with
    | Some i -> i
    | None ->
      let i = Hashtbl.length tags in
      Hashtbl.add tags tag i;
      i
  in
  let at =
    Array.of_list
      (List.map
         (fun (node, b) ->
           let deliver = rev_array b.dl in
           let deliver_ids = Array.map id deliver in
           let release, release_ids =
             match b.rl with
             | [] -> (deliver, deliver_ids)
             | rl ->
               let release = rev_array rl in
               (release, Array.map id release)
           in
           {
             node;
             deliver;
             deliver_ids;
             release;
             release_ids;
             marks = rev_array b.ml;
           })
         !buckets)
  in
  let label = Array.make (Hashtbl.length tags) None in
  (* insertion order: when two labels render alike the later one wins *)
  List.iter
    (fun l ->
      match Hashtbl.find_opt tags (Label.to_string l) with
      | Some i -> label.(i) <- Some l
      | None -> ())
    (Depgraph.labels graph);
  { graph; at; tags; label }

let tag_id ix tag =
  match Hashtbl.find_opt ix.tags tag with Some i -> i | None -> -1

(* The tag id of a label's rendering, -1 when no record carries it. *)
let tag_of ix l = tag_id ix (Label.to_string l)

let ntags ix = Array.length ix.label

(* --- causal-delivery safety (paper §3–4) ----------------------------- *)

let check_causal ix =
  let graph = ix.graph in
  (* Per tag, its label's R(M) predicate with every named ancestor
     resolved to a tag id once (-1: no record carries it, so it is never
     delivered anywhere). *)
  let deps = Array.make (ntags ix) None in
  let dep_of t l =
    match deps.(t) with
    | Some d -> d
    | None ->
      let dep = Depgraph.dep_of graph l in
      let ids =
        Array.of_list
          (List.map (tag_of ix) (Dep.ancestors dep))
      in
      let d = (dep, ids) in
      deps.(t) <- Some d;
      d
  in
  (* Membership is tracked by trace tag, not by graph-resolved label: the
     audited graph is one member's extracted R(M), and under loss it can
     lack a vertex for a message other members legitimately delivered —
     resolving such a delivery to nothing would drop it from the set and
     flag its descendants as premature.  Tags are label renderings and
     unique per run, so tag equality is label equality wherever both
     exist.  [first.(t)] is the position of the node's first [Deliver]
     of tag [t], or -1; reset after each node. *)
  let first = Array.make (ntags ix) (-1) in
  let diags = ref [] in
  Array.iter
    (fun a ->
      let records = a.deliver and ids = a.deliver_ids in
      let node = a.node in
      let delivered t = t >= 0 && first.(t) >= 0 in
      let ok l = delivered (tag_of ix l) in
      Array.iteri
        (fun i r ->
          let t = ids.(i) in
          (match ix.label.(t) with
          | None -> ()
          | Some label ->
            let dep, anc = dep_of t label in
            let satisfied =
              match dep with
              | Dep.Null -> true
              | Dep.After _ | Dep.After_all _ -> Array.for_all delivered anc
              | Dep.After_any _ -> Array.exists delivered anc
            in
            if not satisfied then begin
              let missing = List.filter (fun a -> not (ok a)) (Dep.ancestors dep) in
              let later_record a =
                let tag = Label.to_string a in
                let rec go k =
                  if k >= Array.length records then None
                  else if String.equal records.(k).Trace.tag tag then
                    Some records.(k)
                  else go (k + 1)
                in
                go (i + 1)
              in
              let first_missing = List.hd missing in
              let ancestor_records = List.filter_map later_record missing in
              let describe a =
                match later_record a with
                | Some r' ->
                  Printf.sprintf "%s (delivered later, t=%.3f)"
                    (Label.to_string a) r'.Trace.time
                | None ->
                  Printf.sprintf "%s (never delivered here)" (Label.to_string a)
              in
              let which =
                match dep with
                | Dep.After_any _ -> "any of its R(M) alternatives"
                | _ -> "its R(M) ancestors"
              in
              diags :=
                Diag.make ~check:"causal" ~node
                  ~records:(r :: ancestor_records)
                  ~chain:(chain_of graph first_missing label)
                  (Printf.sprintf "%s delivered before %s: %s"
                     (Label.to_string label) which
                     (String.concat ", " (List.map describe missing)))
                :: !diags
            end);
          (* Every delivery joins the set, resolvable or not — a record
             the graph cannot name still satisfies dependencies that name
             it.  A tag already in the set is a second delivery of one
             message. *)
          let f = first.(t) in
          if f >= 0 then
            diags :=
              Diag.make ~check:"duplicate" ~node ~records:[ records.(f); r ]
                (Printf.sprintf "%s delivered twice (first at t=%.3f)"
                   r.Trace.tag records.(f).Trace.time)
              :: !diags
          else first.(t) <- i)
        records;
      Array.iter (fun t -> first.(t) <- -1) ids)
    ix.at;
  List.rev !diags

(* --- FIFO per sender -------------------------------------------------- *)

let check_fifo ix =
  (* Origins numbered densely over the resolved tags, so each node's
     per-origin high-water mark is two array slots. *)
  let origins = Hashtbl.create 8 in
  let slot =
    Array.map
      (function
        | None -> -1
        | Some l -> (
          let o = Label.origin l in
          match Hashtbl.find_opt origins o with
          | Some s -> s
          | None ->
            let s = Hashtbl.length origins in
            Hashtbl.add origins o s;
            s))
      ix.label
  in
  let n_origins = Hashtbl.length origins in
  let high_seq = Array.make n_origins (-1) (* -1: nothing delivered yet *) in
  let high_at = Array.make n_origins 0 in (* position of that record *)
  let diags = ref [] in
  Array.iter
    (fun a ->
      let node = a.node and records = a.deliver in
      Array.fill high_seq 0 n_origins (-1);
      Array.iteri
        (fun i r ->
          let t = a.deliver_ids.(i) in
          match ix.label.(t) with
          | None -> ()
          | Some label ->
            let o = slot.(t) in
            let origin = Label.origin label and seq = Label.seq label in
            let s = high_seq.(o) in
            if s > seq then
              diags :=
                Diag.make ~check:"fifo" ~node
                  ~records:[ records.(high_at.(o)); r ]
                  (Printf.sprintf
                     "sender %d out of order: seq %d delivered after seq %d"
                     origin seq s)
                :: !diags
            else begin
              if s = seq then
                diags :=
                  Diag.make ~check:"duplicate" ~node
                    ~records:[ records.(high_at.(o)); r ]
                    (Printf.sprintf "sender %d seq %d delivered twice" origin
                       seq)
                  :: !diags;
              high_seq.(o) <- seq;
              high_at.(o) <- i
            end)
        records)
    ix.at;
  List.rev !diags

(* --- total-order agreement (paper §5.2 / §3.2 windows) ---------------- *)

let releasing ix =
  List.filter (fun a -> Array.length a.release > 0) (Array.to_list ix.at)

let strict_agreement = function
  | [] | [ _ ] -> []
  | a0 :: rest ->
    let n0 = a0.node and r0 = a0.release in
    List.concat_map
      (fun a ->
        let n = a.node and r = a.release in
        let len0 = Array.length r0 and len = Array.length r in
        let rec cmp i =
          if i < len0 && i < len then
            if a0.release_ids.(i) = a.release_ids.(i) then cmp (i + 1)
            else
              let x = r0.(i) and y = r.(i) in
              [
                Diag.make ~check:"total" ~node:n ~records:[ x; y ]
                  (Printf.sprintf
                     "release sequences diverge at position %d: node %d \
                      released %s where node %d released %s"
                     i n y.Trace.tag n0 x.Trace.tag);
              ]
          else if i < len0 then
            let x = r0.(i) in
            [
              Diag.make ~check:"total" ~node:n ~records:[ x ]
                (Printf.sprintf
                   "node %d released only %d messages; node %d continued \
                    with %s"
                   n i n0 x.Trace.tag);
            ]
          else if i < len then
            let y = r.(i) in
            [
              Diag.make ~check:"total" ~node:n ~records:[ y ]
                (Printf.sprintf
                   "node %d released only %d messages; node %d continued \
                    with %s"
                   n0 i n y.Trace.tag);
            ]
          else []
        in
        cmp 0)
      rest

(* One window of a node's release sequence: the interior as the sorted,
   duplicate-free tag ids of its graph-known messages (two tags never
   resolve to one label, so equal id sets are equal label sets), the
   interior records in release order, and the closing sync's record and
   tag id. *)
type window = {
  interior : int array;
  records : Trace.record list;
  closed_by : (Trace.record * int) option; (* [None]: the open tail *)
}

let set_of_ids ids =
  let sorted = List.sort_uniq Int.compare ids in
  Array.of_list sorted

(* Split a node's release sequence at the synchronization points: closed
   windows in order plus the trailing open one.  Members must agree on
   the sync order and on each interior *set* — order inside a window is
   free (commutative [Cid] reordering between [Ncid] anchors, §6.1). *)
let windows_of ix ~is_sync a =
  let rec go acc ids recs i =
    if i = Array.length a.release then
      List.rev
        ({ interior = set_of_ids ids; records = List.rev recs; closed_by = None }
        :: acc)
    else
      let t = a.release_ids.(i) and r = a.release.(i) in
      match ix.label.(t) with
      | None -> go acc ids recs (i + 1)
      | Some _ ->
        if is_sync.(t) then
          go
            ({
               interior = set_of_ids ids;
               records = List.rev recs;
               closed_by = Some (r, t);
             }
            :: acc)
            [] [] (i + 1)
        else go acc (t :: ids) (r :: recs) (i + 1)
  in
  go [] [] [] 0

let set_to_string ix ids =
  let set =
    Array.fold_left
      (fun s t ->
        match ix.label.(t) with Some l -> Label.Set.add l s | None -> s)
      Label.Set.empty ids
  in
  String.concat ", " (List.map Label.to_string (Label.Set.elements set))

let diff a b = Array.of_list (List.filter (fun t -> not (Array.mem t b)) (Array.to_list a))

let window_agreement ix ~is_sync = function
  | [] | [ _ ] -> []
  | a0 :: rest ->
    let n0 = a0.node in
    let w0 = windows_of ix ~is_sync a0 in
    List.concat_map
      (fun a ->
        let n = a.node in
        let rec cmp k w0 w =
          match (w0, w) with
          | { closed_by = None; interior = tail0; _ } :: _,
            { closed_by = None; interior = tail; _ } :: _ ->
            if tail0 = tail then []
            else
              [
                Diag.make ~check:"total" ~node:n
                  (Printf.sprintf
                     "open windows differ after the last sync: node %d has \
                      {%s}, node %d has {%s}"
                     n0 (set_to_string ix tail0) n (set_to_string ix tail));
              ]
          | { closed_by = Some (sr0, s0); interior = i0; records = recs0 } :: xs,
            { closed_by = Some (sr, s); interior = i1; records = recs } :: ys ->
            if s0 <> s then
              [
                Diag.make ~check:"total" ~node:n ~records:[ sr0; sr ]
                  (Printf.sprintf
                     "sync order diverges at window %d: node %d closed with \
                      %s, node %d with %s"
                     k n0 sr0.Trace.tag n sr.Trace.tag);
              ]
            else if i0 <> i1 then begin
              let only0 = diff i0 i1 and only = diff i1 i0 in
              let offending =
                List.filter
                  (fun r ->
                    let t = tag_id ix r.Trace.tag in
                    Array.mem t only0 || Array.mem t only)
                  (recs0 @ recs)
              in
              [
                Diag.make ~check:"total" ~node:n
                  ~records:(offending @ [ sr ])
                  (Printf.sprintf
                     "window %d (closed by %s) differs: only node %d has \
                      {%s}; only node %d has {%s}"
                     k sr.Trace.tag n0 (set_to_string ix only0) n
                     (set_to_string ix only));
              ]
            end
            else cmp (k + 1) xs ys
          | { closed_by = Some (sr, _); _ } :: _, _ ->
            [
              Diag.make ~check:"total" ~node:n ~records:[ sr ]
                (Printf.sprintf
                   "node %d closed window %d with %s; node %d never closed it"
                   n0 k sr.Trace.tag n);
            ]
          | _, { closed_by = Some (sr, _); _ } :: _ ->
            [
              Diag.make ~check:"total" ~node:n ~records:[ sr ]
                (Printf.sprintf
                   "node %d closed window %d with %s; node %d never closed it"
                   n k sr.Trace.tag n0);
            ]
          | [], _ | _, [] -> []
        in
        cmp 0 w0 (windows_of ix ~is_sync a))
      rest

let check_total_order ?(strict = false) ?sync ix =
  let per_node = releasing ix in
  if strict then strict_agreement per_node
  else
    let sync =
      match sync with
      | Some s -> s
      | None -> Label.Set.of_list (Depgraph.sync_points ix.graph)
    in
    let is_sync =
      Array.map
        (function Some l -> Label.Set.mem l sync | None -> false)
        ix.label
    in
    window_agreement ix ~is_sync per_node

(* --- stable-point agreement (paper §4.1, §6.1) ------------------------ *)

(* Each cycle's reference is the lowest node that recorded its tag: every
   mark of that node is compared with the first mark of the same tag at
   each higher node.  Disagreements against the lowest marking node of
   all come first, node by node; those against the other reference nodes
   follow, by compared node, then reference node. *)
let check_stable_points ix =
  match
    List.filter (fun a -> Array.length a.marks > 0) (Array.to_list ix.at)
  with
  | [] | [ _ ] -> []
  | a0 :: rest as per_node ->
    (* tag -> [(node, that node's first mark of the tag)], ascending *)
    let firsts = Hashtbl.create 16 in
    List.iter
      (fun a ->
        Array.iter
          (fun r ->
            let tag = r.Trace.tag in
            match Hashtbl.find_opt firsts tag with
            | None -> Hashtbl.add firsts tag [ (a.node, r) ]
            | Some seen ->
              if not (List.mem_assoc a.node seen) then
                Hashtbl.replace firsts tag (seen @ [ (a.node, r) ]))
          a.marks)
      per_node;
    let against a_ref a =
      List.filter_map
        (fun r0 ->
          let tag = r0.Trace.tag in
          let seen = Hashtbl.find firsts tag in
          if fst (List.hd seen) <> a_ref.node then None
          else
            match List.assoc_opt a.node seen with
            | Some r when not (String.equal r.Trace.info r0.Trace.info) ->
              Some
                (Diag.make ~check:"stable" ~node:a.node ~records:[ r0; r ]
                   (Printf.sprintf
                      "replica digests disagree at %s: node %d recorded %s, \
                       node %d recorded %s"
                      tag a_ref.node r0.Trace.info a.node r.Trace.info))
            | _ -> None)
        (Array.to_list a_ref.marks)
    in
    List.concat_map (against a0) rest
    @ List.concat_map
        (fun a ->
          List.concat_map
            (fun a_ref -> if a_ref.node < a.node then against a_ref a else [])
            rest)
        rest

(* --- the per-trace entry points --------------------------------------- *)

let causal ~graph trace = check_causal (index ~graph trace)

let fifo ~graph trace = check_fifo (index ~graph trace)

let total_order ?strict ~graph ?sync trace =
  check_total_order ?strict ?sync (index ~graph trace)

let stable_points trace =
  check_stable_points (index ~graph:(Depgraph.create ()) trace)
