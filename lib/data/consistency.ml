module Label = Causalb_graph.Label

(* The one cross-replica walk: the earliest index at which some pair of
   the lists, both longer than it, fails [same].  Each pair is walked
   once over its common prefix, so the cost is linear in cycles. *)
let first_mismatch same lists =
  let rec walk i a b =
    match (a, b) with
    | x :: xs, y :: ys -> if same x y then walk (i + 1) xs ys else Some i
    | [], _ | _, [] -> None
  in
  let earlier a b =
    match (a, b) with
    | Some i, Some j -> Some (min i j)
    | None, x | x, None -> x
  in
  let rec pairs acc = function
    | [] -> acc
    | a :: rest ->
      pairs (List.fold_left (fun acc b -> earlier acc (walk 0 a b)) acc rest) rest
  in
  pairs None lists

let per_cycle f replicas =
  List.map (fun r -> List.map f (Replica.cycles r)) replicas

let first_disagreement = function
  | [] -> None
  | r :: _ as replicas ->
    first_mismatch (Replica.spec r).Seq_spec.equal
      (per_cycle (fun c -> c.Replica.end_state) replicas)

let agreement_at_stable_points replicas = first_disagreement replicas = None

let stable_digests_agree = function
  | [] -> true
  | r :: _ as replicas ->
    let digest = (Replica.spec r).Seq_spec.digest in
    first_mismatch Int.equal
      (per_cycle (fun c -> digest c.Replica.end_state) replicas)
    = None

let window_sets_agree replicas =
  first_mismatch Label.Set.equal
    (per_cycle
       (fun c -> Label.Set.of_list (List.map fst c.Replica.window))
       replicas)
  = None

let windows_transition_preserving replica =
  let spec = Replica.spec replica in
  let check_cycle c =
    let ops = List.map snd c.Replica.window in
    let rec pairs = function
      | [] -> true
      | a :: rest ->
        List.for_all (Seq_spec.commute_at spec c.Replica.start_state a) rest
        && pairs rest
    in
    pairs ops
  in
  List.for_all check_cycle (Replica.cycles replica)

let serial_witness replica =
  let spec = Replica.spec replica in
  let replay (state, ok, acc) c =
    let ops =
      List.map snd c.Replica.window @ [ snd c.Replica.closed_by ]
    in
    let state' = List.fold_left spec.Seq_spec.apply state ops in
    ( state',
      ok && spec.Seq_spec.equal state' c.Replica.end_state,
      List.rev_append ops acc )
  in
  let _, ok, acc =
    List.fold_left replay (spec.Seq_spec.init, true, [])
      (Replica.cycles replica)
  in
  if ok then Some (List.rev acc) else None

let divergence_fraction ~spec ~states =
  let eq = spec.Seq_spec.equal in
  let diverged sample =
    match sample with
    | [] | [ _ ] -> false
    | first :: rest -> not (List.for_all (eq first) rest)
  in
  match states with
  | [] -> 0.0
  | _ ->
    let total = List.length states in
    let bad = List.length (List.filter diverged states) in
    float_of_int bad /. float_of_int total
