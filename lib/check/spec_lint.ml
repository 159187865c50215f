module Label = Causalb_graph.Label
module Dep = Causalb_graph.Dep
module Depgraph = Causalb_graph.Depgraph

type issue =
  | Dangling of { label : Label.t; missing : Label.t }
  | Cycle of Label.t list
  | Redundant_edge of { label : Label.t; ancestor : Label.t; via : Label.t }
  | Dead_alternative of {
      label : Label.t;
      alt : Label.t;
      implied_by : Label.t;
    }
  | Unsatisfiable of { label : Label.t; missing : Label.t list }
  | Duplicate_label of { label : Label.t; first : int; second : int }

let issue_name = function
  | Dangling _ -> "lint:dangling"
  | Cycle _ -> "lint:cycle"
  | Redundant_edge _ -> "lint:redundant-edge"
  | Dead_alternative _ -> "lint:dead-alternative"
  | Unsatisfiable _ -> "lint:unsatisfiable"
  | Duplicate_label _ -> "lint:duplicate-label"

let pp_issue ppf = function
  | Dangling { label; missing } ->
    Format.fprintf ppf "%a names %a, which no send defines" Label.pp label
      Label.pp missing
  | Cycle path ->
    Format.fprintf ppf "dependency cycle: %s"
      (String.concat " -> " (List.map Label.to_string path))
  | Redundant_edge { label; ancestor; via } ->
    Format.fprintf ppf
      "%a -> %a is transitively redundant (already implied via %a)" Label.pp
      ancestor Label.pp label Label.pp via
  | Dead_alternative { label; alt; implied_by } ->
    Format.fprintf ppf
      "alternative %a of %a can never fire first: %a always precedes it"
      Label.pp alt Label.pp label Label.pp implied_by
  | Unsatisfiable { label; missing } ->
    Format.fprintf ppf
      "%a can never be delivered — it waits on %s; every descendant \
       deadlocks with it"
      Label.pp label
      (String.concat ", " (List.map Label.to_string missing))
  | Duplicate_label { label; first; second } ->
    Format.fprintf ppf
      "sends #%d and #%d both define %a — the second wait can never be \
       told apart from the first, and its dependents may fire early"
      first second Label.pp label

let issue_to_string i = Format.asprintf "%a" pp_issue i

let to_diag i =
  Diag.make ~check:(issue_name i)
    ~chain:
      (match i with
      | Dangling { label; missing } -> [ missing; label ]
      | Cycle path -> path
      | Redundant_edge { label; ancestor; via } -> [ ancestor; via; label ]
      | Dead_alternative { label; alt; implied_by } ->
        [ implied_by; alt; label ]
      | Unsatisfiable { label; missing } -> missing @ [ label ]
      | Duplicate_label { label; _ } -> [ label ])
    (issue_to_string i)

(* A send is unsatisfiable when its wait can never complete no matter
   what else is delivered: an AND-ancestor that no send defines, or an
   OR whose every alternative is undefined.  (Cyclic waits are also
   unsatisfiable but reported once, as the cycle.) *)
let unsatisfiable dep missing =
  match dep with
  | Dep.Null -> None
  | Dep.After _ | Dep.After_all _ ->
    if missing = [] then None else Some missing
  | Dep.After_any alts ->
    if missing <> [] && List.length missing = List.length alts then
      Some missing
    else None

(* Every ancestry question is asked of the reachability index by rank:
   the labels are numbered in insertion order, and each label's present
   parents are paired with their ranks in predicate order. *)
let lint ?reach g =
  let reach =
    match reach with
    | None -> Depgraph.reach g
    | Some r ->
      if not (Depgraph.indexes r g) then
        invalid_arg "Spec_lint.lint: the index is not this graph's";
      r
  in
  let issues = ref [] in
  let add i = issues := i :: !issues in
  let labels = Depgraph.labels g in
  (* a cycle shows in the index as a label that precedes itself *)
  let cyclic = ref false in
  List.iteri
    (fun i _ -> if Depgraph.precedes_rank reach i i then cyclic := true)
    labels;
  (if !cyclic then
     match Depgraph.find_cycle g with
     | Some path -> add (Cycle path)
     | None -> ());
  List.iter
    (fun l ->
      let dep = Depgraph.dep_of g l in
      let ancestors = Dep.ancestors dep in
      (* (label as named, rank) of every present parent *)
      let parents =
        List.filter_map
          (fun a -> Option.map (fun r -> (a, r)) (Depgraph.rank reach a))
          ancestors
      in
      let missing = List.filter (fun a -> not (Depgraph.mem g a)) ancestors in
      List.iter (fun missing -> add (Dangling { label = l; missing })) missing;
      (match unsatisfiable dep missing with
      | Some missing -> add (Unsatisfiable { label = l; missing })
      | None -> ());
      match dep with
      | Dep.Null | Dep.After _ -> ()
      | Dep.After_all _ ->
        (* Direct edge a -> l is redundant when another parent already
           transitively requires a: the wait is implied. *)
        List.iter
          (fun (a, ra) ->
            match
              List.find_opt
                (fun (_, rp) -> rp <> ra && Depgraph.precedes_rank reach ra rp)
                parents
            with
            | Some (via, _) ->
              add (Redundant_edge { label = l; ancestor = a; via })
            | None -> ())
          parents
      | Dep.After_any _ ->
        (* An alternative that happens-after another alternative can
           never be the one that fires: by the time it is delivered the
           earlier alternative already satisfied the OR. *)
        List.iter
          (fun (b, rb) ->
            match
              List.find_opt
                (fun (_, ra) -> ra <> rb && Depgraph.precedes_rank reach ra rb)
                parents
            with
            | Some (a, _) ->
              add (Dead_alternative { label = l; alt = b; implied_by = a })
            | None -> ())
          parents)
    labels;
  List.rev !issues

(* [Depgraph.add] rejects a second definition of a label outright, so the
   duplicate check has to act on the send list — before a graph can even
   be built from it.  Duplicates are reported (first and second position)
   and dropped; the surviving sends are then linted as a graph. *)
let lint_sends sends =
  let g = Depgraph.create () in
  let seen = Label.Tbl.create 16 in
  let dups = ref [] in
  List.iteri
    (fun i (label, dep) ->
      match Label.Tbl.find_opt seen label with
      | Some first ->
        dups := Duplicate_label { label; first; second = i } :: !dups
      | None ->
        Label.Tbl.replace seen label i;
        Depgraph.add g label ~dep)
    sends;
  List.rev !dups @ lint g

let to_diags issues = List.map to_diag issues
