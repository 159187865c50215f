module Label = Causalb_graph.Label
module Dep = Causalb_graph.Dep
module Depgraph = Causalb_graph.Depgraph

let causal_safety g order = Depgraph.verify_sequence g order

let causal_safety_all g orders = List.for_all (causal_safety g) orders

let same_set orders =
  match orders with
  | [] -> true
  | first :: rest ->
    let s0 = Label.Set.of_list first in
    List.length first = Label.Set.cardinal s0
    && List.for_all
         (fun o ->
           let s = Label.Set.of_list o in
           List.length o = Label.Set.cardinal s && Label.Set.equal s0 s)
         rest

let identical_orders orders =
  match orders with
  | [] -> true
  | first :: rest ->
    List.for_all
      (fun o ->
        List.length o = List.length first
        && List.for_all2 Label.equal first o)
      rest

let violations g order =
  let included = Label.Set.of_list order in
  let pos = Label.Tbl.create 64 in
  List.iteri (fun i l -> Label.Tbl.replace pos l i) order;
  List.concat_map
    (fun l ->
      if not (Depgraph.mem g l) then []
      else
        match Depgraph.dep_of g l with
        | Dep.After_any alts ->
          (* OR-dependency: violated only if no included alternative
             precedes the message. *)
          let rel = List.filter (fun a -> Label.Set.mem a included) alts in
          let ok =
            rel = []
            || List.exists
                 (fun a -> Label.Tbl.find pos a < Label.Tbl.find pos l)
                 rel
          in
          if ok then []
          else List.map (fun a -> (a, l)) rel
        | d ->
          List.filter_map
            (fun a ->
              if
                Label.Set.mem a included
                && Label.Tbl.find pos a > Label.Tbl.find pos l
              then Some (a, l)
              else None)
            (Dep.ancestors d))
    order
