module Group = Causalb_core.Group
module Label = Causalb_graph.Label
module Dep = Causalb_graph.Dep
module Depgraph = Causalb_graph.Depgraph

type 'op step = { name : string; src : int; after : string list; op : 'op }

let step name ~src ?(after = []) op = { name; src; after; op }

module Smap = Map.Make (String)

(* Kahn-style ordering of the steps themselves so each send can name the
   labels of the steps it follows. *)
let topo_order steps =
  let by_name =
    List.fold_left
      (fun acc s ->
        if Smap.mem s.name acc then
          invalid_arg
            (Printf.sprintf "Workflow: duplicate step name %S" s.name)
        else Smap.add s.name s acc)
      Smap.empty steps
  in
  List.iter
    (fun s ->
      List.iter
        (fun a ->
          if not (Smap.mem a by_name) then
            invalid_arg
              (Printf.sprintf "Workflow: step %S occurs after undeclared %S"
                 s.name a))
        s.after)
    steps;
  let indegree =
    List.fold_left
      (fun acc s -> Smap.add s.name (List.length s.after) acc)
      Smap.empty steps
  in
  let dependants =
    List.fold_left
      (fun acc s ->
        List.fold_left
          (fun acc a ->
            Smap.update a
              (fun prev -> Some (s.name :: Option.value ~default:[] prev))
              acc)
          acc s.after)
      Smap.empty steps
  in
  let ready =
    List.filter_map
      (fun s -> if Smap.find s.name indegree = 0 then Some s.name else None)
      steps
  in
  let rec loop ready indegree acc =
    match ready with
    | [] ->
      if List.length acc = List.length steps then List.rev acc
      else invalid_arg "Workflow: cyclic ordering"
    | name :: rest ->
      let deps = Option.value ~default:[] (Smap.find_opt name dependants) in
      let indegree, newly =
        List.fold_left
          (fun (ind, newly) d ->
            let k = Smap.find d ind - 1 in
            (Smap.add d k ind, if k = 0 then d :: newly else newly))
          (indegree, []) deps
      in
      loop (rest @ newly) indegree (Smap.find name by_name :: acc)
  in
  loop ready indegree []

let submit group steps =
  let ordered = topo_order steps in
  let labels = ref Smap.empty in
  List.iter
    (fun s ->
      let dep =
        Dep.after_all (List.map (fun a -> Smap.find a !labels) s.after)
      in
      let label = Group.osend group ~src:s.src ~name:s.name ~dep s.op in
      labels := Smap.add s.name label !labels)
    ordered;
  List.map (fun s -> (s.name, Smap.find s.name !labels)) steps

let of_ops ~spec ?(prefix = "op") ~src ops =
  let win = Window.create () in
  (* Window over step names instead of labels: the same §6.1 bookkeeping,
     resolved to labels only at submit time. *)
  let name_of i = Printf.sprintf "%s%d" prefix i in
  List.mapi
    (fun i op ->
      let kind = Seq_spec.kind spec op in
      let after = Window.deps_for win ~kind ~fallback:[] in
      Window.note win ~kind (Label.make ~name:(name_of i) ~origin:0 ~seq:i ());
      step (name_of i) ~src:(src i)
        ~after:(List.map Label.name after)
        op)
    ops

let graph_of steps =
  let ordered = topo_order steps in
  let g = Depgraph.create () in
  let labels = ref Smap.empty in
  List.iteri
    (fun i s ->
      let label = Label.make ~name:s.name ~origin:0 ~seq:i () in
      labels := Smap.add s.name label !labels)
    ordered;
  List.iter
    (fun s ->
      let dep =
        Dep.after_all (List.map (fun a -> Smap.find a !labels) s.after)
      in
      Depgraph.add g (Smap.find s.name !labels) ~dep)
    ordered;
  g
