module Label = Causalb_graph.Label
module Dep = Causalb_graph.Dep
module Depgraph = Causalb_graph.Depgraph
module Seq_spec = Causalb_data.Seq_spec
module Window = Causalb_data.Window
module Op = Causalb_data.Op

type obj = {
  name : string;
  commutes : string -> string -> bool;
  observer : string -> bool;
}

type site = { label : Label.t; obj : string; cls : string }

type t = {
  graph : Depgraph.t;
  sync : Label.Set.t;
  objects : obj list;
  sites : site list;
  deps : Dep.t array;
}

let obj_of_spec ?name (spec : _ Seq_spec.t) =
  {
    name = Option.value name ~default:spec.Seq_spec.name;
    commutes = spec.Seq_spec.commutes;
    observer = spec.Seq_spec.observer;
  }

(* Replay the §6.1 front-end bookkeeping purely: member [src i] submits
   operation [i] with the Window-derived predicate, under the same
   per-origin label numbering the stack's submission path uses.  The
   predicates are also kept by position, for a driver that submits
   operation [i] with [deps.(i)]. *)
let build ~spec indexed =
  let obj = obj_of_spec spec in
  let win = Window.create () in
  let graph = Depgraph.create () in
  let sync = ref Label.Set.empty in
  let seqs = Hashtbl.create 8 in
  let deps = Array.make (List.length indexed) Dep.null in
  let sites =
    List.mapi
      (fun i (origin, op) ->
        let seq =
          match Hashtbl.find_opt seqs origin with None -> 0 | Some s -> s
        in
        Hashtbl.replace seqs origin (seq + 1);
        let label =
          Label.make ~name:("op" ^ string_of_int i) ~origin ~seq ()
        in
        let kind = Seq_spec.kind spec op in
        let dep = Dep.after_all (Window.deps_for win ~kind ~fallback:[]) in
        deps.(i) <- dep;
        Depgraph.add graph label ~dep;
        Window.note win ~kind label;
        if kind = Op.Non_commutative then sync := Label.Set.add label !sync;
        { label; obj = obj.name; cls = spec.Seq_spec.class_of op })
      indexed
  in
  {
    graph;
    sync = !sync;
    objects = [ obj ];
    sites;
    deps;
  }

let of_ops ~spec ?(src = fun _ -> 0) ops =
  build ~spec (List.mapi (fun i op -> (src i, op)) ops)

let of_submissions ~spec subs =
  let in_order =
    List.stable_sort (fun (ta, _, _) (tb, _, _) -> compare ta tb) subs
  in
  build ~spec (List.map (fun (_, src, op) -> (src, op)) in_order)

let of_sites ~graph ?(sync = Label.Set.empty) ~objects sites =
  List.iter
    (fun s ->
      if not (Depgraph.mem graph s.label) then
        invalid_arg
          (Printf.sprintf "Workload.of_sites: label %s missing from graph"
             (Label.to_string s.label));
      if not (List.exists (fun o -> o.name = s.obj) objects) then
        invalid_arg
          (Printf.sprintf "Workload.of_sites: unknown object %S" s.obj))
    sites;
  {
    graph;
    sync;
    objects;
    sites;
    deps =
      Array.of_list (List.map (fun s -> Depgraph.dep_of graph s.label) sites);
  }

let conflicts t a b =
  a.obj = b.obj
  && (not (Label.equal a.label b.label))
  &&
  match List.find_opt (fun o -> o.name = a.obj) t.objects with
  | None -> false
  | Some o ->
    o.observer a.cls || o.observer b.cls || not (o.commutes a.cls b.cls)
