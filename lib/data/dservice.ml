module Engine = Causalb_sim.Engine
module Net = Causalb_net.Net
module Vgroup = Causalb_core.Vgroup
module Message = Causalb_core.Message
module Label = Causalb_graph.Label

type ('op, 'state) node_state = {
  mutable data : 'state;
  mutable applied : int;
  (* stable snapshots, keyed by the label of the closing sync message:
     every node that applies that sync must snapshot the same state *)
  mutable snapshots : (Label.t * 'state) list; (* reversed *)
}

type ('op, 'state) t = {
  engine : Engine.t;
  group : ('op, 'state) Vgroup.t;
  spec : ('op, 'state) Seq_spec.t;
  nodes : ('op, 'state) node_state array;
  (* shared §6.1 front-end manager; label state dies with each view *)
  mutable manager_vid : int;
  win : Window.t;
  mutable parked : (int * 'op) list; (* reversed; submitted mid-change *)
}

let spec_apply t node ~label op =
  node.data <- t.spec.Seq_spec.apply node.data op;
  node.applied <- node.applied + 1;
  if not (Seq_spec.is_cid t.spec op) then
    node.snapshots <- (label, node.data) :: node.snapshots

(* An operation may go out only when its source sits exactly at the
   manager's epoch: labels the manager tracks all belong to [manager_vid],
   and a message carrying ancestors from another view's engine would
   block forever.  Anything else is parked and re-tried as views settle;
   a view boundary is itself a stable point, so restarting the window
   bookkeeping there is sound. *)
let rec manager_send t ~src op =
  let at_epoch =
    (not (Vgroup.is_changing t.group src))
    &&
    match Vgroup.view_of t.group src with
    | Some v -> v.Vgroup.vid = t.manager_vid
    | None -> false
  in
  if not at_epoch then t.parked <- (src, op) :: t.parked
  else begin
    let kind = Seq_spec.kind t.spec op in
    let after = Window.deps_for t.win ~kind ~fallback:[] in
    match Vgroup.send t.group ~src ~after op with
    | Some label -> Window.note t.win ~kind label
    | None -> t.parked <- (src, op) :: t.parked
  end

and drain_parked t =
  let parked = List.rev t.parked in
  t.parked <- [];
  List.iter
    (fun (src, op) ->
      if Vgroup.is_member t.group src then manager_send t ~src op)
    parked

let on_view t ~node:_ (v : Vgroup.view) =
  if v.Vgroup.vid > t.manager_vid then begin
    (* labels of the old view are dead; the install is a stable point *)
    t.manager_vid <- v.Vgroup.vid;
    Window.reset t.win
  end;
  (* every install may unblock parked submissions from that node *)
  drain_parked t

let create engine ~nodes:n ~initial ~spec ?latency () =
  let net = Net.create engine ~nodes:n ?latency ~fifo:false () in
  let node_states =
    Array.init n (fun _ ->
        { data = spec.Seq_spec.init; applied = 0; snapshots = [] })
  in
  let t_ref = ref None in
  let group =
    Vgroup.create net ~initial
      ~on_deliver:(fun ~node ~vid:_ ~time:_ msg ->
        match !t_ref with
        | Some t ->
          spec_apply t t.nodes.(node) ~label:(Message.label msg)
            (Message.payload msg)
        | None -> assert false)
      ~on_view:(fun ~node v ->
        match !t_ref with
        | Some t -> on_view t ~node v
        | None -> () (* initial view installs during create *))
      ~get_state:(fun ~node -> node_states.(node).data)
      ~set_state:(fun ~node s -> node_states.(node).data <- s)
      ()
  in
  let t =
    {
      engine;
      group;
      spec;
      nodes = node_states;
      manager_vid = 0;
      win = Window.create ();
      parked = [];
    }
  in
  t_ref := Some t;
  t

let submit t ~src op =
  if not (Vgroup.is_member t.group src) then
    invalid_arg "Dservice.submit: src is not a member";
  manager_send t ~src op

let join t ~node = Vgroup.join t.group ~node

let leave t ~node = Vgroup.leave t.group ~node

let is_member t node = Vgroup.is_member t.group node

let state t node = t.nodes.(node).data

let applied_count t node = t.nodes.(node).applied

let run ?until t = Engine.run ?until t.engine

let survivors t =
  List.filter (is_member t) (List.init (Array.length t.nodes) Fun.id)

let check t =
  let eq = t.spec.Seq_spec.equal in
  let survivor_states = List.map (state t) (survivors t) in
  let survivors_agree =
    match survivor_states with
    | [] -> true
    | first :: rest -> List.for_all (eq first) rest
  in
  (* stable snapshots: for every (vid, k) present at several nodes, the
     states must be equal *)
  let snap_tbl = Label.Tbl.create 32 in
  Array.iter
    (fun n ->
      List.iter
        (fun (label, s) ->
          let prev =
            Option.value ~default:[] (Label.Tbl.find_opt snap_tbl label)
          in
          Label.Tbl.replace snap_tbl label (s :: prev))
        n.snapshots)
    t.nodes;
  let snapshots_agree =
    Label.Tbl.fold
      (fun _ states acc ->
        acc
        &&
        match states with
        | [] -> true
        | first :: rest -> List.for_all (eq first) rest)
      snap_tbl true
  in
  [
    ("views-agree", Vgroup.check_views_agree t.group);
    ("virtual-synchrony", Vgroup.check_virtual_synchrony t.group);
    ("stable-snapshots-agree", snapshots_agree);
    ("survivor-states-agree", survivors_agree);
  ]
