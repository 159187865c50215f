module Net = Causalb_net.Net
module Engine = Causalb_sim.Engine
module Label = Causalb_graph.Label
module Dep = Causalb_graph.Dep

type view = { vid : int; members : int list }

(* Control traffic flows through the same per-view causal engine as
   application traffic, so flush ordering is enforced by causal delivery
   itself. *)
type 'a in_view =
  | App of 'a
  | Announce of { next : view; crashed : int list }
  | Flush of {
      vid : int;
      from : int;
      relayed : 'a in_view Message.t list;
          (* messages from crashed senders the flusher had received:
             stabilised so every survivor closes the view on the same set *)
    }

type ('a, 's) packet =
  | Viewed of { vid : int; msg : 'a in_view Message.t }
  | Join_req of int
  | Leave_req of int
  | Fail_req of int
  | State_xfer of { view : view; state : 's option }

(* Per-node, per-view delivery machinery and bookkeeping. *)
type 'a station = {
  id : int;
  engines : (int, 'a in_view Osend.t) Hashtbl.t; (* vid -> engine *)
  buffered : (int, 'a in_view Message.t list) Hashtbl.t; (* future views *)
  mutable current : view option;
  mutable installed : view list; (* newest first *)
  mutable sent_in_view : Label.t list; (* labels I broadcast in current view *)
  mutable my_seq : int;
  mutable changing : view option; (* announced next view, flushing *)
  mutable changing_crashed : int list; (* crashed set of the open change *)
  mutable flushes_seen : int list; (* members whose flush arrived (for changing) *)
  mutable flush_sent : bool;
  seen_app : (int, 'a in_view Message.t list) Hashtbl.t;
      (* every App envelope received per vid, for flush relaying *)
  banned : (int * int, unit) Hashtbl.t;
      (* (vid, crashed sender): direct copies refused after our flush *)
  mutable queued_sends : (string option * 'a) list; (* reversed *)
  delivered_per_view : (int, Label.t list) Hashtbl.t; (* reversed app labels *)
  member_vids : (int, bool) Hashtbl.t; (* vid -> was I a member of it *)
  mutable last_sent : Label.t option; (* sender FIFO chaining *)
}

type ('a, 's) t = {
  net : ('a, 's) packet Net.t;
  engine : Engine.t;
  stations : 'a station array;
  on_deliver : node:int -> vid:int -> time:float -> 'a Message.t -> unit;
  on_view : node:int -> view -> unit;
  get_state : (node:int -> 's) option;
  set_state : node:int -> 's -> unit;
  (* coordinator-side queue of pending membership changes *)
  mutable pending_changes : [ `Join of int | `Leave of int | `Crash of int ] list;
  mutable change_in_flight : bool;
  dead : bool array;
}

let sorted_members ms = List.sort_uniq Int.compare ms

let coordinator view = List.fold_left min max_int view.members

let view_of t node = t.stations.(node).current

let views_seen t node = List.rev t.stations.(node).installed

let is_member t node =
  (not t.dead.(node))
  &&
  match t.stations.(node).current with
  | Some v -> List.mem node v.members
  | None -> false

let delivered_in_view t node ~vid =
  List.rev
    (Option.value ~default:[]
       (Hashtbl.find_opt t.stations.(node).delivered_per_view vid))

(* --- forward declarations through a ref, as delivery triggers sends --- *)

let rec handle_delivery t st ~vid (msg : 'a in_view Message.t) =
  match Message.payload msg with
  | App payload ->
    let prev =
      Option.value ~default:[] (Hashtbl.find_opt st.delivered_per_view vid)
    in
    Hashtbl.replace st.delivered_per_view vid (Message.label msg :: prev);
    t.on_deliver ~node:st.id ~vid ~time:(Engine.now t.engine)
      (Message.make ~label:(Message.label msg) ~sender:(Message.sender msg)
         ~dep:(Message.dep msg) payload)
  | Announce { next; crashed } ->
    on_announce t st ~announce_label:(Message.label msg) ~crashed next
  | Flush { vid = fvid; from; relayed } -> on_flush t st ~fvid ~from ~relayed

and engine_for t st vid =
  match Hashtbl.find_opt st.engines vid with
  | Some e -> e
  | None ->
    let e =
      Osend.create ~id:st.id
        ~deliver:(fun msg -> handle_delivery t st ~vid msg)
        ()
    in
    Hashtbl.replace st.engines vid e;
    e

and raw_broadcast t st ~vid ?name ~dep payload =
  let seq = st.my_seq in
  st.my_seq <- seq + 1;
  let label = Label.make ?name ~origin:st.id ~seq () in
  let msg = Message.make ~label ~sender:st.id ~dep payload in
  Net.broadcast t.net ~src:st.id ~self:false (Viewed { vid; msg });
  (* local copy processed immediately *)
  Osend.receive (engine_for t st vid) msg;
  label

and app_broadcast t st ?name ?after payload =
  match st.current with
  | None -> invalid_arg "Vgroup.bcast: node has no view"
  | Some v ->
    let dep =
      match after with
      | Some ancestors -> Dep.after_all ancestors
      | None -> (
        match st.last_sent with None -> Dep.null | Some l -> Dep.after l)
    in
    let label = raw_broadcast t st ~vid:v.vid ?name ~dep (App payload) in
    st.last_sent <- Some label;
    st.sent_in_view <- label :: st.sent_in_view;
    label

and on_announce t st ~announce_label ~crashed next_view =
  (* Delivered within the old view's engine.  Start flushing.  Note:
     flushes_seen is NOT reset — another member's flush may have been
     delivered before the announce reached us. *)
  st.changing <- Some next_view;
  st.changing_crashed <- crashed;
  (match st.current with
  | Some v when List.mem st.id v.members && not st.flush_sent ->
    st.flush_sent <- true;
    (* stabilise crashed senders' traffic: relay every message of theirs
       we received in this view, and refuse further direct copies — a
       crashed message survives iff some flusher saw it, and then it
       reaches everyone through the flushes *)
    let relayed =
      if crashed = [] then []
      else
        List.filter
          (fun m -> List.mem (Message.sender m) crashed)
          (Option.value ~default:[] (Hashtbl.find_opt st.seen_app v.vid))
    in
    List.iter (fun c -> Hashtbl.replace st.banned (v.vid, c) ()) crashed;
    (* the flush causally follows the announce and everything I sent in
       this view, so by causal delivery every view-k message of mine
       precedes my flush at every member *)
    let dep = Dep.after_all (announce_label :: st.sent_in_view) in
    ignore
      (raw_broadcast t st ~vid:v.vid
         ~name:(Printf.sprintf "flush.%d.%d" v.vid st.id)
         ~dep
         (Flush { vid = v.vid; from = st.id; relayed }))
  | Some _ | None -> ());
  maybe_install t st

and on_flush t st ~fvid ~from ~relayed =
  (* relayed messages first: they are part of the closing view's set *)
  (match st.current with
  | Some v when v.vid = fvid ->
    List.iter (Osend.receive (engine_for t st fvid)) relayed;
    st.flushes_seen <- from :: st.flushes_seen
  | Some _ | None -> ());
  maybe_install t st

and maybe_install t st =
  match (st.changing, st.current) with
  | Some next, Some old ->
    let have = List.sort_uniq Int.compare st.flushes_seen in
    let expected =
      List.filter (fun m -> not (List.mem m st.changing_crashed)) old.members
    in
    if List.for_all (fun m -> List.mem m have) expected then
      install t st next
  | Some _, None | None, _ -> ()

and install t st next_view =
  st.current <- Some next_view;
  st.installed <- next_view :: st.installed;
  st.changing <- None;
  st.changing_crashed <- [];
  st.flushes_seen <- [];
  st.flush_sent <- false;
  st.sent_in_view <- [];
  st.last_sent <- None;
  let i_am_member = List.mem st.id next_view.members in
  Hashtbl.replace st.member_vids next_view.vid i_am_member;
  (* Coordinator: snapshot application state for joiners FIRST — at this
     instant the state reflects exactly the closed view (all its messages
     applied, none of the new view's), so the transfer plus the joiner's
     own new-view deliveries cover every operation exactly once. *)
  if st.id = coordinator next_view then send_state_transfers t st next_view;
  t.on_view ~node:st.id next_view;
  (* release messages that arrived for this view before we installed it —
     only if we belong to it (a leaver must go silent) *)
  (match Hashtbl.find_opt st.buffered next_view.vid with
  | Some msgs when i_am_member ->
    Hashtbl.remove st.buffered next_view.vid;
    List.iter (Osend.receive (engine_for t st next_view.vid)) (List.rev msgs)
  | Some _ | None -> ());
  (* coordinator responsibilities *)
  if st.id = coordinator next_view then begin
    t.change_in_flight <- false;
    schedule_next_change t
  end;
  (* drain queued sends into the new view *)
  let queued = List.rev st.queued_sends in
  st.queued_sends <- [];
  if List.mem st.id next_view.members then
    List.iter
      (fun (name, payload) -> ignore (app_broadcast t st ?name payload))
      queued

and send_state_transfers t st view =
  (* newly added members need the application state and the view *)
  let prev_members =
    match st.installed with
    | _ :: prev :: _ -> prev.members
    | [ _ ] | [] -> []
  in
  let joiners =
    List.filter (fun m -> not (List.mem m prev_members)) view.members
  in
  List.iter
    (fun j ->
      if j <> st.id then begin
        let state =
          match t.get_state with
          | Some f -> Some (f ~node:st.id)
          | None -> None
        in
        Net.send t.net ~src:st.id ~dst:j ~size:1 (State_xfer { view; state })
      end)
    joiners

and schedule_next_change t =
  if not t.change_in_flight then begin
    match t.pending_changes with
    | [] -> ()
    | change :: rest ->
      t.pending_changes <- rest;
      start_change t change
  end

and live_coordinator t =
  (* the smallest live member of the current membership announces; a dead
     node never qualifies *)
  Array.to_list t.stations
  |> List.filter_map (fun st ->
         match st.current with
         | Some v when
             List.mem st.id v.members
             && (not t.dead.(st.id))
             && st.id
                = List.fold_left
                    (fun acc m -> if t.dead.(m) then acc else min acc m)
                    max_int v.members ->
           Some (st, v)
         | Some _ | None -> None)
  |> function
  | [] -> None
  | hd :: _ -> Some hd

and start_change t change =
  match live_coordinator t with
  | None -> () (* no live coordinator; request stays dropped *)
  | Some (st, v) ->
    let crashed =
      match change with `Crash n -> [ n ] | `Join _ | `Leave _ -> []
    in
    let members =
      match change with
      | `Join n -> sorted_members (n :: v.members)
      | `Leave n | `Crash n -> List.filter (fun m -> m <> n) v.members
    in
    if members = [] then ()
    else if sorted_members members = sorted_members v.members then
      (* no-op change; move on *)
      schedule_next_change t
    else begin
      t.change_in_flight <- true;
      let next = { vid = v.vid + 1; members } in
      ignore
        (raw_broadcast t st ~vid:v.vid
           ~name:(Printf.sprintf "view.%d" next.vid)
           ~dep:(Dep.after_all st.sent_in_view)
           (Announce { next; crashed }))
    end

let handle_packet t node packet =
  let st = t.stations.(node) in
  if t.dead.(node) then ()
  else
    match packet with
    | Viewed { vid; msg } ->
      (* record App envelopes for possible flush relaying *)
      (match Message.payload msg with
      | App _ ->
        let prev =
          Option.value ~default:[] (Hashtbl.find_opt st.seen_app vid)
        in
        Hashtbl.replace st.seen_app vid (msg :: prev)
      | Announce _ | Flush _ -> ());
      let banned =
        Hashtbl.mem st.banned (vid, Message.sender msg)
        &&
        match Message.payload msg with App _ -> true | _ -> false
      in
      if banned then ()
      else (
        match st.current with
        | Some v when vid <= v.vid ->
          (* only process traffic of views this node belonged to; a leaver
             still drains stragglers of its old views but ignores new ones *)
          if Option.value ~default:false (Hashtbl.find_opt st.member_vids vid)
          then Osend.receive (engine_for t st vid) msg
        | Some _ | None ->
          (* message from a view this node has not installed yet: buffer *)
          let prev =
            Option.value ~default:[] (Hashtbl.find_opt st.buffered vid)
          in
          Hashtbl.replace st.buffered vid (msg :: prev))
    | Join_req n ->
      t.pending_changes <- t.pending_changes @ [ `Join n ];
      schedule_next_change t
    | Leave_req n ->
      t.pending_changes <- t.pending_changes @ [ `Leave n ];
      schedule_next_change t
    | Fail_req n ->
      t.pending_changes <- t.pending_changes @ [ `Crash n ];
      schedule_next_change t
  | State_xfer { view; state } ->
    let newer =
      match st.current with Some v -> v.vid < view.vid | None -> true
    in
    if newer then begin
      (match state with Some s -> t.set_state ~node:node s | None -> ());
      (* pre-join traffic is covered by the state snapshot: discard it *)
      Hashtbl.iter
        (fun vid _ -> if vid < view.vid then Hashtbl.replace st.member_vids vid false)
        st.buffered;
      List.iter (Hashtbl.remove st.buffered)
        (Hashtbl.fold
           (fun vid _ acc -> if vid < view.vid then vid :: acc else acc)
           st.buffered []);
      install t st view
    end

let create net ~initial ?(on_deliver = fun ~node:_ ~vid:_ ~time:_ _ -> ())
    ?(on_view = fun ~node:_ _ -> ()) ?get_state
    ?(set_state = fun ~node:_ _ -> ()) () =
  let n = Net.nodes net in
  let engine = Net.engine net in
  let initial = sorted_members initial in
  List.iter
    (fun m ->
      if m < 0 || m >= n then invalid_arg "Vgroup.create: member out of range")
    initial;
  if initial = [] then invalid_arg "Vgroup.create: empty initial membership";
  let stations =
    Array.init n (fun id ->
        {
          id;
          engines = Hashtbl.create 4;
          buffered = Hashtbl.create 4;
          current = None;
          installed = [];
          sent_in_view = [];
          my_seq = 0;
          changing = None;
          changing_crashed = [];
          flushes_seen = [];
          flush_sent = false;
          seen_app = Hashtbl.create 4;
          banned = Hashtbl.create 4;
          queued_sends = [];
          delivered_per_view = Hashtbl.create 4;
          member_vids = Hashtbl.create 4;
          last_sent = None;
        })
  in
  let t =
    {
      net;
      engine;
      stations;
      on_deliver;
      on_view;
      get_state;
      set_state;
      pending_changes = [];
      change_in_flight = false;
      dead = Array.make n false;
    }
  in
  for node = 0 to n - 1 do
    Net.set_handler net node (fun ~src:_ packet -> handle_packet t node packet)
  done;
  let view0 = { vid = 0; members = initial } in
  List.iter
    (fun m ->
      let st = stations.(m) in
      st.current <- Some view0;
      st.installed <- [ view0 ];
      Hashtbl.replace st.member_vids 0 true;
      on_view ~node:m view0)
    initial;
  t

let bcast t ~src ?name payload =
  let st = t.stations.(src) in
  if t.dead.(src) then invalid_arg "Vgroup.bcast: node has crashed";
  match st.current with
  | None -> invalid_arg "Vgroup.bcast: node is not a member"
  | Some v ->
    if not (List.mem src v.members) then
      invalid_arg "Vgroup.bcast: node is not a member"
    else if st.changing <> None then
      (* view change in progress: queue until the new view installs *)
      st.queued_sends <- (name, payload) :: st.queued_sends
    else ignore (app_broadcast t st ?name payload)

let send t ~src ?name ?after payload =
  let st = t.stations.(src) in
  if t.dead.(src) then invalid_arg "Vgroup.send: node has crashed";
  match st.current with
  | None -> invalid_arg "Vgroup.send: node is not a member"
  | Some v ->
    if not (List.mem src v.members) then
      invalid_arg "Vgroup.send: node is not a member"
    else if st.changing <> None then
      (* a view change is in flight: the stated ancestors would die with
         the old view — the caller must resubmit in the new view *)
      None
    else Some (app_broadcast t st ?name ?after payload)

let is_changing t node = t.stations.(node).changing <> None

let request t req =
  (* requests go to whichever station is currently a live coordinator;
     in a real deployment this is a unicast to the known coordinator —
     here the lookup is simulation convenience. *)
  match live_coordinator t with
  | Some (st, _) -> handle_packet t st.id req
  | None -> invalid_arg "Vgroup: no live coordinator"

let join t ~node = request t (Join_req node)

let leave t ~node = request t (Leave_req node)

let crash t ~node =
  if node < 0 || node >= Array.length t.stations then
    invalid_arg "Vgroup.crash: node out of range";
  t.dead.(node) <- true

let report_failure t ~node =
  if not t.dead.(node) then
    invalid_arg "Vgroup.report_failure: node is not crashed";
  request t (Fail_req node)

let is_crashed t node = t.dead.(node)

(* --- verifiers --- *)

let closed_views t =
  (* a view id is closed at a node if the node has installed a later one *)
  let tbl = Hashtbl.create 8 in
  Array.iter
    (fun st ->
      let installed = List.rev st.installed in
      let rec scan = function
        | a :: (b :: _ as rest) ->
          ignore b;
          let prev = Option.value ~default:[] (Hashtbl.find_opt tbl a.vid) in
          Hashtbl.replace tbl a.vid (st.id :: prev);
          scan rest
        | [ _ ] | [] -> ()
      in
      scan installed)
    t.stations;
  tbl

let check_virtual_synchrony t =
  let closed = closed_views t in
  Hashtbl.fold
    (fun vid nodes acc ->
      (* virtual synchrony constrains only the *members* of the view; a
         node that had installed the view as a non-member (a leaver, or a
         joiner's pre-history) delivers nothing in it by design *)
      let members =
        List.filter
          (fun node ->
            Option.value ~default:false
              (Hashtbl.find_opt t.stations.(node).member_vids vid))
          nodes
      in
      let sets =
        List.map
          (fun node -> Label.Set.of_list (delivered_in_view t node ~vid))
          members
      in
      let same =
        match sets with
        | [] -> true
        | first :: rest -> List.for_all (Label.Set.equal first) rest
      in
      acc && same)
    closed true

let check_views_agree t =
  (* collect each node's (vid -> members) and compare *)
  let ok = ref true in
  let reference = Hashtbl.create 8 in
  Array.iter
    (fun st ->
      List.iter
        (fun v ->
          match Hashtbl.find_opt reference v.vid with
          | None -> Hashtbl.replace reference v.vid v.members
          | Some ms -> if ms <> v.members then ok := false)
        st.installed)
    t.stations;
  !ok
