(* PC-broadcast: causal delivery from FIFO links with constant-size
   control information (Nédelec, Molli & Mostéfaoui, "Breaking the
   Scalability Barrier of Causal Broadcast for Large and Dynamic
   Systems").

   Where BSS piggybacks an O(n) vector stamp on every message, PC ships
   only (origin, seq) and extracts causal order from the channels
   themselves: every member floods a message to its open out-links on
   first receipt, *before* delivering it, so each link carries messages
   in an order consistent with the forwarder's causal delivery order,
   and per-link FIFO preserves that order to the next hop.

   Two local structures make the receive path O(1) per copy:

   - a per-origin cursor replaces the delivered-set: along any single
     link, copies from one origin arrive in increasing seq (the
     forwarder floods them in its delivery order), so seq < cursor is a
     duplicate and seq = cursor is a first receipt;
   - Fifo's reverse-indexed wakeup queues park the rare future copy
     (possible only when the FIFO-link premise is dented — loss faults,
     a link racing its own establishment) keyed by the exact
     (origin, seq) whose delivery releases it.  Parking only delays
     deliveries, so it degrades availability under faults, never safety.

   Dynamic membership is the π_lock link-establishment protocol: a new
   link must not deliver messages that could causally precede what the
   receiver has not yet seen through its old links.  The opener sends
   [Lock] point-to-point down the new link and broadcasts an [Unlock]
   barrier *causally* through the existing overlay; the receiver buffers
   everything arriving on the new link until it delivers that barrier,
   by which point everything the opener had delivered before opening has
   already arrived the old way.  Joins bootstrap through a contact
   member whose link needs no barrier (the joiner's causal past is a
   prefix of the contact's), and a [Joined] control broadcast triggers
   the remaining links via retro-dissemination.

   Causal safety relies on links being reliable: if loss faults eat
   copies, cross-origin dependencies can be missed without any local
   evidence (that is the price of constant-size headers).  The offline
   oracle therefore checks FIFO unconditionally but causal order only on
   runs whose partition/loss drop counters are zero — departure drops
   are fine, see [Net.dropped_by_departure]. *)

module Net = Causalb_net.Net
module Engine = Causalb_sim.Engine
module Metrics = Causalb_stackbase.Metrics
module Sgroup = Causalb_stackbase.Sgroup
module Fqueue = Causalb_util.Fqueue
module Label = Causalb_graph.Label
module Dep = Causalb_graph.Dep
module Depgraph = Causalb_graph.Depgraph

type ctrl = Unlock of { target : int } | Joined of { node : int }

type 'a body = App of 'a | Ctrl of ctrl

type 'a envelope = { origin : int; seq : int; tag : string; body : 'a body }

type 'a wire = Env of 'a envelope | Lock

let payload e = match e.body with App p -> Some p | Ctrl _ -> None

let label_of e =
  if e.tag = "" then Label.make ~origin:e.origin ~seq:e.seq ()
  else Label.make ~name:e.tag ~origin:e.origin ~seq:e.seq ()

type 'a waiter = {
  env : 'a envelope;
  arrival : int;
  wsrc : int; (* link the copy arrived on — excluded from its flood *)
  emit : dst:int -> unit; (* resend this exact physical copy *)
}

type 'a pending = { penv : 'a envelope; psrc : int; pemit : dst:int -> unit }

(* Audit-only causality context, never on the wire: deps of the next
   send are the member's previous send plus everything delivered since.
   The members of an audited group accumulate these into the shared
   extracted R(M) the offline checker verifies against.  Only a member
   created with a [graph] keeps one: without it a member holds no state
   per delivery, so its memory does not grow with the run. *)
type audit = {
  graph : Depgraph.t;
  mutable last_own : Label.t option;
  mutable ctx_rev : Label.t list;
}

type 'a member = {
  id : int;
  deliver : 'a envelope -> unit; (* App bodies only *)
  on_causal : (Label.t -> unit) option;
      (* every causal delivery, ctrl included *)
  mutable on_joined : int -> unit; (* set by Group: react to [Joined] *)
  mutable next : int array;
      (* per-origin expected seq, indexed by origin — member ids are
         dense network node ids.  -1, like any id past the end, is an
         unknown origin, which adopts its first seen seq as baseline:
         how a late joiner accepts contiguous suffixes *)
  waiting : (int * int, 'a waiter Fqueue.t) Hashtbl.t;
  mutable peers : int list; (* open out-links, the flooding fan-out *)
  locked : (int, 'a pending Fqueue.t) Hashtbl.t;
      (* in-links buffered by π_lock until their barrier delivers *)
  unlocked : (int, unit) Hashtbl.t;
      (* openers whose barrier already delivered — a [Lock] arriving
         after its own [Unlock] (links race) must not re-buffer forever *)
  send : dst:int -> 'a wire -> unit;
  mutable own_seq : int;
  mutable arrivals : int;
  audit : audit option;
  metrics : Metrics.t;
}

let member ~id ~send ?(deliver = fun _ -> ()) ?on_causal ?graph () =
  {
    id;
    deliver;
    on_causal;
    on_joined = ignore;
    next = [||];
    waiting = Hashtbl.create 16;
    peers = [];
    locked = Hashtbl.create 4;
    unlocked = Hashtbl.create 4;
    send;
    own_seq = 0;
    arrivals = 0;
    audit =
      Option.map (fun graph -> { graph; last_own = None; ctx_rev = [] }) graph;
    metrics = Metrics.create ~name:"causal:pc" ();
  }

let cursor t origin =
  if origin < Array.length t.next then t.next.(origin) else -1

let set_cursor t origin seq =
  let cap = Array.length t.next in
  if origin >= cap then begin
    (* grown slots are unknown origins, never seq 0 *)
    let grown = Array.make (max (origin + 1) (2 * cap)) (-1) in
    Array.blit t.next 0 grown 0 cap;
    t.next <- grown
  end;
  t.next.(origin) <- seq

(* The expected seq, or an unknown origin.  Anything else is a
   duplicate (below the cursor) or a future seq (above it). *)
let deliverable t (e : 'a envelope) =
  let nx = cursor t e.origin in
  nx < 0 || e.seq = nx

let wake t ~origin ~seq woken =
  if Hashtbl.length t.waiting = 0 then ()
  else
    let key = (origin, seq) in
    match Hashtbl.find_opt t.waiting key with
    | None -> ()
    | Some bucket ->
      Hashtbl.remove t.waiting key;
      Fqueue.iter (fun w -> woken := w :: !woken) bucket

(* Send a copy to every out-link but [except], the link it came in on. *)
let rec flood emit ~except = function
  | [] -> ()
  | p :: rest ->
    if p <> except then emit ~dst:p;
    flood emit ~except rest

(* The link from [src] is buffered by π_lock. *)
let link_locked t src =
  Hashtbl.length t.locked > 0 && Hashtbl.mem t.locked src

let rec open_link t ~to_ =
  t.send ~dst:to_ Lock;
  t.peers <- to_ :: t.peers;
  (* The barrier travels causally through the old overlay — it is an
     ordinary broadcast, flooded like any app message.  [to_] buffers
     the new link until it delivers this. *)
  ignore (bcast_body t ~tag:"" (Ctrl (Unlock { target = to_ })))

and next_envelope_body t ?(tag = "") body =
  let seq = t.own_seq in
  t.own_seq <- seq + 1;
  let e = { origin = t.id; seq; tag; body } in
  let label = label_of e in
  (match t.audit with
  | None -> ()
  | Some a ->
    (* True potential causality at send time: the previous own message
       (covering older context transitively) plus everything delivered
       since it — into the audit graph, never onto the wire. *)
    let deps =
      match a.last_own with
      | Some l -> l :: List.rev a.ctx_rev
      | None -> List.rev a.ctx_rev
    in
    Depgraph.add a.graph label ~dep:(Dep.after_all deps);
    a.last_own <- Some label;
    a.ctx_rev <- []);
  (e, label)

and bcast_body t ?tag body =
  let e, label = next_envelope_body t ?tag body in
  publish t e ~emit:(fun ~dst -> t.send ~dst (Env e));
  label

(* Flood-then-deliver for a message of our own: the origin is hop zero
   of the flood. *)
and publish t e ~emit =
  flood emit ~except:(-1) (* no in-link to skip *) t.peers;
  let woken = ref [] in
  do_deliver t woken e;
  drain t !woken

and do_deliver t woken e =
  set_cursor t e.origin (e.seq + 1);
  wake t ~origin:e.origin ~seq:(e.seq + 1) woken;
  Metrics.on_deliver t.metrics;
  (* the delivery's label is built only for what records it *)
  (match (t.audit, t.on_causal) with
  | None, None -> ()
  | audit, on_causal ->
    let label = label_of e in
    (match audit with Some a -> a.ctx_rev <- label :: a.ctx_rev | None -> ());
    (match on_causal with Some f -> f label | None -> ()));
  match e.body with
  | App _ -> t.deliver e
  | Ctrl (Unlock { target }) -> if target = t.id then unlock t ~opener:e.origin
  | Ctrl (Joined { node }) -> if node <> t.id then t.on_joined node

(* Wakeup cascade.  Unlike [Fifo.drain], readiness is re-checked at
   release time: flooding routinely parks several copies of the same
   (origin, seq) from different links, and only the first may deliver —
   the rest are duplicates the cursor has already passed. *)
and drain t woken =
  match woken with
  | [] -> ()
  | gen ->
    let gen = List.sort (fun a b -> Int.compare a.arrival b.arrival) gen in
    let next = ref [] in
    List.iter
      (fun w ->
        Metrics.on_unbuffer t.metrics;
        if deliverable t w.env then begin
          (* first physical receipt: forward before delivering *)
          flood w.emit ~except:w.wsrc t.peers;
          do_deliver t next w.env
        end)
      gen;
    drain t !next

and unlock t ~opener =
  Hashtbl.replace t.unlocked opener ();
  (match Hashtbl.find_opt t.locked opener with
  | None -> ()
  | Some bucket ->
    Hashtbl.remove t.locked opener;
    Fqueue.drain
      (fun p ->
        Metrics.on_unbuffer t.metrics;
        handle_env t ~src:p.psrc ~emit:p.pemit p.penv)
      bucket);
  (* Symmetric establishment: an unlocked in-link grows the reverse
     out-link, with its own barrier protecting the other end. *)
  if not (List.mem opener t.peers) then open_link t ~to_:opener

and park t ~src ~emit e =
  Metrics.on_buffer t.metrics;
  let arrival = t.arrivals in
  t.arrivals <- arrival + 1;
  let key = (e.origin, e.seq) in
  let bucket =
    match Hashtbl.find_opt t.waiting key with
    | Some q -> q
    | None ->
      let q = Fqueue.create () in
      Hashtbl.add t.waiting key q;
      q
  in
  Fqueue.push bucket { env = e; arrival; wsrc = src; emit }

and handle_env t ~src ~emit e =
  if deliverable t e then begin
    (* first receipt (or adopt-first): flood, then deliver *)
    flood emit ~except:src t.peers;
    let woken = ref [] in
    do_deliver t woken e;
    drain t !woken
  end
  else if e.seq > cursor t e.origin then park t ~src ~emit e
  else () (* duplicate: another link was first *)

let receive t ~src ?emit w =
  Metrics.on_receive t.metrics;
  match w with
  | Lock ->
    if Hashtbl.mem t.unlocked src || Hashtbl.mem t.locked src then ()
    else Hashtbl.replace t.locked src (Fqueue.create ())
  | Env e ->
    let emit =
      match emit with
      | Some f -> f
      | None -> fun ~dst -> t.send ~dst (Env e)
    in
    if link_locked t src then begin
      Metrics.on_buffer t.metrics;
      Fqueue.push (Hashtbl.find t.locked src)
        { penv = e; psrc = src; pemit = emit }
    end
    else handle_env t ~src ~emit e

let discard t ~src = function
  | Env e when e.seq < cursor t e.origin && not (link_locked t src) ->
    Metrics.on_receive t.metrics;
    true
  | Env _ | Lock -> false

let bcast_member t ?tag p = bcast_body t ?tag (App p)

let next_envelope t ?tag p = next_envelope_body t ?tag (App p)

let member_id t = t.id

let delivered_count t = t.metrics.Metrics.delivered

let pending_count t = t.metrics.Metrics.buffered

let buffered_ever t = t.metrics.Metrics.forced_waits

let metrics t = t.metrics

(* Deterministic sparse overlay: a bidirectional ring plus power-of-two
   chords, capped at [degree] out-links per node.  Connected for any n,
   diameter O(n / 2^chords); the full mesh is the degree >= n-1 case. *)
let peers_for ~n ~degree i =
  if n <= 1 then []
  else
    match degree with
    | None -> List.init n Fun.id |> List.filter (fun j -> j <> i)
    | Some d when d >= n - 1 ->
      List.init n Fun.id |> List.filter (fun j -> j <> i)
    | Some d ->
      let d = max 2 d in
      let acc = ref [] in
      let add j = if j <> i && not (List.mem j !acc) then acc := j :: !acc in
      add ((i + 1) mod n);
      add ((i + n - 1) mod n);
      let hop = ref 2 in
      while List.length !acc < d && !hop < n do
        add ((i + !hop) mod n);
        hop := !hop * 2
      done;
      List.rev !acc

(* Configure a member of a static group: the deterministic overlay plus
   common-knowledge cursors — every initial origin starts at 0, so
   adopt-first never fires among the founders. *)
let init_static t ~n ~degree =
  t.peers <- peers_for ~n ~degree t.id;
  t.next <- Array.make n 0

module Group = struct
  type 'a t = {
    sg : ('a member, 'a wire) Sgroup.t;
    graph : Depgraph.t;
    mutable alive : bool array; (* indexed by member id, grows on join *)
  }

  let wire_member g net ?on_deliver ?on_causal node =
    let engine = Net.engine net in
    let deliver =
      match on_deliver with
      | None -> fun _ -> ()
      | Some f -> fun e -> f ~node ~time:(Engine.now engine) e
    in
    let on_causal = Option.map (fun f label -> f ~node ~label) on_causal in
    let send ~dst w = Net.send net ~src:node ~dst ~size:1 w in
    member ~id:node ~send ~deliver ?on_causal ~graph:g ()

  let create ?degree net ?on_deliver ?on_causal () =
    let n = Net.nodes net in
    let graph = Depgraph.create () in
    let sg =
      Sgroup.create_routed net
        ~member:(wire_member graph net ?on_deliver ?on_causal)
        ~receive:(fun m ~src w -> receive m ~src w)
    in
    let t = { sg; graph; alive = Array.make n true } in
    Array.iter
      (fun m ->
        init_static m ~n ~degree;
        m.on_joined <-
          (fun node ->
            if t.alive.(node) && not (List.mem node m.peers) then
              open_link m ~to_:node))
      (Sgroup.members sg);
    t

  let net t = Sgroup.net t.sg

  let size t = Sgroup.size t.sg

  let member t i = Sgroup.member t.sg i

  let graph t = t.graph

  let alive t =
    List.filter
      (fun i -> t.alive.(i))
      (List.init (Sgroup.size t.sg) Fun.id)

  let is_alive t i = i < Array.length t.alive && t.alive.(i)

  let bcast t ~src ?tag p =
    if not (is_alive t src) then
      invalid_arg (Printf.sprintf "Pcbcast.bcast: member %d departed" src);
    bcast_member (member t src) ?tag p

  let set_alive t i v =
    let cap = Array.length t.alive in
    if i >= cap then begin
      let grown = Array.make (max (i + 1) (2 * cap)) false in
      Array.blit t.alive 0 grown 0 cap;
      t.alive <- grown
    end;
    t.alive.(i) <- v

  let join t ~contact =
    if not (is_alive t contact) then
      invalid_arg
        (Printf.sprintf "Pcbcast.join: contact %d departed" contact);
    let id = Sgroup.join t.sg in
    set_alive t id true;
    let j = member t id and c = member t contact in
    (* The bootstrap pair needs no π_lock barrier in either direction:
       the joiner's causal past is (and stays) a prefix of what the
       contact forwards it, and everything the joiner ever sends depends
       only on messages the contact already delivered. *)
    j.peers <- [ contact ];
    j.on_joined <-
      (fun node ->
        if is_alive t node && not (List.mem node j.peers) then
          open_link j ~to_:node);
    c.peers <- id :: c.peers;
    (* Retro-dissemination: every member that delivers this opens a
       barriered link to the joiner, and the joiner opens the reverse
       link as each of those barriers passes. *)
    ignore (bcast_body c ~tag:"" (Ctrl (Joined { node = id })));
    id

  let leave t id =
    if is_alive t id then begin
      set_alive t id false;
      Sgroup.leave t.sg id;
      (* Synchronous view change: survivors stop flooding to the dead
         endpoint at once.  In-flight copies to it drop in [Net] as
         departure losses; parked copies *from* it stay parked. *)
      Array.iter
        (fun m ->
          if m.id <> id then begin
            m.peers <- List.filter (fun p -> p <> id) m.peers;
            Hashtbl.remove m.locked id
          end)
        (Sgroup.members t.sg)
    end
end

(* Lattice declaration for the static stack verifier: PC-broadcast
   *requires* FIFO links — over a bare datagram transport its claim is
   unsound, and [causalb-lint] will say so. *)
let provides = Causalb_stackbase.Guarantee.Causal

let requires = Causalb_stackbase.Guarantee.Fifo
