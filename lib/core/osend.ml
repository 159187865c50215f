module Label = Causalb_graph.Label
module Dep = Causalb_graph.Dep
module Depgraph = Causalb_graph.Depgraph
module Metrics = Causalb_stackbase.Metrics

(* What the member knows of one label: [Named] only, as an unmet
   ancestor of a parked message; [Seen], received but not delivered (or
   rejected as self-dependent); [Delivered]. *)
type state = Named | Seen | Delivered

(* One slot per label the member has received or a parked message
   names.  [waiters] is the reverse index: the parked messages naming
   this label as an unmet ancestor.  The list is consumed when the label
   delivers, so a delivery wakes exactly the messages waiting on it. *)
type 'a slot = { mutable state : state; mutable waiters : 'a waiter list }

(* A parked message.  [unmet] counts the ancestors still undelivered (1
   for an [After_any] predicate, which is satisfied by whichever
   alternative fires first); when it reaches zero the waiter joins the
   next delivery generation.  [prev]/[next] chain the parked set in
   arrival order, so [pending] and [blocked_on] walk only what is
   parked. *)
and 'a waiter = {
  wmsg : 'a Message.t;
  own : 'a slot; (* the slot of [wmsg]'s label *)
  arrival : int; (* buffer order: the delivery tie-break *)
  mutable unmet : int;
  mutable prev : 'a waiter option;
  mutable next : 'a waiter option;
}

type 'a t = {
  id : int;
  deliver : 'a Message.t -> unit;
  slots : 'a slot Label.Tbl.t;
  mutable delivered_rev : Label.t list;
  mutable first : 'a waiter option; (* the parked set, oldest first *)
  mutable last : 'a waiter option;
  mutable arrivals : int;
  mutable log_rev : (Label.t * Dep.t) list;
      (* first receipts not yet replayed into [graph], newest first *)
  graph : Depgraph.t;
  metrics : Metrics.t;
}

let create ~id ?(deliver = fun _ -> ()) () =
  {
    id;
    deliver;
    slots = Label.Tbl.create 64;
    delivered_rev = [];
    first = None;
    last = None;
    arrivals = 0;
    log_rev = [];
    graph = Depgraph.create ();
    metrics = Metrics.create ~name:"causal:osend" ();
  }

let id t = t.id

(* The slot of [l], created [Named] on first mention. *)
let slot t l =
  match Label.Tbl.find t.slots l with
  | s -> s
  | exception Not_found ->
    let s = { state = Named; waiters = [] } in
    Label.Tbl.add t.slots l s;
    s

let state t l =
  match Label.Tbl.find t.slots l with
  | s -> s.state
  | exception Not_found -> Named

let is_delivered t l =
  match state t l with Delivered -> true | Named | Seen -> false

let rec all_delivered t = function
  | [] -> true
  | l :: ls -> is_delivered t l && all_delivered t ls

let rec any_delivered t = function
  | [] -> false
  | l :: ls -> is_delivered t l || any_delivered t ls

(* [Dep.satisfied] against the slots, without a closure per call. *)
let deliverable t = function
  | Dep.Null -> true
  | Dep.After l -> is_delivered t l
  | Dep.After_all ls -> all_delivered t ls
  | Dep.After_any ls -> any_delivered t ls

(* Each waiter parked on a delivered label loses one unmet ancestor;
   those reaching zero join [next], the candidates for the next delivery
   generation.  A waiter already at zero was woken through another
   [After_any] alternative. *)
let rec wake waiters next =
  match waiters with
  | [] -> next
  | w :: rest ->
    if w.unmet = 0 then wake rest next
    else begin
      w.unmet <- w.unmet - 1;
      wake rest (if w.unmet = 0 then w :: next else next)
    end

let do_deliver t s msg next =
  s.state <- Delivered;
  t.delivered_rev <- Message.label msg :: t.delivered_rev;
  Metrics.on_deliver t.metrics;
  t.deliver msg;
  match s.waiters with
  | [] -> next
  | waiters ->
    s.waiters <- [];
    wake waiters next

let unlink t w =
  (match w.prev with None -> t.first <- w.next | Some p -> p.next <- w.next);
  match w.next with None -> t.last <- w.prev | Some n -> n.prev <- w.prev

let rec release t gen next =
  match gen with
  | [] -> next
  | w :: rest ->
    unlink t w;
    Metrics.on_unbuffer t.metrics;
    release t rest (do_deliver t w.own w.wmsg next)

let by_arrival a b = Int.compare a.arrival b.arrival

(* Deliver the wakeup cascade in generations: a generation is every
   waiter unblocked by the previous one, released in arrival order.
   This reproduces the seed engine's repeated pool sweep (ready set
   evaluated at pass start, released in arrival order, repeat) while
   touching only the messages actually waiting on each delivery —
   amortized O(outstanding edges) instead of O(pending) per delivery.
   [unmet = 0] implies the predicate is satisfied (delivered labels stay
   delivered), so every candidate releases.  The list-scan original
   survives as the test/bench oracle in [Causalb_reference]. *)
let rec drain t = function
  | [] -> ()
  | gen -> drain t (release t (List.sort by_arrival gen) [])

let register t w a =
  let s = slot t a in
  match s.state with
  | Delivered -> ()
  | Named | Seen ->
    w.unmet <- w.unmet + 1;
    s.waiters <- w :: s.waiters

let park t own msg =
  Metrics.on_buffer t.metrics;
  let arrival = t.arrivals in
  t.arrivals <- arrival + 1;
  let w = { wmsg = msg; own; arrival; unmet = 0; prev = t.last; next = None } in
  (match Message.dep msg with
  | Dep.Null -> ()
  | Dep.After a -> register t w a
  | Dep.After_all ls -> List.iter (register t w) ls
  | Dep.After_any ls ->
    List.iter (register t w) ls;
    w.unmet <- 1);
  let link = Some w in
  (match t.last with None -> t.first <- link | Some p -> p.next <- link);
  t.last <- link

let rec names l = function
  | [] -> false
  | a :: rest -> Label.equal a l || names l rest

let self_dependent l = function
  | Dep.Null -> false
  | Dep.After a -> Label.equal a l
  | Dep.After_all ls | Dep.After_any ls -> names l ls

let receive t msg =
  let l = Message.label msg in
  Metrics.on_receive t.metrics;
  let s = slot t l in
  match s.state with
  | Seen | Delivered -> ()
  | Named ->
    s.state <- Seen;
    let dep = Message.dep msg in
    if self_dependent l dep then invalid_arg "Osend.receive: self-dependency";
    t.log_rev <- (l, dep) :: t.log_rev;
    if deliverable t dep then drain t (do_deliver t s msg [])
    else park t s msg

let delivered_order t = List.rev t.delivered_rev

let delivered_count t = t.metrics.Metrics.delivered

let pending t =
  let rec collect acc = function
    | None -> acc
    | Some w -> collect (w.wmsg :: acc) w.prev
  in
  collect [] t.last

(* [buffered] is maintained incrementally by on_buffer/on_unbuffer, so
   the count (and the metrics row) no longer walks the pending pool. *)
let pending_count t = t.metrics.Metrics.buffered

let buffered_ever t = t.metrics.Metrics.forced_waits

let metrics t = t.metrics

(* R(M) is a function of the first receipts in arrival order, so
   replaying the ones not yet extracted yields exactly the graph an
   eager [Depgraph.add] per receipt would hold now. *)
let graph t =
  (match t.log_rev with
  | [] -> ()
  | log ->
    t.log_rev <- [];
    List.iter (fun (l, dep) -> Depgraph.add t.graph l ~dep) (List.rev log));
  t.graph

let blocked_on t =
  let rec walk missing = function
    | None -> missing
    | Some w ->
      let missing =
        List.fold_left
          (fun missing anc ->
            match state t anc with
            | Named -> Label.Set.add anc missing
            | Seen | Delivered -> missing)
          missing
          (Dep.ancestors (Message.dep w.wmsg))
      in
      walk missing w.next
  in
  Label.Set.elements (walk Label.Set.empty t.first)

(* Lattice declaration for the static stack verifier. *)
let provides = Causalb_stackbase.Guarantee.Causal

let requires = Causalb_stackbase.Guarantee.Unordered
