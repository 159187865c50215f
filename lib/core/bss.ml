module Vc = Causalb_clock.Vector_clock
module Net = Causalb_net.Net
module Engine = Causalb_sim.Engine
module Metrics = Causalb_stackbase.Metrics
module Sgroup = Causalb_stackbase.Sgroup
module Fqueue = Causalb_util.Fqueue

type 'a envelope = { sender : int; stamp : Vc.t; tag : string; payload : 'a }

(* A buffered envelope waits on per-origin counter thresholds: the
   sender's component must be reached exactly ([delivered.(s) = V.(s)-1])
   and every other component at least ([delivered.(k) >= V.(k)]).  Each
   unmet threshold is one registration in the reverse index; [unmet]
   counts registrations still unfired. *)
type 'a waiter = {
  env : 'a envelope;
  arrival : int;
  mutable unmet : int;
}

type 'a member = {
  id : int;
  deliver : 'a envelope -> unit;
  delivered : Vc.t; (* per-origin delivered count, mutated in place *)
  mutable own_sends : int;
  waiting : (int * int, 'a waiter Fqueue.t) Hashtbl.t;
      (* (origin, value) -> waiters woken when delivered.(origin)
         reaches value; counters move by one, so each bucket fires
         exactly once *)
  mutable arrivals : int;
  metrics : Metrics.t;
}

let member ~id ~group_size ?(deliver = fun _ -> ()) () =
  if group_size <= 0 then invalid_arg "Bss.member: group_size must be positive";
  {
    id;
    deliver;
    delivered = Vc.create group_size;
    own_sends = 0;
    waiting = Hashtbl.create 64;
    arrivals = 0;
    metrics = Metrics.create ~name:"causal:bss" ();
  }

let deliverable t (e : 'a envelope) =
  Vc.deliverable ~delivered:t.delivered ~stamp:e.stamp ~sender:e.sender

let wake t key woken =
  (* empty-index guard: on fully-deliverable traffic no one is parked,
     and the per-delivery key allocation + lookup would be pure overhead *)
  if Hashtbl.length t.waiting = 0 then ()
  else
    match Hashtbl.find_opt t.waiting key with
    | None -> ()
    | Some bucket ->
    Hashtbl.remove t.waiting key;
    Fqueue.iter
      (fun w ->
        if w.unmet > 0 then begin
          w.unmet <- w.unmet - 1;
          if w.unmet = 0 then woken := w :: !woken
        end)
      bucket

let do_deliver t woken e =
  let v = Vc.get t.delivered e.sender + 1 in
  Vc.bump t.delivered e.sender;
  Metrics.on_deliver t.metrics;
  t.deliver e;
  wake t (e.sender, v) woken

(* Generation cascade, bit-identical to the seed's repeated pool sweep.
   Readiness is evaluated against generation-start state before any of
   the generation delivers (the seed partitioned first, then released),
   and releases follow arrival order.  Two parked copies of one stamp
   are both ready at generation start, so the release re-checks the
   sender's component — one comparison, not a second stamp scan — and
   the second copy leaves the buffer undelivered.  A candidate that is
   not deliverable at generation start is dropped from the index but
   stays in the buffered count: the seed kept such envelopes pending
   forever. *)
let rec drain t woken =
  match woken with
  | [] -> ()
  | gen ->
    let gen = List.sort (fun a b -> Int.compare a.arrival b.arrival) gen in
    let ready = List.filter (fun w -> deliverable t w.env) gen in
    let next = ref [] in
    List.iter
      (fun w ->
        Metrics.on_unbuffer t.metrics;
        let e = w.env in
        if Vc.get e.stamp e.sender > Vc.get t.delivered e.sender then
          do_deliver t next e)
      ready;
    drain t !next

let park t e =
  Metrics.on_buffer t.metrics;
  let arrival = t.arrivals in
  t.arrivals <- arrival + 1;
  let w = { env = e; arrival; unmet = 0 } in
  let register k v =
    w.unmet <- w.unmet + 1;
    let key = (k, v) in
    let bucket =
      match Hashtbl.find_opt t.waiting key with
      | Some q -> q
      | None ->
        let q = Fqueue.create () in
        Hashtbl.add t.waiting key q;
        q
    in
    Fqueue.push bucket w
  in
  Vc.iter_unmet ~delivered:t.delivered ~stamp:e.stamp ~sender:e.sender register

let receive t e =
  (* [deliverable] checks the stamp's size and the sender before anything
     is counted, so a malformed envelope leaves the member untouched. *)
  let ready = deliverable t e in
  Metrics.on_receive t.metrics;
  if ready then begin
    let woken = ref [] in
    do_deliver t woken e;
    drain t !woken
  end
  else if Vc.get e.stamp e.sender <= Vc.get t.delivered e.sender then
    (* a duplicate or stale copy: its stamp component is not above the
       delivered count *)
    ()
  else park t e

let delivered_count t = t.metrics.Metrics.delivered

let pending_count t = t.metrics.Metrics.buffered

let buffered_ever t = t.metrics.Metrics.forced_waits

let metrics t = t.metrics

let clock t =
  (* Own component counts own sends (each send ticks it); the other
     components are the per-origin delivered counts — everything the
     member has potentially been influenced by.  One allocation: the
     stamp snapshot itself (the seed path copied the counts and then
     [of_array] copied them again). *)
  Vc.with_component t.delivered t.id t.own_sends

let next_envelope t ?(tag = "") payload =
  t.own_sends <- t.own_sends + 1;
  (* Stamp: delivered counts with own component = own send count.  This
     is the classic BSS stamp — it encodes everything the sender has
     delivered (potential causes) plus its own send sequence. *)
  { sender = t.id; stamp = clock t; tag; payload }

module Group = struct
  type 'a t = ('a member, 'a envelope) Sgroup.t

  let create net ?(on_deliver = fun ~node:_ ~time:_ _ -> ()) () =
    let n = Net.nodes net in
    let engine = Net.engine net in
    Sgroup.create net
      ~member:(fun node ->
        let deliver e = on_deliver ~node ~time:(Engine.now engine) e in
        member ~id:node ~group_size:n ~deliver ())
      ~receive

  let size = Sgroup.size

  let bcast t ~src ?tag payload =
    let e = next_envelope (Sgroup.member t src) ?tag payload in
    Net.broadcast (Sgroup.net t) ~src e

  let member = Sgroup.member
end

(* Lattice declaration for the static stack verifier. *)
let provides = Causalb_stackbase.Guarantee.Causal

let requires = Causalb_stackbase.Guarantee.Unordered
