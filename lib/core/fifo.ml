module Net = Causalb_net.Net
module Engine = Causalb_sim.Engine
module Metrics = Causalb_stackbase.Metrics
module Sgroup = Causalb_stackbase.Sgroup
module Fqueue = Causalb_util.Fqueue

type 'a envelope = { sender : int; seq : int; tag : string; payload : 'a }

type 'a waiter = { env : 'a envelope; arrival : int }

type 'a member = {
  id : int;
  deliver : 'a envelope -> unit;
  next_seq : int array; (* expected next per origin *)
  waiting : (int * int, 'a waiter Fqueue.t) Hashtbl.t;
      (* (origin, seq) -> copies parked until next_seq.(origin) reaches
         seq; the contiguous-sequence bucket replaces the pool rescan *)
  mutable arrivals : int;
  metrics : Metrics.t;
}

let member ~id ~group_size ?(deliver = fun _ -> ()) () =
  if group_size <= 0 then invalid_arg "Fifo.member: group_size must be positive";
  {
    id;
    deliver;
    next_seq = Array.make group_size 0;
    waiting = Hashtbl.create 64;
    arrivals = 0;
    metrics = Metrics.create ~name:"causal:fifo" ();
  }

let deliverable t e = e.seq = t.next_seq.(e.sender)

(* Advancing an origin's cursor to [v] wakes the copies parked on
   (origin, v). *)
let wake t key woken =
  (* empty-index guard: in-order traffic parks nothing, and the
     per-delivery key allocation + lookup would be pure overhead *)
  if Hashtbl.length t.waiting = 0 then ()
  else
    match Hashtbl.find_opt t.waiting key with
    | None -> ()
    | Some bucket ->
    Hashtbl.remove t.waiting key;
    Fqueue.iter (fun w -> woken := w :: !woken) bucket

let do_deliver t woken e =
  if t.next_seq.(e.sender) <> e.seq + 1 then begin
    t.next_seq.(e.sender) <- e.seq + 1;
    wake t (e.sender, e.seq + 1) woken
  end;
  Metrics.on_deliver t.metrics;
  t.deliver e

(* Generation cascade, bit-identical to the seed's repeated pool sweep:
   readiness is evaluated at generation start, releases follow arrival
   order, and each release wakes only the bucket of the sequence number
   it exposes.  Two parked copies of one (sender, seq) are both ready at
   generation start, so the release re-checks the cursor: the second
   copy leaves the buffer undelivered. *)
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
        if w.env.seq >= t.next_seq.(w.env.sender) then do_deliver t next w.env)
      ready;
    drain t !next

let park t e =
  Metrics.on_buffer t.metrics;
  let arrival = t.arrivals in
  t.arrivals <- arrival + 1;
  let key = (e.sender, e.seq) in
  let bucket =
    match Hashtbl.find_opt t.waiting key with
    | Some q -> q
    | None ->
      let q = Fqueue.create () in
      Hashtbl.add t.waiting key q;
      q
  in
  Fqueue.push bucket { env = e; arrival }

let receive t e =
  Metrics.on_receive t.metrics;
  if e.seq < t.next_seq.(e.sender) then () (* duplicate *)
  else if deliverable t e then begin
    let woken = ref [] in
    do_deliver t woken e;
    drain t !woken
  end
  else park t e

let delivered_count t = t.metrics.Metrics.delivered

let pending_count t = t.metrics.Metrics.buffered

let buffered_ever t = t.metrics.Metrics.forced_waits

let metrics t = t.metrics

module Group = struct
  type 'a t = {
    sg : ('a member, 'a envelope) Sgroup.t;
    seqs : int array;
  }

  let create net ?(on_deliver = fun ~node:_ ~time:_ _ -> ()) () =
    let n = Net.nodes net in
    let engine = Net.engine net in
    let sg =
      Sgroup.create net
        ~member:(fun node ->
          let deliver e = on_deliver ~node ~time:(Engine.now engine) e in
          member ~id:node ~group_size:n ~deliver ())
        ~receive
    in
    { sg; seqs = Array.make n 0 }

  let size t = Sgroup.size t.sg

  let bcast t ~src ?(tag = "") payload =
    let seq = t.seqs.(src) in
    t.seqs.(src) <- seq + 1;
    Net.broadcast (Sgroup.net t.sg) ~src { sender = src; seq; tag; payload }

  let member t i = Sgroup.member t.sg i
end

(* Lattice declaration for the static stack verifier. *)
let provides = Causalb_stackbase.Guarantee.Fifo

let requires = Causalb_stackbase.Guarantee.Unordered
