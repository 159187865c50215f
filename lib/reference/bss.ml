(* Seed list-scan BSS member, kept as the ordering oracle for
   [Causalb_core.Bss].  The envelope type is shared with the core engine
   so equivalence tests can feed the same values to both.  A sweep
   partitions the pool by readiness first, so two copies of one stamp
   can both be ready; the release re-checks the sender's count and the
   second copy leaves the pool undelivered.  (The seed released both,
   delivering one message twice and overshooting the count.) *)

module Vc = Causalb_clock.Vector_clock
module Metrics = Causalb_stackbase.Metrics

type 'a envelope = 'a Causalb_core.Bss.envelope = {
  sender : int;
  stamp : Vc.t;
  tag : string;
  payload : 'a;
}

type 'a member = {
  id : int;
  n : int;
  deliver : 'a envelope -> unit;
  mutable delivered : int array; (* per-origin delivered count *)
  mutable own_sends : int;
  mutable pending : 'a envelope list; (* arrival order, reversed *)
  mutable tags_rev : string list;
  metrics : Metrics.t;
}

let member ~id ~group_size ?(deliver = fun _ -> ()) () =
  if group_size <= 0 then invalid_arg "Bss.member: group_size must be positive";
  {
    id;
    n = group_size;
    deliver;
    delivered = Array.make group_size 0;
    own_sends = 0;
    pending = [];
    tags_rev = [];
    metrics = Metrics.create ~name:"causal:bss" ();
  }

let deliverable t (e : 'a envelope) =
  let ok = ref (Vc.get e.stamp e.sender = t.delivered.(e.sender) + 1) in
  for k = 0 to t.n - 1 do
    if k <> e.sender && Vc.get e.stamp k > t.delivered.(k) then ok := false
  done;
  !ok

let do_deliver t e =
  t.delivered.(e.sender) <- t.delivered.(e.sender) + 1;
  t.tags_rev <- e.tag :: t.tags_rev;
  Metrics.on_deliver t.metrics;
  t.deliver e

let rec drain t =
  let pending = List.rev t.pending in
  let ready, blocked = List.partition (deliverable t) pending in
  if ready <> [] then begin
    t.pending <- List.rev blocked;
    List.iter
      (fun e ->
        Metrics.on_unbuffer t.metrics;
        if Vc.get e.stamp e.sender > t.delivered.(e.sender) then do_deliver t e)
      ready;
    drain t
  end

let receive t e =
  Metrics.on_receive t.metrics;
  if Vc.get e.stamp e.sender <= t.delivered.(e.sender) then ()
  else if deliverable t e then begin
    do_deliver t e;
    drain t
  end
  else begin
    Metrics.on_buffer t.metrics;
    t.pending <- e :: t.pending
  end

let delivered_tags t = List.rev t.tags_rev

let delivered_count t = t.metrics.Metrics.delivered

let pending_count t = List.length t.pending

let buffered_ever t = t.metrics.Metrics.forced_waits

let metrics t =
  t.metrics.Metrics.buffered <- List.length t.pending;
  t.metrics

let clock t =
  let v = Array.copy t.delivered in
  v.(t.id) <- t.own_sends;
  Vc.of_array v
