(* Seed list-scan FIFO member, kept as the ordering oracle for
   [Causalb_core.Fifo].  A sweep partitions the pool by readiness first,
   so two copies of one (sender, seq) can both be ready; the release
   re-checks the cursor and the second copy leaves the pool undelivered.
   (The seed released both, so a member could deliver one message
   twice.) *)

module Metrics = Causalb_stackbase.Metrics

type 'a envelope = 'a Causalb_core.Fifo.envelope = {
  sender : int;
  seq : int;
  tag : string;
  payload : 'a;
}

type 'a member = {
  id : int;
  deliver : 'a envelope -> unit;
  next_seq : int array; (* expected next per origin *)
  mutable pending : 'a envelope list;
  mutable tags_rev : string list;
  metrics : Metrics.t;
}

let member ~id ~group_size ?(deliver = fun _ -> ()) () =
  if group_size <= 0 then invalid_arg "Fifo.member: group_size must be positive";
  {
    id;
    deliver;
    next_seq = Array.make group_size 0;
    pending = [];
    tags_rev = [];
    metrics = Metrics.create ~name:"causal:fifo" ();
  }

let deliverable t e = e.seq = t.next_seq.(e.sender)

let do_deliver t e =
  t.next_seq.(e.sender) <- e.seq + 1;
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
        if e.seq >= t.next_seq.(e.sender) then do_deliver t e)
      ready;
    drain t
  end

let receive t e =
  Metrics.on_receive t.metrics;
  if e.seq < t.next_seq.(e.sender) then () (* duplicate *)
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
