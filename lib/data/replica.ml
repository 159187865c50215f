module Message = Causalb_core.Message
module Stable_points = Causalb_core.Stable_points
module Label = Causalb_graph.Label

type ('op, 'state) cycle = {
  index : int;
  start_state : 'state;
  window : (Label.t * 'op) list;
  closed_by : Label.t * 'op;
  end_state : 'state;
}

type ('op, 'state) t = {
  id : int;
  spec : ('op, 'state) Seq_spec.t;
  tracker : 'op Stable_points.t;
  mutable state : 'state;
  mutable stable : 'state;
  mutable cycles_rev : ('op, 'state) cycle list;
  mutable applied_rev : Label.t list;
  mutable applied_n : int;
}

let entry m = (Message.label m, Message.payload m)

(* The tracker closes the cycle; the replica records it.  The cycle
   starts from the last stable state and ends at the state the closing
   operation produced. *)
let close t on_stable (p : 'op Stable_points.point) =
  let cycle =
    {
      index = p.Stable_points.cycle;
      start_state = t.stable;
      window = List.map entry p.Stable_points.window;
      closed_by = entry p.Stable_points.closed_by;
      end_state = t.state;
    }
  in
  t.cycles_rev <- cycle :: t.cycles_rev;
  t.stable <- t.state;
  on_stable cycle

let create ~id ~spec ?(on_stable = fun _ -> ()) () =
  let closer = ref ignore in
  let tracker =
    Stable_points.create
      ~is_sync:(fun m -> not (Seq_spec.is_cid spec (Message.payload m)))
      ~on_stable:(fun p -> !closer p)
  in
  let t =
    {
      id;
      spec;
      tracker;
      state = spec.Seq_spec.init;
      stable = spec.Seq_spec.init;
      cycles_rev = [];
      applied_rev = [];
      applied_n = 0;
    }
  in
  closer := close t on_stable;
  t

let id t = t.id

let spec t = t.spec

let state t = t.state

let stable_state t = t.stable

let on_deliver t msg =
  t.state <- t.spec.Seq_spec.apply t.state (Message.payload msg);
  t.applied_rev <- Message.label msg :: t.applied_rev;
  t.applied_n <- t.applied_n + 1;
  Stable_points.on_deliver t.tracker msg

let read_deferred t k = Stable_points.defer t.tracker (fun _ -> k t.state)

let cycles t = List.rev t.cycles_rev

let cycles_closed t = Stable_points.cycles_closed t.tracker

let applied t = List.rev t.applied_rev

let applied_count t = t.applied_n

let pending_reads t = Stable_points.deferred_count t.tracker
