type 'a point = {
  cycle : int;
  window : 'a Message.t list;
  closed_by : 'a Message.t;
}

type 'a t = {
  is_sync : 'a Message.t -> bool;
  on_stable : 'a point -> unit;
  mutable window_rev : 'a Message.t list;
  mutable deferred_rev : ('a point -> unit) list;
  mutable cycles : int;
}

let create ~is_sync ~on_stable =
  { is_sync; on_stable; window_rev = []; deferred_rev = []; cycles = 0 }

let on_deliver t msg =
  if t.is_sync msg then begin
    let point =
      { cycle = t.cycles; window = List.rev t.window_rev; closed_by = msg }
    in
    t.window_rev <- [];
    t.cycles <- t.cycles + 1;
    t.on_stable point;
    let actions = List.rev t.deferred_rev in
    t.deferred_rev <- [];
    List.iter (fun act -> act point) actions
  end
  else t.window_rev <- msg :: t.window_rev

let defer t act = t.deferred_rev <- act :: t.deferred_rev

let cycles_closed t = t.cycles

let deferred_count t = List.length t.deferred_rev
