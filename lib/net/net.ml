module Engine = Causalb_sim.Engine
module Latency = Causalb_sim.Latency
module Trace = Causalb_sim.Trace
module Rng = Causalb_util.Rng

(* An in-flight copy.  Packets are recycled through a free list so a
   broadcast fan-out allocates no fresh delivery closure per copy: the
   [fire] thunk is built once when the packet is first created and
   captures the packet itself, whose mutable fields are re-filled on
   every reuse.  The payload sits in the packet unwrapped: a box around
   it would live as long as the copy is in flight.  A packet returns to
   the pool before its delivery handler runs, making reuse safe under
   reentrant sends, and with its payload slot blanked, so the pool never
   keeps application data reachable. *)
type 'a packet = {
  mutable psrc : int;
  mutable pdst : int;
  mutable ppayload : 'a;
  mutable fire : unit -> unit;
}

(* The blank a released packet holds: an immediate, which the GC never
   follows.  A pooled packet's payload is never read; [acquire_packet]
   refills it before the packet is scheduled again. *)
let blank () : 'a = Obj.magic ()

(* The info strings of a traced net's per-copy records, one per node id:
   built the first time a traced copy names that node, then shared by
   every later record that does, so a traced copy allocates no string. *)
type info_table = { prefix : string; mutable infos : string array }

let info_table prefix = { prefix; infos = [||] }

let info tbl id =
  let cap = Array.length tbl.infos in
  if id >= cap then begin
    let infos = Array.make (max (id + 1) (2 * cap)) "" in
    Array.blit tbl.infos 0 infos 0 cap;
    tbl.infos <- infos
  end;
  let s = tbl.infos.(id) in
  if s <> "" then s
  else begin
    let s = tbl.prefix ^ string_of_int id in
    tbl.infos.(id) <- s;
    s
  end

(* Only a traced net carries a recorder, so an untraced one allocates
   nothing for tracing. *)
type tracer = {
  trace : Trace.t;
  from_info : info_table; (* "from=<id>" of Receive records *)
  dst_info : info_table; (* "dst=<id>" of Send records *)
}

type 'a t = {
  engine : Engine.t;
  mutable n : int; (* logical node count; arrays may have spare capacity *)
  latency : Latency.t;
  fifo : bool;
  rng : Rng.t;
  tracer : tracer option;
  mutable handlers : (src:int -> 'a -> unit) option array;
  mutable last_arrival : float array array; (* last_arrival.(src).(dst) *)
  mutable departed : bool array;
      (* endpoints removed by [remove_node]: copies to or from them drop,
         and no membership change — [partition]/[heal] included — ever
         brings them back *)
  clock : Engine.clock;
  arrival : Engine.cell; (* the copy being scheduled's arrival time *)
  (* The fault profile's floats sit boxed in this mixed record, so
     passing one to [Rng] or [Latency] passes the existing box.  A
     field read out of the flat [Fault.t] would box afresh per copy. *)
  mutable drop_prob : float;
  mutable dup_prob : float;
  mutable jitter : float;
  mutable cell_of : int array option; (* partition cell per node *)
  mutable next_cell : int; (* fresh singleton cell ids for added nodes *)
  mutable sent : int;
  mutable delivered : int;
  (* One counter per drop cause, so campaign reports can attribute loss:
     [messages_dropped] is their sum. *)
  mutable dropped_partition : int;
  mutable dropped_loss : int;
  mutable dropped_no_handler : int;
  mutable dropped_departed : int;
  mutable bytes : int;
  mutable in_flight : int;
  mutable pool : 'a packet array; (* free packets in [0, pool_len) *)
  mutable pool_len : int;
}

let set_fault t fault =
  t.drop_prob <- fault.Fault.drop_prob;
  t.dup_prob <- fault.Fault.dup_prob;
  t.jitter <- fault.Fault.jitter

let create engine ~nodes ?(latency = Latency.lan) ?(fifo = true)
    ?(fault = Fault.none) ?trace () =
  if nodes <= 0 then invalid_arg "Net.create: nodes must be positive";
  let t =
    {
      engine;
      n = nodes;
      latency;
      fifo;
      rng = Engine.fork_rng engine;
      tracer =
        Option.map
          (fun trace ->
            {
              trace;
              from_info = info_table "from=";
              dst_info = info_table "dst=";
            })
          trace;
      handlers = Array.make nodes None;
      last_arrival = Array.make_matrix nodes nodes 0.0;
      departed = Array.make nodes false;
      clock = Engine.clock engine;
      arrival = { Engine.time = 0.0 };
      drop_prob = 0.0;
      dup_prob = 0.0;
      jitter = 0.0;
      cell_of = None;
      next_cell = 0;
      sent = 0;
      delivered = 0;
      dropped_partition = 0;
      dropped_loss = 0;
      dropped_no_handler = 0;
      dropped_departed = 0;
      bytes = 0;
      in_flight = 0;
      pool = [||];
      pool_len = 0;
    }
  in
  (* without faults the fields keep their static [0.0]s: no box *)
  if fault <> Fault.none then set_fault t fault;
  t

let engine t = t.engine

let nodes t = t.n

let check_node t who i =
  if i < 0 || i >= t.n then
    invalid_arg (Printf.sprintf "Net.%s: node %d out of range" who i)

let set_handler t node f =
  check_node t "set_handler" node;
  t.handlers.(node) <- Some f

(* Tracing is off on the hot benchmarking paths, so info strings must
   never be built eagerly: call sites guard [record] behind [tracing] (or
   a match on the recorder) and only then pay for the string — a table
   lookup for the per-copy Send/Receive records, a concatenation for the
   rarer drops. *)
let tracing t = t.tracer <> None

let record t ~node ~kind ~tag ~info =
  match t.tracer with
  | None -> ()
  | Some tr ->
    Trace.record tr.trace ~time:(Engine.now t.engine) ~node ~kind ~tag ~info ()

(* Dynamic endpoint registration.  Per-node arrays grow geometrically;
   the FIFO floor matrix starts new links at 0.0, which is always ≤ now,
   so a fresh link's first copy is never artificially delayed. *)
let add_node t =
  let id = t.n in
  let cap = Array.length t.handlers in
  if id >= cap then begin
    let cap' = max 8 (2 * cap) in
    let handlers = Array.make cap' None in
    Array.blit t.handlers 0 handlers 0 t.n;
    t.handlers <- handlers;
    let departed = Array.make cap' false in
    Array.blit t.departed 0 departed 0 t.n;
    t.departed <- departed;
    let last = Array.make_matrix cap' cap' 0.0 in
    Array.iteri
      (fun src row -> if src < t.n then Array.blit row 0 last.(src) 0 t.n)
      t.last_arrival;
    t.last_arrival <- last;
    (match t.cell_of with
    | None -> ()
    | Some cells ->
      let cells' = Array.make cap' (-1) in
      Array.blit cells 0 cells' 0 t.n;
      t.cell_of <- Some cells')
  end;
  (match t.cell_of with
  | None -> ()
  | Some cells ->
    (* A node joining under an active partition lands in its own
       singleton cell — it sees nobody until the next heal. *)
    cells.(id) <- t.next_cell;
    t.next_cell <- t.next_cell + 1);
  t.n <- t.n + 1;
  if tracing t then
    record t ~node:id ~kind:Trace.Mark ~tag:"join" ~info:"net:add_node";
  id

let remove_node t node =
  check_node t "remove_node" node;
  t.departed.(node) <- true;
  if tracing t then
    record t ~node ~kind:Trace.Mark ~tag:"leave" ~info:"net:remove_node"

let is_departed t node =
  check_node t "is_departed" node;
  t.departed.(node)

let reachable t src dst =
  match t.cell_of with
  | None -> true
  | Some cells -> cells.(src) = cells.(dst)

let deliver t ~src ~dst payload =
  t.in_flight <- t.in_flight - 1;
  (* A copy can be in flight when its destination departs; it arrives at
     a dead endpoint and drops.  Checked before the handler lookup so a
     departed node's (still installed) handler is never re-entered. *)
  if t.departed.(dst) then begin
    t.dropped_departed <- t.dropped_departed + 1;
    if tracing t then
      record t ~node:dst ~kind:Trace.Drop ~tag:""
        ~info:("departed from=" ^ string_of_int src)
  end
  else
    match t.handlers.(dst) with
    | Some f ->
      t.delivered <- t.delivered + 1;
      (match t.tracer with
      | Some tr ->
        record t ~node:dst ~kind:Trace.Receive ~tag:""
          ~info:(info tr.from_info src)
      | None -> ());
      f ~src payload
    | None -> t.dropped_no_handler <- t.dropped_no_handler + 1

let release_packet t p =
  if t.pool_len = Array.length t.pool then begin
    let cap = max 8 (2 * Array.length t.pool) in
    let pool = Array.make cap p in
    Array.blit t.pool 0 pool 0 t.pool_len;
    t.pool <- pool
  end;
  t.pool.(t.pool_len) <- p;
  t.pool_len <- t.pool_len + 1

let fire_packet t p =
  let src = p.psrc and dst = p.pdst and payload = p.ppayload in
  p.ppayload <- blank ();
  (* back on the free list before the handler runs: a handler that sends
     again may reuse this very packet *)
  release_packet t p;
  deliver t ~src ~dst payload

let acquire_packet t ~src ~dst payload =
  let p =
    if t.pool_len > 0 then begin
      t.pool_len <- t.pool_len - 1;
      t.pool.(t.pool_len)
    end
    else begin
      let p = { psrc = 0; pdst = 0; ppayload = payload; fire = ignore } in
      p.fire <- (fun () -> fire_packet t p);
      p
    end
  in
  p.psrc <- src;
  p.pdst <- dst;
  p.ppayload <- payload;
  p

(* The arrival time is computed in [t.arrival] and handed to the engine
   there: now + latency (+ jitter), raised to the link's last arrival
   under FIFO.  No float crosses a module boundary, so an untraced copy
   allocates nothing (DESIGN.md §10). *)
let schedule_copy t ~src ~dst payload =
  let arrival = t.arrival in
  arrival.time <- t.clock.now;
  Latency.add_sample t.rng t.latency arrival;
  if t.jitter > 0.0 then Latency.add_uniform t.rng t.jitter arrival;
  if t.fifo then begin
    (* Per-link FIFO: never schedule an arrival before the previous one
       on the same link. *)
    let row = t.last_arrival.(src) in
    let floor = row.(dst) in
    if floor > arrival.time then arrival.time <- floor
    else row.(dst) <- arrival.time
  end;
  t.in_flight <- t.in_flight + 1;
  let p = acquire_packet t ~src ~dst payload in
  Engine.schedule_cell t.engine arrival p.fire

let send_copy t ~src ~dst ~size payload =
  t.sent <- t.sent + 1;
  t.bytes <- t.bytes + size;
  (* Departure wins over every other fate, and [reachable] never sees
     departed endpoints — so a heal (which only clears partition cells)
     cannot resurrect a removed node. *)
  if t.departed.(src) || t.departed.(dst) then begin
    t.dropped_departed <- t.dropped_departed + 1;
    if tracing t then
      record t ~node:src ~kind:Trace.Drop ~tag:""
        ~info:("departed dst=" ^ string_of_int dst)
  end
  else if not (reachable t src dst) then begin
    t.dropped_partition <- t.dropped_partition + 1;
    if tracing t then
      record t ~node:src ~kind:Trace.Drop ~tag:""
        ~info:("partition dst=" ^ string_of_int dst)
  end
  else if Rng.bernoulli t.rng t.drop_prob then begin
    t.dropped_loss <- t.dropped_loss + 1;
    if tracing t then
      record t ~node:src ~kind:Trace.Drop ~tag:""
        ~info:("loss dst=" ^ string_of_int dst)
  end
  else begin
    schedule_copy t ~src ~dst payload;
    if Rng.bernoulli t.rng t.dup_prob then
      schedule_copy t ~src ~dst payload
  end

let send t ~src ~dst ~size payload =
  check_node t "send" src;
  check_node t "send" dst;
  (match t.tracer with
  | Some tr ->
    record t ~node:src ~kind:Trace.Send ~tag:"" ~info:(info tr.dst_info dst)
  | None -> ());
  send_copy t ~src ~dst ~size payload

let broadcast t ~src ?(self = true) ?(size = 1) payload =
  check_node t "broadcast" src;
  if tracing t then record t ~node:src ~kind:Trace.Send ~tag:"" ~info:"bcast";
  (* Membership-aware fan-out: departed endpoints are not addressed at
     all (no copy, no byte charge) — a real group would have removed
     them from its view.  Point-to-point [send] to one still counts a
     departed drop; that asymmetry is deliberate. *)
  for dst = 0 to t.n - 1 do
    if dst <> src && not t.departed.(dst) then
      send_copy t ~src ~dst ~size payload
  done;
  if self && not t.departed.(src) then begin
    t.sent <- t.sent + 1;
    (* The self copy travels the same wire accounting as a remote copy:
       without the charge, bytes_per_delivery under-reports exactly 1/n
       of the fan-out (the PR 8 wire-metric skew). *)
    t.bytes <- t.bytes + size;
    t.in_flight <- t.in_flight + 1;
    (* Local copy: processed at the same virtual instant, after the
       current callback returns. *)
    let p = acquire_packet t ~src ~dst:src payload in
    Engine.schedule t.engine ~delay:0.0 p.fire
  end

(* Batched fan-out entry point for pre-encoded frames: [payload] is one
   immutable value (typically a [Causalb_util.Wire.frame] or a framed
   record wrapping one) enqueued to every recipient — the fan-out shares
   the pointer, never re-serializes, and reuses pooled packets.  The copy
   loop is [broadcast]'s own, so the RNG draw sequence (drop/latency/
   jitter/dup per copy) is identical to an unframed broadcast of the same
   shape — the property the framed-vs-plain same-seed equivalence tests
   rely on.  [size] is mandatory: the frame's wire length, charged to the
   byte accounting once per copy. *)
let bcast t ~src ?self ~size payload = broadcast t ~src ?self ~size payload

let partition t cells =
  (* Capacity-sized so nodes added mid-partition index safely. *)
  let cell_of = Array.make (Array.length t.handlers) (-1) in
  List.iteri
    (fun idx cell ->
      List.iter
        (fun node ->
          check_node t "partition" node;
          if cell_of.(node) <> -1 then
            invalid_arg
              (Printf.sprintf
                 "Net.partition: node %d listed in more than one cell" node);
          cell_of.(node) <- idx)
        cell)
    cells;
  (* Unlisted nodes become singletons with unique negative-free ids. *)
  let next = ref (List.length cells) in
  for node = 0 to t.n - 1 do
    if cell_of.(node) = -1 then begin
      cell_of.(node) <- !next;
      incr next
    end
  done;
  t.next_cell <- !next;
  t.cell_of <- Some cell_of

let heal t = t.cell_of <- None

let messages_sent t = t.sent

let messages_delivered t = t.delivered

let messages_dropped t =
  t.dropped_partition + t.dropped_loss + t.dropped_no_handler
  + t.dropped_departed

let dropped_by_partition t = t.dropped_partition

let dropped_by_loss t = t.dropped_loss

let dropped_no_handler t = t.dropped_no_handler

let dropped_by_departure t = t.dropped_departed

let lost_copies t =
  t.dropped_partition + t.dropped_loss + t.dropped_departed

let bytes_sent t = t.bytes

let in_flight t = t.in_flight
