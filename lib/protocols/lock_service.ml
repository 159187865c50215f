module Engine = Causalb_sim.Engine
module Latency = Causalb_sim.Latency
module Stack = Causalb_stack.Stack
module Message = Causalb_core.Message
module Dep = Causalb_graph.Dep
module Label = Causalb_graph.Label
module Stats = Causalb_util.Stats
module Rng = Causalb_util.Rng

type 'p msg =
  | Lock of { member : int; cycle : int }
  | Tfr of { position : int; cycle : int; carry : 'p }

type grant = {
  cycle : int;
  holder : int;
  grant_time : float;
  release_time : float;
}

(* Per-member protocol view: everything a member has learned from its own
   causal delivery sequence.  Members never peek at each other's views —
   agreement between the views is a *checked* property, not an input. *)
type view = {
  vid : int;
  locks : (int, (int * Label.t) list) Hashtbl.t; (* cycle -> (member,label) *)
  tfrs : (int, (int * Label.t) list) Hashtbl.t;  (* cycle -> (position,label) *)
  mutable orders : (int * int list) list;        (* cycle -> holder sequence *)
}

type 'p t = {
  engine : Engine.t;
  stack : 'p msg Stack.t;
  members : int;
  hold : Latency.t;
  hold_rng : Rng.t;
  requesters : cycle:int -> int list;
  release : member:int -> 'p;
  on_transfer : node:int -> 'p -> unit;
  views : view array;
  mutable total_cycles : int;
  mutable grants_rev : grant list;
  request_times : (int * int, float) Hashtbl.t; (* (cycle, member) -> time *)
  cycle_start : (int, float) Hashtbl.t;
  mutable completed : int;
  final_tfr_seen : (int, int) Hashtbl.t; (* cycle -> members done *)
  cycle_durations : Stats.t;
  wait_times : Stats.t;
}

let checked_requesters t ~cycle =
  let rs = List.sort_uniq Int.compare (t.requesters ~cycle) in
  if rs = [] then
    invalid_arg (Printf.sprintf "Lock_service: no requesters for cycle %d" cycle);
  List.iter
    (fun r ->
      if r < 0 || r >= t.members then
        invalid_arg (Printf.sprintf "Lock_service: requester %d out of range" r))
    rs;
  rs

(* Deterministic, fair arbiter: sorted requesters rotated by the cycle
   number.  Any deterministic function of (requesters, cycle) works; all
   members compute it on the same inputs. *)
let holder_sequence requesters ~cycle =
  let arr = Array.of_list requesters in
  let n = Array.length arr in
  List.init n (fun i -> arr.((i + cycle) mod n))

let table_add tbl key entry =
  let prev = Option.value ~default:[] (Hashtbl.find_opt tbl key) in
  Hashtbl.replace tbl key (entry :: prev)

let broadcast_lock t member ~cycle ~dep =
  let now = Engine.now t.engine in
  Hashtbl.replace t.request_times (cycle, member) now;
  if not (Hashtbl.mem t.cycle_start cycle) then
    Hashtbl.replace t.cycle_start cycle now;
  let name = Printf.sprintf "LOCK.%d.%d" member cycle in
  ignore
    (Stack.submit t.stack ~src:member ~name ~dep (Lock { member; cycle }))

(* The holder has finished: it releases its value, which rides on the
   transfer, so release and propagation are one broadcast. *)
let broadcast_tfr t member ~position ~cycle ~dep =
  let name = Printf.sprintf "TFR.%d.%d" position cycle in
  let carry = t.release ~member in
  ignore
    (Stack.submit t.stack ~src:member ~name ~dep
       (Tfr { position; cycle; carry }))

(* The member at [position] in the holder sequence acquires now, holds for
   a sampled duration, then broadcasts its transfer. *)
let acquire t view ~position ~cycle ~dep =
  let grant_time = Engine.now t.engine in
  let hold_for = Latency.sample t.hold_rng t.hold in
  let release_time = grant_time +. hold_for in
  t.grants_rev <-
    { cycle; holder = view.vid; grant_time; release_time } :: t.grants_rev;
  (match Hashtbl.find_opt t.request_times (cycle, view.vid) with
  | Some t0 -> Stats.add t.wait_times (grant_time -. t0)
  | None -> ());
  Engine.schedule t.engine ~delay:hold_for (fun () ->
      broadcast_tfr t view.vid ~position ~cycle ~dep)

let on_lock t view ~label ~member ~cycle =
  table_add view.locks cycle (member, label);
  let requesters = checked_requesters t ~cycle in
  let seen = Hashtbl.find view.locks cycle in
  if List.length seen = List.length requesters then begin
    (* Predetermined count reached: run the arbitration algorithm. *)
    let order = holder_sequence requesters ~cycle in
    view.orders <- (cycle, order) :: view.orders;
    match order with
    | first :: _ when first = view.vid ->
      let dep = Dep.after_all (List.map snd seen) in
      acquire t view ~position:0 ~cycle ~dep
    | _ -> ()
  end

let cycle_done t view ~cycle =
  let seen =
    1 + Option.value ~default:0 (Hashtbl.find_opt t.final_tfr_seen cycle)
  in
  Hashtbl.replace t.final_tfr_seen cycle seen;
  if seen = t.members then begin
    t.completed <- t.completed + 1;
    (match Hashtbl.find_opt t.cycle_start cycle with
    | Some t0 -> Stats.add t.cycle_durations (Engine.now t.engine -. t0)
    | None -> ())
  end;
  (* Kick off the next arbitration cycle from this member if it wants the
     lock next round.  Each requester sends exactly once (when *it*
     delivers the final transfer). *)
  let next = cycle + 1 in
  if next < t.total_cycles then begin
    let next_requesters = checked_requesters t ~cycle:next in
    if List.mem view.vid next_requesters then begin
      let tfr_labels = List.map snd (Hashtbl.find view.tfrs cycle) in
      broadcast_lock t view.vid ~cycle:next ~dep:(Dep.after_all tfr_labels)
    end
  end

let on_tfr t view ~label ~position ~cycle ~carry =
  table_add view.tfrs cycle (position, label);
  t.on_transfer ~node:view.vid carry;
  let order =
    (* Causal order guarantees the TFR arrives after all LOCKs of its
       cycle, so the arbitration order is already computed locally. *)
    match List.assoc_opt cycle view.orders with
    | Some o -> o
    | None -> assert false
  in
  let last = List.length order - 1 in
  if position < last && List.nth order (position + 1) = view.vid then
    acquire t view ~position:(position + 1) ~cycle ~dep:(Dep.after label);
  if position = last then cycle_done t view ~cycle

let on_deliver t ~node ~time:_ msg =
  let view = t.views.(node) in
  let label = Message.label msg in
  match Message.payload msg with
  | Lock { member; cycle } -> on_lock t view ~label ~member ~cycle
  | Tfr { position; cycle; carry } ->
    on_tfr t view ~label ~position ~cycle ~carry

let create_carrying engine ~members ~release ~on_transfer
    ?(latency = Latency.lan) ?(hold = Latency.constant 1.0)
    ?(requesters = fun ~cycle:_ -> []) ?trace () =
  if members <= 0 then invalid_arg "Lock_service.create: members <= 0";
  let requesters =
    (* Default: every member requests every cycle. *)
    let default ~cycle:_ = List.init members Fun.id in
    fun ~cycle ->
      match requesters ~cycle with [] -> default ~cycle | rs -> rs
  in
  let views =
    Array.init members (fun vid ->
        { vid; locks = Hashtbl.create 16; tfrs = Hashtbl.create 16; orders = [] })
  in
  (* The stack's delivery callback needs [t], which needs the stack: tie
     the knot through a forward reference (deliveries only begin once the
     engine runs, well after [create] returns). *)
  let t_ref = ref None in
  let stack =
    Stack.compose ~ordering:Stack.Osend ~latency ?trace
      ~on_deliver:(fun ~node ~time msg ->
        match !t_ref with
        | Some t -> on_deliver t ~node ~time msg
        | None -> assert false)
      engine ~nodes:members ()
  in
  let t =
    {
      engine;
      stack;
      members;
      hold;
      hold_rng = Engine.fork_rng engine;
      requesters;
      release;
      on_transfer;
      views;
      total_cycles = 0;
      grants_rev = [];
      request_times = Hashtbl.create 64;
      cycle_start = Hashtbl.create 16;
      completed = 0;
      final_tfr_seen = Hashtbl.create 16;
      cycle_durations = Stats.create ();
      wait_times = Stats.create ();
    }
  in
  t_ref := Some t;
  t

let create engine ~members ?latency ?hold ?requesters ?trace () =
  create_carrying engine ~members
    ~release:(fun ~member:_ -> ())
    ~on_transfer:(fun ~node:_ () -> ())
    ?latency ?hold ?requesters ?trace ()

let start t ~cycles =
  if cycles <= 0 then invalid_arg "Lock_service.start: cycles <= 0";
  t.total_cycles <- cycles;
  let requesters = checked_requesters t ~cycle:0 in
  List.iter (fun r -> broadcast_lock t r ~cycle:0 ~dep:Dep.null) requesters

let grants t =
  List.sort (fun a b -> Float.compare a.grant_time b.grant_time)
    (List.rev t.grants_rev)

let cycles_completed t = t.completed

let arbitration_orders t node =
  List.sort (fun (a, _) (b, _) -> Int.compare a b) t.views.(node).orders

let check_mutual_exclusion t =
  let rec disjoint = function
    | [] | [ _ ] -> true
    | a :: (b :: _ as rest) -> a.release_time <= b.grant_time && disjoint rest
  in
  disjoint (grants t)

let check_agreement t =
  match Array.to_list t.views with
  | [] -> true
  | first :: rest ->
    let orders v =
      List.sort (fun (a, _) (b, _) -> Int.compare a b) v.orders
    in
    List.for_all (fun v -> orders v = orders first) rest

let check_liveness t ~expected_cycles =
  let granted_in cycle =
    List.filter (fun g -> g.cycle = cycle) (grants t)
    |> List.map (fun g -> g.holder)
    |> List.sort Int.compare
  in
  List.for_all
    (fun cycle -> granted_in cycle = checked_requesters t ~cycle)
    (List.init expected_cycles Fun.id)

let cycle_durations t = t.cycle_durations

let wait_times t = t.wait_times

let messages_sent t = Stack.messages_sent t.stack
