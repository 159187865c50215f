module Net = Causalb_net.Net
module Engine = Causalb_sim.Engine
module Label = Causalb_graph.Label
module Dep = Causalb_graph.Dep

type 'a packet =
  | Data of 'a Message.t
  | Nack of { wanting : Label.t; requester : int }
  | Repair of 'a Message.t
  | Summary of { from : int; counts : (int * int * int) list }
      (* (origin, max seq seen, contiguous prefix received) *)

(* Per-member recovery state. *)
type 'a station = {
  id : int;
  engine_member : 'a Osend.t;
  stash : 'a Message.t Label.Tbl.t;      (* messages kept for repairs *)
  max_seq : (int, int) Hashtbl.t;        (* origin -> highest seq seen *)
  contig : (int, int) Hashtbl.t;         (* origin -> contiguous prefix *)
  peer_contig : (int, (int, int) Hashtbl.t) Hashtbl.t;
      (* peer -> origin -> peer's contiguous prefix, from summaries *)
  delivered_set : unit Label.Tbl.t;      (* for contig/GC bookkeeping *)
  chasing : (Label.t, int) Hashtbl.t;    (* label -> retries so far *)
  mutable gave_up : int;
  mutable pruned : int;
  mutable stash_peak : int;
}

type 'a t = {
  net : 'a packet Net.t;
  engine : Engine.t;
  stations : 'a station array;
  seqs : int array;
  max_retries : int;
  mutable nacks : int;
  mutable repairs : int;
  mutable summaries : int;
  mutable gc : bool;
}

let size t = Array.length t.stations

let member t i = t.stations.(i).engine_member

let delivered_order t i = Osend.delivered_order (member t i)

let all_delivered_orders t =
  List.init (size t) (fun i -> delivered_order t i)

let nacks_sent t = t.nacks

let repairs_sent t = t.repairs

let unrecoverable t =
  Array.fold_left (fun acc s -> acc + s.gave_up) 0 t.stations

(* "seen" must survive stash pruning: the label record is permanent even
   when the payload has been garbage-collected. *)
let has_seen st label = Label.Tbl.mem st.delivered_set label

(* The wait before requesting a missing message, in ms; doubled on each
   retry. *)
let nack_timeout = 10.0

(* Arm (or re-arm) a chase for a missing label at this station. *)
let rec chase t st label =
  if not (has_seen st label) then begin
    let retries =
      Option.value ~default:0 (Hashtbl.find_opt st.chasing label)
    in
    if retries >= t.max_retries then begin
      Hashtbl.remove st.chasing label;
      st.gave_up <- st.gave_up + 1
    end
    else begin
      Hashtbl.replace st.chasing label (retries + 1);
      t.nacks <- t.nacks + 1;
      Net.broadcast t.net ~src:st.id ~self:false
        (Nack { wanting = label; requester = st.id });
      let backoff = nack_timeout *. (2.0 ** float_of_int retries) in
      Engine.schedule t.engine ~delay:backoff (fun () -> chase t st label)
    end
  end
  else Hashtbl.remove st.chasing label

let start_chase t st label =
  if (not (has_seen st label)) && not (Hashtbl.mem st.chasing label) then begin
    Hashtbl.replace st.chasing label 0;
    (* first probe waits one timeout: the message may simply be in flight *)
    Engine.schedule t.engine ~delay:nack_timeout (fun () -> chase t st label)
  end

(* Gap detection from per-origin sequence numbers: labels below the
   highest seen sequence that were never received must exist. *)
let scan_gaps t st label =
  let origin = Label.origin label and seq = Label.seq label in
  let prev = Option.value ~default:(-1) (Hashtbl.find_opt st.max_seq origin) in
  if seq > prev then begin
    Hashtbl.replace st.max_seq origin seq;
    for missing = prev + 1 to seq - 1 do
      let l = Label.make ~origin ~seq:missing () in
      if not (has_seen st l) then start_chase t st l
    done
  end

let advance_contig st origin =
  let rec bump h =
    if Label.Tbl.mem st.delivered_set (Label.make ~origin ~seq:(h + 1) ())
    then bump (h + 1)
    else h
  in
  let prev = Option.value ~default:(-1) (Hashtbl.find_opt st.contig origin) in
  Hashtbl.replace st.contig origin (bump prev)

let accept_data t st msg =
  let label = Message.label msg in
  if not (has_seen st label) then begin
    Label.Tbl.replace st.delivered_set label ();
    Label.Tbl.replace st.stash label msg;
    st.stash_peak <- max st.stash_peak (Label.Tbl.length st.stash);
    Hashtbl.remove st.chasing label;
    Osend.receive st.engine_member msg;
    scan_gaps t st label;
    advance_contig st (Label.origin label);
    (* any ancestors the delivery engine is now blocked on are provably
       missing — chase them *)
    List.iter (start_chase t st) (Osend.blocked_on st.engine_member)
  end

(* A message is globally stable once every member's contiguous prefix for
   its origin covers it: nobody can ever NACK it, so its stash payload can
   go.  Requires a summary from every peer. *)
let collect_garbage t st =
  let n = Array.length t.stations in
  let frontier origin =
    let mine = Option.value ~default:(-1) (Hashtbl.find_opt st.contig origin) in
    let rec over_peers p acc =
      if p >= n then acc
      else if p = st.id then over_peers (p + 1) acc
      else
        match Hashtbl.find_opt st.peer_contig p with
        | None -> -1
        | Some tbl ->
          let c = Option.value ~default:(-1) (Hashtbl.find_opt tbl origin) in
          if c < 0 then -1 else over_peers (p + 1) (min acc c)
    in
    over_peers 0 mine
  in
  let doomed =
    Label.Tbl.fold
      (fun label _ acc ->
        if Label.seq label <= frontier (Label.origin label) then label :: acc
        else acc)
      st.stash []
  in
  List.iter
    (fun label ->
      Label.Tbl.remove st.stash label;
      st.pruned <- st.pruned + 1)
    doomed

let handle t node packet =
  let st = t.stations.(node) in
  match packet with
  | Data msg | Repair msg -> accept_data t st msg
  | Nack { wanting; requester } ->
    (match Label.Tbl.find_opt st.stash wanting with
    | Some msg ->
      t.repairs <- t.repairs + 1;
      Net.send t.net ~src:node ~dst:requester ~size:1 (Repair msg)
    | None -> ())
  | Summary { from; counts } ->
    let table =
      match Hashtbl.find_opt st.peer_contig from with
      | Some tbl -> tbl
      | None ->
        let tbl = Hashtbl.create 8 in
        Hashtbl.replace st.peer_contig from tbl;
        tbl
    in
    List.iter
      (fun (origin, their_max, their_contig) ->
        Hashtbl.replace table origin their_contig;
        let mine =
          Option.value ~default:(-1) (Hashtbl.find_opt st.max_seq origin)
        in
        for missing = mine + 1 to their_max do
          let l = Label.make ~origin ~seq:missing () in
          if not (has_seen st l) then start_chase t st l
        done)
      counts;
    if t.gc then collect_garbage t st

let create net ?(max_retries = 8)
    ?(on_deliver = fun ~node:_ ~time:_ _ -> ()) () =
  let n = Net.nodes net in
  let engine = Net.engine net in
  let stations =
    Array.init n (fun id ->
        let deliver msg = on_deliver ~node:id ~time:(Engine.now engine) msg in
        {
          id;
          engine_member = Osend.create ~id ~deliver ();
          stash = Label.Tbl.create 128;
          max_seq = Hashtbl.create 16;
          contig = Hashtbl.create 16;
          peer_contig = Hashtbl.create 8;
          delivered_set = Label.Tbl.create 128;
          chasing = Hashtbl.create 16;
          gave_up = 0;
          pruned = 0;
          stash_peak = 0;
        })
  in
  let t =
    {
      net;
      engine;
      stations;
      seqs = Array.make n 0;
      max_retries;
      nacks = 0;
      repairs = 0;
      summaries = 0;
      gc = false;
    }
  in
  for node = 0 to n - 1 do
    Net.set_handler net node (fun ~src:_ packet -> handle t node packet)
  done;
  t

let osend t ~src ?name ~dep payload =
  let seq = t.seqs.(src) in
  t.seqs.(src) <- seq + 1;
  let label = Label.make ?name ~origin:src ~seq () in
  let msg = Message.make ~label ~sender:src ~dep payload in
  (* the sender keeps its own copy immediately: it is the repair source
     of last resort for its own messages *)
  accept_data t t.stations.(src) msg;
  Net.broadcast t.net ~src ~self:false (Data msg);
  label

let enable_heartbeat ?(gc = false) t ~period ~until =
  if period <= 0.0 then invalid_arg "Rgroup.enable_heartbeat: period <= 0";
  t.gc <- gc;
  Array.iter
    (fun st ->
      (* stagger members so summaries interleave rather than collide *)
      let offset = period *. float_of_int st.id /. float_of_int (size t) in
      Engine.schedule t.engine ~delay:offset (fun () ->
          Engine.every t.engine ~period ~until (fun () ->
              let counts =
                Hashtbl.fold
                  (fun o s acc ->
                    let c =
                      Option.value ~default:(-1)
                        (Hashtbl.find_opt st.contig o)
                    in
                    (o, s, c) :: acc)
                  st.max_seq []
              in
              if counts <> [] then begin
                t.summaries <- t.summaries + 1;
                Net.broadcast t.net ~src:st.id ~self:false
                  (Summary { from = st.id; counts })
              end)))
    t.stations

let summaries_sent t = t.summaries

let pruned t = Array.fold_left (fun acc st -> acc + st.pruned) 0 t.stations

let stash_peak t =
  Array.fold_left (fun acc st -> max acc st.stash_peak) 0 t.stations

let stash_size t =
  Array.fold_left (fun acc st -> max acc (Label.Tbl.length st.stash)) 0
    t.stations
