module Engine = Causalb_sim.Engine
module Latency = Causalb_sim.Latency
module Stack = Causalb_stack.Stack
module Group = Causalb_core.Group
module Osend = Causalb_core.Osend
module Checker = Causalb_core.Checker
module Message = Causalb_core.Message
module Dep = Causalb_graph.Dep
module Label = Causalb_graph.Label
module Stats = Causalb_util.Stats
module Rng = Causalb_util.Rng
module Seq_spec = Causalb_data.Seq_spec
module Card_table = Causalb_data.Datatypes.Card_table

type mode = Strict_turns | Relaxed of (round:int -> player:int -> int)

type play = { round : int; player : int; card : string }

type member_view = {
  mid : int;
  mutable table : Card_table.state;
  cards_seen : (int, (int * Label.t) list) Hashtbl.t; (* round -> plays *)
  mutable rounds_closed : int;
}

type t = {
  engine : Engine.t;
  stack : play Stack.t;
  players : int;
  mode : mode;
  think : Latency.t;
  think_rng : Rng.t;
  card_rng : Rng.t;
  views : member_view array;
  mutable total_rounds : int;
  round_start : (int, float) Hashtbl.t;
  round_complete_count : (int, int) Hashtbl.t;
  mutable completed : int;
  round_durations : Stats.t;
}

let dependency t ~round ~player =
  if player = 0 then None
  else
    match t.mode with
    | Strict_turns -> Some (player - 1)
    | Relaxed dep ->
      let k = dep ~round ~player in
      if k < 0 || k >= player then
        invalid_arg
          (Printf.sprintf
             "Card_game: dependency %d for player %d must be in [0,%d]" k
             player (player - 1))
      else Some k

let deal_card t =
  let suits = [| "S"; "H"; "D"; "C" |] in
  let rank = 2 + Rng.int t.card_rng 13 in
  Printf.sprintf "%s%d" (Rng.pick t.card_rng suits) rank

let static_schedule ~players ~rounds =
  if players <= 0 then invalid_arg "Card_game.static_schedule: players <= 0";
  (* The stack's OSend group assigns per-origin sequence numbers; player
     [p] sends exactly one card per round, so the runtime label of card
     (r,p) is (origin=p, seq=r) — the schedule reproduces it exactly,
     display name included.  The card itself is drawn at play time and
     irrelevant to the class structure, so a placeholder stands in. *)
  let label ~round ~player =
    Label.make
      ~name:(Printf.sprintf "card.%d.%d" round player)
      ~origin:player ~seq:round ()
  in
  List.concat
    (List.init rounds (fun r ->
         List.init players (fun p ->
             let dep =
               if p > 0 then Dep.after (label ~round:r ~player:(p - 1))
               else if r = 0 then Dep.null
               else
                 Dep.after_all
                   (List.init players (fun q -> label ~round:(r - 1) ~player:q))
             in
             (label ~round:r ~player:p, dep, p, Card_table.Play (p, "S2")))))

let play_card t ~player ~round ~dep =
  if not (Hashtbl.mem t.round_start round) then
    Hashtbl.replace t.round_start round (Engine.now t.engine);
  let card = deal_card t in
  let name = Printf.sprintf "card.%d.%d" round player in
  ignore (Stack.submit t.stack ~src:player ~name ~dep { round; player; card })

(* A player acts when its dependency card shows up in its own window
   (its delivery stream): think, then play. *)
let maybe_act t view ~round ~played_by ~label =
  for player = 0 to t.players - 1 do
    if player = view.mid then begin
      match dependency t ~round ~player with
      | Some k when k = played_by ->
        let delay = Latency.sample t.think_rng t.think in
        Engine.schedule t.engine ~delay (fun () ->
            play_card t ~player ~round ~dep:(Dep.after label))
      | Some _ | None -> ()
    end
  done

let open_next_round t view ~completed_round =
  let next = completed_round + 1 in
  if next < t.total_rounds && view.mid = 0 then begin
    (* The opener's card waits for every card of the finished round. *)
    let labels = List.map snd (Hashtbl.find view.cards_seen completed_round) in
    let delay = Latency.sample t.think_rng t.think in
    Engine.schedule t.engine ~delay (fun () ->
        play_card t ~player:0 ~round:next ~dep:(Dep.after_all labels))
  end

let round_completed_at t view ~round =
  view.table <-
    Card_table.spec.Seq_spec.apply view.table Card_table.Round_end;
  view.rounds_closed <- view.rounds_closed + 1;
  let seen =
    1 + Option.value ~default:0 (Hashtbl.find_opt t.round_complete_count round)
  in
  Hashtbl.replace t.round_complete_count round seen;
  if seen = t.players then begin
    t.completed <- t.completed + 1;
    match Hashtbl.find_opt t.round_start round with
    | Some t0 -> Stats.add t.round_durations (Engine.now t.engine -. t0)
    | None -> ()
  end;
  open_next_round t view ~completed_round:round

let on_deliver t ~node ~time:_ msg =
  let view = t.views.(node) in
  let { round; player; card } = Message.payload msg in
  let label = Message.label msg in
  view.table <-
    Card_table.spec.Seq_spec.apply view.table (Card_table.Play (player, card));
  let prev =
    Option.value ~default:[] (Hashtbl.find_opt view.cards_seen round)
  in
  Hashtbl.replace view.cards_seen round ((player, label) :: prev);
  maybe_act t view ~round ~played_by:player ~label;
  if List.length prev + 1 = t.players then round_completed_at t view ~round

let create engine ~players ~mode ?(latency = Latency.lan)
    ?(think = Latency.exponential ~mean:2.0 ()) () =
  if players <= 0 then invalid_arg "Card_game.create: players <= 0";
  let views =
    Array.init players (fun mid ->
        {
          mid;
          table = Card_table.spec.Seq_spec.init;
          cards_seen = Hashtbl.create 16;
          rounds_closed = 0;
        })
  in
  let t_ref = ref None in
  let stack =
    Stack.compose ~ordering:Stack.Osend ~latency
      ~on_deliver:(fun ~node ~time msg ->
        match !t_ref with
        | Some t -> on_deliver t ~node ~time msg
        | None -> assert false)
      engine ~nodes:players ()
  in
  let t =
    {
      engine;
      stack;
      players;
      mode;
      think;
      think_rng = Engine.fork_rng engine;
      card_rng = Engine.fork_rng engine;
      views;
      total_rounds = 0;
      round_start = Hashtbl.create 16;
      round_complete_count = Hashtbl.create 16;
      completed = 0;
      round_durations = Stats.create ();
    }
  in
  t_ref := Some t;
  t

let start t ~rounds =
  if rounds <= 0 then invalid_arg "Card_game.start: rounds <= 0";
  t.total_rounds <- rounds;
  play_card t ~player:0 ~round:0 ~dep:Dep.null

let rounds_completed t = t.completed

let round_durations t = t.round_durations

let check_causal_order t =
  let group = Option.get (Stack.osend_group t.stack) in
  Array.for_all
    (fun view ->
      let member = Group.member group view.mid in
      Checker.causal_safety (Osend.graph member) (Osend.delivered_order member))
    t.views

let check_tables_agree t =
  match Array.to_list t.views with
  | [] -> true
  | first :: rest ->
    let finished v = v.table.Card_table.finished in
    List.for_all (fun v -> finished v = finished first) rest

let messages_sent t = Stack.messages_sent t.stack
