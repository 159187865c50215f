module Engine = Causalb_sim.Engine
module Latency = Causalb_sim.Latency
module Stack = Causalb_stack.Stack
module Message = Causalb_core.Message
module Dep = Causalb_graph.Dep
module Label = Causalb_graph.Label
module Stats = Causalb_util.Stats
module Smap = Map.Make (String)
module Seq_spec = Causalb_data.Seq_spec
module Kv = Causalb_data.Datatypes.Kv_store

type mode = App_check | Total_order

type op =
  | Upd of { uid : int; key : string; value : string }
  | Qry of { uid : int; key : string; context : Label.t option }

type answer = {
  qry_uid : int;
  server : int;
  value : string option;
  valid : bool;
  time : float;
}

type server = {
  sid : int;
  mutable registry : Kv.state;
      (* registry transitions run through the Kv_store sequential spec;
         the context check below stays protocol-level — it is the reason
         the spec leaves "qry" a plain (non-observer) commutative class *)
  mutable last_upd : Label.t Smap.t; (* key -> label of last applied upd *)
}

type t = {
  engine : Engine.t;
  stack : op Stack.t;
  mode : mode;
  servers : server array;
  mutable next_uid : int;
  issue_times : (int, float) Hashtbl.t;
  mutable answers_rev : answer list;
  mutable updates : int;
  mutable queries : int;
  answer_latency : Stats.t;
}

let apply_at t server ~label ~time = function
  | Upd { key; value; _ } ->
    server.registry <- Kv.spec.Seq_spec.apply server.registry (Kv.Upd (key, value));
    server.last_upd <- Smap.add key label server.last_upd
  | Qry { uid; key; context } ->
    let value = Kv.lookup (Kv.spec.Seq_spec.apply server.registry (Kv.Qry key)) key in
    let valid =
      match t.mode with
      | Total_order -> true
      | App_check ->
        (* Context check: answer only from the same "last update" the
           issuer saw; otherwise the result may differ across servers. *)
        let mine = Smap.find_opt key server.last_upd in
        (match (mine, context) with
        | None, None -> true
        | Some a, Some b -> Label.equal a b
        | None, Some _ | Some _, None -> false)
    in
    t.answers_rev <-
      { qry_uid = uid; server = server.sid; value; valid; time }
      :: t.answers_rev;
    if valid then begin
      match Hashtbl.find_opt t.issue_times uid with
      | Some t0 -> Stats.add t.answer_latency (time -. t0)
      | None -> ()
    end

let create engine ~servers:n ~mode ?(latency = Latency.lan) () =
  if n <= 0 then invalid_arg "Name_service.create: servers <= 0";
  (* the protocol is built for the derived labeling: updates are sync
     points, queries ride the window under the context check *)
  assert (not (Seq_spec.is_cid Kv.spec (Kv.Upd ("", ""))));
  assert (Seq_spec.is_cid Kv.spec (Kv.Qry ""));
  let servers =
    Array.init n (fun sid ->
        { sid; registry = Kv.spec.Seq_spec.init; last_upd = Smap.empty })
  in
  let t_ref = ref None in
  (* Fig. 4's two boxes are two stack compositions: bare causal broadcast
     under the application's context check, or the same causal layer with
     the sequencer interposed. *)
  let total =
    match mode with
    | App_check -> Stack.Pass
    | Total_order -> Stack.Sequencer { node = 0 }
  in
  let stack =
    Stack.compose ~ordering:Stack.Osend ~total ~latency
      ~on_deliver:(fun ~node ~time msg ->
        match !t_ref with
        | Some t ->
          apply_at t t.servers.(node) ~label:(Message.label msg) ~time
            (Message.payload msg)
        | None -> assert false)
      engine ~nodes:n ()
  in
  let t =
    {
      engine;
      stack;
      mode;
      servers;
      next_uid = 0;
      issue_times = Hashtbl.create 256;
      answers_rev = [];
      updates = 0;
      queries = 0;
      answer_latency = Stats.create ();
    }
  in
  t_ref := Some t;
  t

let fresh_uid t =
  let uid = t.next_uid in
  t.next_uid <- uid + 1;
  Hashtbl.replace t.issue_times uid (Engine.now t.engine);
  uid

let dispatch t ~src op =
  (* Spontaneous: no causal relationship to anything (§5.2).  Under
     [Total_order] the stack routes through its sequencer. *)
  ignore (Stack.submit t.stack ~src ~dep:Dep.null op)

let static_schedule ~front_ends ~keys ~ops =
  if front_ends <= 0 then
    invalid_arg "Name_service.static_schedule: front_ends <= 0";
  if keys <= 0 then invalid_arg "Name_service.static_schedule: keys <= 0";
  List.init ops (fun i ->
      let key = Printf.sprintf "k%d" (i mod keys) in
      let op =
        if i mod 3 = 0 then Kv.Upd (key, Printf.sprintf "v%d" i)
        else Kv.Qry key
      in
      (i mod front_ends, op))

let update t ~src ~key value =
  let uid = fresh_uid t in
  t.updates <- t.updates + 1;
  dispatch t ~src (Upd { uid; key; value })

let query t ~src ~key =
  let uid = fresh_uid t in
  t.queries <- t.queries + 1;
  let context = Smap.find_opt key t.servers.(src).last_upd in
  dispatch t ~src (Qry { uid; key; context })

let updates_issued t = t.updates

let queries_issued t = t.queries

let answers t = List.rev t.answers_rev

let answers_discarded t =
  List.length (List.filter (fun a -> not a.valid) (answers t))

let discard_fraction t =
  let all = answers t in
  if all = [] then 0.0
  else
    float_of_int (answers_discarded t) /. float_of_int (List.length all)

let by_query t =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun a ->
      let prev = Option.value ~default:[] (Hashtbl.find_opt tbl a.qry_uid) in
      Hashtbl.replace tbl a.qry_uid (a :: prev))
    (answers t);
  tbl

let queries_clean t =
  let tbl = by_query t in
  Hashtbl.fold
    (fun _ answers acc ->
      let all_valid = List.for_all (fun a -> a.valid) answers in
      let values = List.map (fun a -> a.value) answers in
      let agree =
        match values with [] -> true | v :: rest -> List.for_all (( = ) v) rest
      in
      if all_valid && agree && List.length answers = Array.length t.servers
      then acc + 1
      else acc)
    tbl 0

let valid_answers_agree t =
  let tbl = by_query t in
  Hashtbl.fold
    (fun _ answers acc ->
      let valid = List.filter (fun a -> a.valid) answers in
      let agree =
        match valid with
        | [] -> true
        | v :: rest -> List.for_all (fun a -> a.value = v.value) rest
      in
      acc && agree)
    tbl true

let answer_latency t = t.answer_latency

let final_states_agree t =
  match Array.to_list t.servers with
  | [] -> true
  | first :: rest ->
    List.for_all
      (fun s -> Kv.spec.Seq_spec.equal s.registry first.registry)
      rest

let messages_sent t = Stack.messages_sent t.stack
