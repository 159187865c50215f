module Engine = Causalb_sim.Engine
module Latency = Causalb_sim.Latency
module Rng = Causalb_util.Rng
module Service = Causalb_data.Service
module Replica = Causalb_data.Replica
module Document = Causalb_data.Datatypes.Document

type t = {
  engine : Engine.t;
  service : (Document.op, Document.state) Service.t;
  participants : int;
  sections : int;
  rng : Rng.t;
  mutable annotations : int;
  mutable commits : int;
}

let create engine ~participants ~sections ?latency () =
  if participants <= 0 then invalid_arg "Conference.create: participants <= 0";
  let service =
    Service.create engine ~replicas:participants
      ~spec:(Document.spec ~sections) ?latency ()
  in
  {
    engine;
    service;
    participants;
    sections;
    rng = Engine.fork_rng engine;
    annotations = 0;
    commits = 0;
  }

let service t = t.service

let check_participant t who p =
  if p < 0 || p >= t.participants then
    invalid_arg (Printf.sprintf "Conference.%s: participant %d out of range" who p)

let annotate t ~participant ~section text =
  check_participant t "annotate" participant;
  t.annotations <- t.annotations + 1;
  ignore
    (Service.submit t.service ~src:participant
       (Document.Annotate (section, text)))

let commit t ~moderator ~section ~body =
  check_participant t "commit" moderator;
  t.commits <- t.commits + 1;
  ignore
    (Service.submit t.service ~src:moderator (Document.Commit (section, body)))

let request_view t ~participant k =
  check_participant t "request_view" participant;
  Replica.read_deferred (Service.replica t.service participant) k

let session_schedule ~participants ~sections ~annotations ~commit_every
    ?(spacing = 1.0) rng =
  if commit_every <= 0 then
    invalid_arg "Conference.session_schedule: commit_every <= 0";
  let busiest = Array.make sections 0 in
  let rows = ref [] in
  for i = 0 to annotations - 1 do
    let participant = i mod participants in
    let section = Rng.int rng sections in
    let when_ = float_of_int i *. spacing in
    busiest.(section) <- busiest.(section) + 1;
    rows :=
      ( when_,
        participant,
        Document.Annotate (section, Printf.sprintf "note-%d by p%d" i participant)
      )
      :: !rows;
    if (i + 1) mod commit_every = 0 then begin
      let sec = ref 0 in
      Array.iteri (fun j c -> if c > busiest.(!sec) then sec := j) busiest;
      rows :=
        ( when_,
          0,
          Document.Commit
            (!sec, Printf.sprintf "body v%d of s%d" ((i + 1) / commit_every) !sec)
        )
        :: !rows
    end
  done;
  List.rev !rows

let run_session t ~annotations ~commit_every ?(spacing = 1.0) () =
  let rows =
    session_schedule ~participants:t.participants ~sections:t.sections
      ~annotations ~commit_every ~spacing t.rng
  in
  (* One event per row; the engine breaks time ties by insertion order, so
     a commit lands right after the annotation that triggered it, exactly
     as when both were submitted from a single callback. *)
  List.iter
    (fun (when_, src, op) ->
      Engine.schedule_at t.engine ~time:when_ (fun () ->
          match (op : Document.op) with
          | Document.Annotate (section, text) ->
            annotate t ~participant:src ~section text
          | Document.Commit (section, body) ->
            commit t ~moderator:src ~section ~body
          | Document.Review -> ignore (Service.submit t.service ~src op)))
    rows;
  Service.run t.service

let annotations_sent t = t.annotations

let commits_sent t = t.commits

let check t = Service.check t.service
