(** Distributed name service (paper §5.2).

    Registrations ([upd]) and resolutions ([qry]) are generated
    {e spontaneously} — no causal relationships among them — which is the
    case the paper's stable-point machinery cannot cover.  Two execution
    supports are provided, matching Fig. 4's two boxes:

    {ul
    {- {b App_check}: messages go out unordered ([Occurs_After NULL]).
       Each query carries context information — the label of the last
       update for the key as seen by the issuer.  A server answers a
       query only when its own last update for the key matches the
       query's context; otherwise it {e discards} the answer (the paper's
       "the application should discard qry2 since it leads to incorrect
       result").  Answers that survive the check are mutually consistent;
       the price is the discard rate, which grows with the update rate.}
    {- {b Total_order}: every message is funnelled through the [ASend]
       sequencer; all servers process the identical sequence, no checks
       or discards, at the cost of an extra hop and serialisation.}}

    Experiment T4 sweeps the query:update mix across both modes. *)

type mode = App_check | Total_order

type op =
  | Upd of { uid : int; key : string; value : string }
  | Qry of {
      uid : int;
      key : string;
      context : Causalb_graph.Label.t option;
          (** issuer's last-seen update label for [key] *)
    }

(** One server's response to one query. *)
type answer = {
  qry_uid : int;
  server : int;
  value : string option;   (** resolution result ([None] = unbound) *)
  valid : bool;            (** survived the context check *)
  time : float;
}

type t

val create :
  Causalb_sim.Engine.t ->
  servers:int ->
  mode:mode ->
  ?latency:Causalb_sim.Latency.t ->
  unit ->
  t

val update : t -> src:int -> key:string -> string -> unit

val query : t -> src:int -> key:string -> unit

val static_schedule :
  front_ends:int ->
  keys:int ->
  ops:int ->
  (int * Causalb_data.Datatypes.Kv_store.op) list
(** The protocol's submission intent as [(front_end, op)] rows in issue
    order: a deterministic T4-style mix (one [Upd] per two [Qry]s) on
    [keys] keys, round-robin across [front_ends].  Every row is submitted
    spontaneously — [Occurs_After NULL], no sync points — which is what
    makes §5.2 the case the stable-point machinery cannot cover.
    [causalb-lint] replays this schedule purely: its demand is
    [causal-total], met by the {!Total_order} sequencer box of Fig. 4,
    while under {!App_check} the gap is closed by the application's
    context check rather than the broadcast layer.

    @raise Invalid_argument if [front_ends <= 0] or [keys <= 0]. *)

val updates_issued : t -> int

val queries_issued : t -> int

val answers : t -> answer list

val answers_discarded : t -> int

val discard_fraction : t -> float
(** Discarded answers / total answers; 0 when no answers. *)

val queries_clean : t -> int
(** Queries for which every server produced a valid answer and all the
    valid answers agree. *)

val valid_answers_agree : t -> bool
(** No two valid answers for the same query differ — the soundness of the
    context check. *)

val answer_latency : t -> Causalb_util.Stats.t
(** Issue time to each server's answer (valid answers only). *)

val final_states_agree : t -> bool
(** Whether all servers hold the same registry after the run.  Expected
    [true] under [Total_order]; may be [false] under [App_check] (the
    residual inconsistency the application must tolerate). *)

val messages_sent : t -> int
