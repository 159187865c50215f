(** Multiplayer card game with relaxed causal turn order (paper §5.1).

    [r] players share a table in a window system and play in rounds.  In
    the paper's scenario the [l]-th player's action does not depend on the
    immediately preceding player but on some earlier player [k < l−1]:
    [card_k → card_l] with [‖{card_l, card_j}] for the players in
    between — a weaker ordering that lets several players think and play
    concurrently.

    Two modes:
    {ul
    {- [Strict_turns]: player [l] waits for player [l−1] — the fully
       serial baseline;}
    {- [Relaxed dep]: player [l] waits for player [dep ~round ~player:l]
       (must be [< l]; player 0 opens the round).}}

    The round opener's card [Occurs_After] every card of the previous
    round (the AND-dependency of relation (3)), so rounds are causal
    activities and the table contents at each round boundary is a stable
    point.  Each member maintains a {!Causalb_data.Datatypes.Card_table}
    replica; since plays commute, per-round tables agree at every member
    even though delivery orders differ — checked by
    {!check_tables_agree}.  The plays travel through a
    {!Causalb_stack.Stack} composed over OSend. *)

type mode =
  | Strict_turns
  | Relaxed of (round:int -> player:int -> int)
      (** dependency player for each non-opener; must be in [\[0, l-1\]] *)

type t

val create :
  Causalb_sim.Engine.t ->
  players:int ->
  mode:mode ->
  ?latency:Causalb_sim.Latency.t ->
  ?think:Causalb_sim.Latency.t ->
  unit ->
  t
(** [think] (default exponential, mean 2 ms) samples the delay between a
    player seeing its dependency card and playing its own.
    @raise Invalid_argument if [players <= 0]. *)

val start : t -> rounds:int -> unit
(** Opens round 0; later rounds self-trigger.  Run the engine after. *)

val static_schedule :
  players:int ->
  rounds:int ->
  (Causalb_graph.Label.t
  * Causalb_graph.Dep.t
  * int
  * Causalb_data.Datatypes.Card_table.op)
  list
(** The {!Strict_turns} submission intent as [(label, dep, player, op)]
    rows in play order: player [p]'s card occurs after player [p-1]'s in
    the same round, and a new round's opener occurs after {e every} card
    of the finished round.  Labels match the runtime ones exactly
    (the stack's OSend group gives player [p]'s round-[r] card identity
    [(origin=p, seq=r)]); the card value is a placeholder — only the
    class structure matters to the lint.  [causalb-lint] replays this
    schedule purely: plays commute structurally (the table is kept
    sorted), so the chain serves turn-taking, not consistency, and the
    static demand is [unordered].

    @raise Invalid_argument if [players <= 0]. *)

val rounds_completed : t -> int
(** Rounds whose full card set reached every member. *)

val round_durations : t -> Causalb_util.Stats.t
(** Opener broadcast to global completion, per round. *)

val check_causal_order : t -> bool
(** Every member's delivery order respects the declared dependencies. *)

val check_tables_agree : t -> bool
(** All members' card tables went through the same per-round contents. *)

val messages_sent : t -> int
