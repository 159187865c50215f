(** Decentralized lock arbitration over totally ordered messages
    (paper §6.2, Fig. 5).

    Members needing the lock broadcast [LOCK(i, S)] requests for
    arbitration cycle [S]; these are spontaneous, so the paper totally
    orders them — here through the causal dependency structure itself:
    every [LOCK] of cycle [S] [Occurs_After] all [TFR] (transfer)
    messages of cycle [S−1], and once a member has delivered the
    {e predetermined number} of [LOCK] messages it runs a deterministic
    arbitration algorithm.  All members therefore compute the identical
    holder sequence with {e no} extra agreement messages.

    The holder sequence for a cycle is the sorted requester list rotated
    by [S] (a fair deterministic arbiter).  Each holder uses the resource
    for a sampled hold time, then broadcasts [TFR(pos, S)]
    [Occurs_After] the previous transfer; the last [TFR] of a cycle
    unblocks the next cycle's [LOCK]s.

    The paper's holder "broadcasts a TFR message" once it has finished
    with the page, so a transfer carries a value: {!create_carrying}
    takes the holder's released value and hands it to every member as
    the transfer delivers ({!Page_service} puts the page there).  The
    plain lock, {!create}, carries [()].

    Verified properties: mutual exclusion of usage intervals, identical
    arbitration order at every member, and lock liveness (every request
    eventually granted). *)

type 'p msg =
  | Lock of { member : int; cycle : int }
  | Tfr of { position : int; cycle : int; carry : 'p }
      (** transfer by the holder at [position] in the cycle's sequence,
          carrying the value it released *)

type grant = {
  cycle : int;
  holder : int;
  grant_time : float;   (** holder's local grant instant *)
  release_time : float;
}

type 'p t

val create_carrying :
  Causalb_sim.Engine.t ->
  members:int ->
  release:(member:int -> 'p) ->
  on_transfer:(node:int -> 'p -> unit) ->
  ?latency:Causalb_sim.Latency.t ->
  ?hold:Causalb_sim.Latency.t ->
  ?requesters:(cycle:int -> int list) ->
  ?trace:Causalb_sim.Trace.t ->
  unit ->
  'p t
(** The §6.2 protocol with a value on every transfer.  The holder calls
    [release ~member] for the value as it broadcasts its [TFR]; each
    member runs [on_transfer ~node] on that value as the [TFR] delivers
    there, before it acts on the transfer.  [hold] (default constant
    1 ms) samples resource-usage durations.  [requesters ~cycle]
    (default: every member) must be non-empty for every cycle that runs.
    @raise Invalid_argument if [members <= 0]. *)

val create :
  Causalb_sim.Engine.t ->
  members:int ->
  ?latency:Causalb_sim.Latency.t ->
  ?hold:Causalb_sim.Latency.t ->
  ?requesters:(cycle:int -> int list) ->
  ?trace:Causalb_sim.Trace.t ->
  unit ->
  unit t
(** The plain lock: {!create_carrying} with an empty transfer. *)

val start : 'p t -> cycles:int -> unit
(** Inject cycle 0's requests; subsequent cycles self-trigger until
    [cycles] have completed.  Call {!Causalb_sim.Engine.run} afterwards. *)

val grants : 'p t -> grant list
(** All granted usages, in grant order. *)

val cycles_completed : 'p t -> int

val arbitration_orders : 'p t -> int -> (int * int list) list
(** Per member: [(cycle, holder sequence)] as computed locally. *)

val check_mutual_exclusion : 'p t -> bool
(** No two usage intervals overlap. *)

val check_agreement : 'p t -> bool
(** Every member computed the same holder sequence for every cycle. *)

val check_liveness : 'p t -> expected_cycles:int -> bool
(** Every requester of every completed cycle was granted exactly once. *)

val cycle_durations : 'p t -> Causalb_util.Stats.t
(** Wall-clock (virtual) duration of each completed cycle. *)

val wait_times : 'p t -> Causalb_util.Stats.t
(** Per grant: request broadcast to grant. *)

val messages_sent : 'p t -> int
