(** Reliable causal broadcast: {!Group} plus NACK-driven loss recovery.

    The paper assumes a reliable broadcast substrate (ISIS / Psync).  Over
    a lossy transport, a member discovers holes in two ways:

    {ul
    {- {b dependency-based}: a pending message names an ancestor that
       never arrived ({!Osend.blocked_on});}
    {- {b gap-based}: labels carry per-origin sequence numbers, so seeing
       [(o, 5)] without having seen [(o, 3)] proves [(o, 3)] exists and
       is missing.}}

    For each missing label the member arms a timer; if the message is
    still absent when it fires, the member broadcasts a [NACK] and any
    member holding a copy unicasts a repair.  Retries back off and give
    up after a bound (counted as unrecoverable).  Duplicate repairs are
    harmless — the delivery engine suppresses them.

    Inherent limit of pure NACKing (also true of Psync): a dropped message
    that no later message references and whose origin never sends again is
    invisible and cannot be NACKed.  {!enable_heartbeat} closes the hole:
    members periodically broadcast their per-origin sequence summaries, so
    any receiver lagging an origin's maximum discovers the tail gap and
    chases it. *)

type 'a packet

type 'a t

val create :
  'a packet Causalb_net.Net.t ->
  ?max_retries:int ->
  ?on_deliver:(node:int -> time:float -> 'a Message.t -> unit) ->
  unit ->
  'a t
(** A member waits 10 ms before requesting a missing message, doubling
    the wait on each retry; [max_retries] defaults to 8. *)

val size : 'a t -> int

val osend :
  'a t ->
  src:int ->
  ?name:string ->
  dep:Causalb_graph.Dep.t ->
  'a ->
  Causalb_graph.Label.t

val member : 'a t -> int -> 'a Osend.t

val delivered_order : 'a t -> int -> Causalb_graph.Label.t list

val all_delivered_orders : 'a t -> Causalb_graph.Label.t list list

val nacks_sent : 'a t -> int

val repairs_sent : 'a t -> int

val unrecoverable : 'a t -> int
(** Labels a member gave up on after [max_retries]. *)

val enable_heartbeat : ?gc:bool -> 'a t -> period:float -> until:float -> unit
(** Every member broadcasts its per-origin sequence summary every
    [period] ms (staggered per member) until virtual time [until];
    receivers chase any gap against the summary.  Bounded by [until] so
    simulations still terminate.

    With [gc:true] (default false) summaries double as a stability
    protocol: each carries the sender's contiguous-prefix watermark per
    origin, and a member prunes from its repair stash every message below
    the minimum watermark across the whole group — nobody can ever NACK
    those.  The label record survives pruning, so duplicate suppression
    is unaffected. *)

val summaries_sent : 'a t -> int

val pruned : 'a t -> int
(** Stash entries garbage-collected across all members. *)

val stash_peak : 'a t -> int
(** Largest repair-stash size any member reached. *)

val stash_size : 'a t -> int
(** Largest current stash size across members. *)
