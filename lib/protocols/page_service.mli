(** Distributed shared-page access (paper §6.2's setting).

    The lock arbitration of §6.2 exists to serialise access to a shared
    {e page}: "the access permission on a data item is obtained by
    acquiring a lock associated with that item … when a current holder
    has completed page access, it broadcasts a TFR message".  This
    protocol completes the picture by moving the page with the lock:

    {ul
    {- [LOCK(i, S)] requests are totally ordered through their causal
       dependencies on the previous cycle's transfers (as in
       {!Lock_service});}
    {- the holder mutates its local page copy, then broadcasts
       [TFR(pos, S)] carrying the {e new page contents} — one broadcast
       both releases the lock and propagates the write, so every member's
       copy is current the moment it could next acquire;}
    {- the deterministic arbiter gives the same holder sequence at every
       member, so page versions form a single total order with no lost
       updates.}}

    The protocol run is {!Lock_service}'s, built by
    {!Lock_service.create_carrying} with the page as the transfer's
    value; this module keeps each member's page copy and checks them.
    Writers are application callbacks: [mutate ~member ~page] returns the
    member's new page contents. *)

type page = {
  version : int;
  data : string;
  writer : int;  (** member that produced this version *)
}

type t

val create :
  Causalb_sim.Engine.t ->
  members:int ->
  mutate:(member:int -> page:page -> string) ->
  ?latency:Causalb_sim.Latency.t ->
  ?hold:Causalb_sim.Latency.t ->
  ?requesters:(cycle:int -> int list) ->
  unit ->
  t
(** [hold] samples how long a holder works on the page before
    transferring (default constant 1 ms). *)

val start : t -> cycles:int -> unit

val page_at : t -> int -> page
(** A member's current local copy. *)

val versions_applied : t -> int -> int list
(** Version numbers a member saw, in arrival order. *)

val writes : t -> (int * int) list
(** [(version, writer)] pairs in version order, from the final page
    lineage at member 0. *)

val check_no_lost_updates : t -> expected_writes:int -> bool
(** Versions run 1..n with no gaps: every grant's write survived. *)

val check_copies_converge : t -> bool
(** All members end with the identical page. *)

val check_versions_monotone : t -> bool
(** No member ever applied a version lower than one it already had. *)

val messages_sent : t -> int
