(** Deterministic discrete-event simulation engine.

    The engine owns a virtual clock and a priority queue of pending
    events.  [run] repeatedly pops the earliest event and executes its
    callback, which may schedule further events.  Events with equal
    timestamps fire in scheduling order (a monotone tie-break), so a run
    is a pure function of the seed — the substrate property every
    experiment relies on for replay.

    Callbacks run on the caller's stack; re-entrancy is safe because the
    queue is only mutated through [schedule]. *)

type t

val create : ?seed:int -> unit -> t
(** Fresh engine at virtual time 0.  [seed] (default 42) initialises the
    root RNG from which components should [split] their own streams. *)

val now : t -> float
(** Current virtual time in milliseconds. *)

type clock = private { mutable now : float }
(** The engine's clock, read-only outside the engine.  An all-float
    record is stored flat, so a module that reads [(clock t).now] gets
    the time unboxed, where {!now}'s result is a boxed float (dev builds
    compile with [-opaque]). *)

val clock : t -> clock
(** [(clock t).now = now t] at every instant. *)

type cell = { mutable time : float }
(** A virtual time handed to {!schedule_cell}: written by the caller and
    read by the engine, both flat, so the time crosses the module
    boundary without a box. *)

val rng : t -> Causalb_util.Rng.t
(** The engine's root generator. *)

val fork_rng : t -> Causalb_util.Rng.t
(** An independent generator split off the root — one per component. *)

val schedule : t -> delay:float -> (unit -> unit) -> unit
(** Run the callback [delay] ms from now.  @raise Invalid_argument
    unless [delay >= 0] (so on a negative or NaN delay). *)

val schedule_at : t -> time:float -> (unit -> unit) -> unit
(** Run the callback at an absolute virtual time.  @raise
    Invalid_argument unless [time >= now t] (so on a past or NaN time). *)

val schedule_cell : t -> cell -> (unit -> unit) -> unit
(** [schedule_cell t c f] is [schedule_at t ~time:c.time f], with the
    same check; the time is read when the call is made.  [Net] schedules
    every remote copy through it. *)

val every : t -> period:float -> ?until:float -> (unit -> unit) -> unit
(** Periodic callback starting one period from now, optionally bounded.
    @raise Invalid_argument unless [period > 0]. *)

val step : t -> bool
(** Execute the earliest pending event.  [false] iff the queue was empty. *)

val run : ?until:float -> ?max_events:int -> t -> unit
(** Drain the queue, stopping early when virtual time would exceed
    [until] or after [max_events] callbacks. *)

val pending : t -> int
(** Number of queued events. *)

val events_processed : t -> int
(** Callbacks executed since creation. *)
