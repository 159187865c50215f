(** The sweep pool behind [causalb exp -j N] and [causalb hunt -j N].

    [run ~jobs tasks] executes the tasks on up to [jobs] worker domains
    (OCaml 5; a dynamically-claimed shared work queue keeps skewed task
    costs from idling domains) and returns one {!result} per task, in
    task-list order, each task given the {!seed_for}-derived seed of its
    name — so the assembled output of a sweep is byte-identical whatever
    the job count (asserted in [test/test_pool.ml]).

    Capture: worker domains share one fd table, so a task's output is
    captured through {!Causalb_util.Printer}'s domain-local sink — every
    print site of a registry part goes through [Printer].  Tasks marked
    [Sequential] (the timing parts) run first, one at a time in the
    calling domain, before any worker domain spawns, so their timings
    are not polluted by concurrent mutator work.

    On OCaml 4.14 ([recommended_domains () = 1]) every task runs
    sequentially in the calling domain under the same capture: same
    results, same bytes, no speed-up. *)

type mode =
  | Parallel  (** deterministic part: prints through [Printer], any domain *)
  | Sequential
      (** timing part: calling domain, before worker domains spawn *)

type task = { name : string; mode : mode; run : seed:int -> unit }

type status =
  | Done
  | Failed of string  (** the exception the task raised *)

type result = {
  name : string;
  seed : int;         (** the derived per-task seed the task was given *)
  status : status;
  wall_ms : float;
  gc_minor_words : float;
      (** minor-heap words the task allocated, counted in its own domain
          ([Gc.counters]).  Exact only to about one minor heap (262 144
          words by default): the counters place the words of a partly
          filled minor heap roughly, so a task that allocates less than
          that can read well off its true figure. *)
  gc_major_words : float;
  output : string;    (** everything the task printed through [Printer] *)
}

type report = {
  results : result list;  (** one per task, in task-list order *)
  failures : string list; (** names of tasks that did not finish cleanly *)
  wall_ms : float;        (** whole-sweep wall clock *)
  jobs : int;             (** worker count used, after {!jobs_for} *)
}

val task : ?mode:mode -> name:string -> (seed:int -> unit) -> task
(** [mode] defaults to [Parallel]. *)

val seed_for : base:int -> string -> int
(** The deterministic per-task seed: FNV-1a of the task name folded into
    the base seed.  A pure function of (base, name) — independent of job
    count, scheduling, and OCaml version — so a task sees the same seed
    however the sweep is parallelised. *)

val ok : result -> bool

val recommended_domains : unit -> int
(** [Domain.recommended_domain_count ()] on OCaml 5, [1] on 4.14. *)

val jobs_for : ?cores:int -> tasks:int -> int -> int
(** [jobs_for ~cores ~tasks jobs] is the worker count a sweep of [tasks]
    tasks runs at when [jobs] are asked for: [jobs] clamped to
    [\[1, min cores tasks\]].  [cores] defaults to
    {!recommended_domains}, which never exceeds the runtime's domain
    limit.  Pure when [cores] is given. *)

val map : jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** [List.map f xs] on [jobs_for ~tasks:(List.length xs) jobs] worker
    domains (the calling domain is one of them), in list order.  [f]
    must not raise: wrap it, as {!run} does. *)

val run_one : base_seed:int -> task -> result
(** One task under sink capture in the calling domain.  The output
    printed before a raise is kept. *)

val run : ?jobs:int -> ?base_seed:int -> task list -> report
(** Execute every task: [Sequential] ones first in the calling domain,
    then the [Parallel] ones through {!map}.  Never raises on task
    failure — inspect [failures]. *)
