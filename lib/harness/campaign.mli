(** Randomized fault-campaign driver: the [causalb hunt] engine.

    A campaign derives [seeds] cases deterministically from a base seed —
    each case a (simulation seed, stack composition, workload shape,
    nemesis schedule) tuple cycling through every shipped composition —
    runs each through {!Drivers.run_stack} with the ordering oracle on,
    and shrinks any failure to a minimal deterministic repro: greedy
    nemesis-event removal first, then binary search for the smallest
    failing op count, every candidate fully re-run.

    Cases are pure values and runs are pure functions of them, so a
    failing case is its own repro; equal arguments replay equal
    campaigns, whatever the job count. *)

type case = {
  id : int;
  name : string;  (** ["hunt-<id>"] — the seed is derived from it *)
  seed : int;     (** simulation seed, {!Pool.seed_for}-derived *)
  spec : Drivers.stack_spec;
  replicas : int;
  workload : Drivers.workload;
  nemesis : Causalb_net.Nemesis.t;
}

type verdict = {
  case : case;
  ok : bool;
      (** the run's [checks_ok] and an empty diagnostic list — under a
          lossy nemesis the oracle restricts itself to the safety
          properties ({!Drivers.recheck}) *)
  lost : int;      (** copies the nemesis removed from the wire *)
  messages : int;
  checks : string list;
      (** checkers that produced diagnostics, deduped — empty when clean *)
  violation : string option;  (** first diagnostic, rendered *)
}

val generate :
  ?base_seed:int ->
  ?buggify:bool ->
  ?min_phases:int ->
  ?churn:bool ->
  seeds:int ->
  unit ->
  case list
(** The campaign's case list — deterministic in all arguments.  Case [i]
    uses composition [i mod 8] (all eight shipped stacks), a workload of
    20–60 ops in a random mix, and 0–2 fault phases (timed
    partition/heal pairs over the full membership, or loss/dup/jitter
    phases swapped in and back out).  [~buggify] raises fault severity
    and allows a third phase and three-way partitions; [~min_phases]
    forces at least that many phases (the self-test uses [1] so
    shrinking always has a schedule to reduce).  [~churn] makes every
    case a membership case: composition pinned to [Pc_stack] (the one
    stack with dynamic membership) and 1–3 timed join/leave events
    appended after the fault phases — joins name a founding contact,
    leaves a founder other than node 0, so any subset of the schedule
    stays well-formed under {!Drivers.run_pc}'s guards. *)

val run_case : ?plant:bool -> case -> verdict
(** Execute one case.  A schedule with membership events runs
    {!Drivers.run_pc} (audited under its [Churned] view: FIFO over
    everyone, causal over the founders' view, disarmed by
    partition/loss); any other case runs {!Drivers.run_stack} with
    [~check:true].  [~plant:true] additionally splices one seeded
    ordering violation into the run's trace ([Causalb_check.Mutate] — a
    FIFO inversion for the FIFO/BSS compositions, a causal inversion for
    the graph engines and the churn path, where it lands inside the
    founders' view) and re-audits through {!Drivers.recheck}: the
    verdict must come back [ok = false] if the oracle plumbing works.  A
    planted case whose trace has no mutation site passes. *)

val shrink : ?plant:bool -> case -> case * int
(** Minimize a failing case: drop nemesis events one at a time (keeping
    each removal only if the case still fails), then binary-search the
    smallest failing op count.  Returns the minimal case — verified
    failing — and the number of candidate re-runs spent.  [~plant] must
    match the flag the case failed under. *)

type repro = {
  original : verdict;
  minimal : case;
  attempts : int;  (** candidate re-runs the shrinker spent *)
}

type report = {
  verdicts : verdict list;  (** one per case, in generation order *)
  repros : repro list;      (** one per failing case *)
  jobs : int;
  wall_ms : float;
}

val failures : report -> verdict list

val run :
  ?jobs:int ->
  ?base_seed:int ->
  ?buggify:bool ->
  ?churn:bool ->
  seeds:int ->
  unit ->
  report
(** The full campaign: generate, sweep, shrink.  [~jobs] spreads cases
    over worker domains through {!Pool.map}, which returns verdicts in
    case order, so verdicts are identical for every [-j]; [report.jobs]
    is the count used ({!Pool.jobs_for}).  A case that raises becomes a
    failed verdict with [checks = ["task"]].  Failures are shrunk
    sequentially in the calling domain afterwards. *)

val self_test :
  ?base_seed:int -> ?log:(string -> unit) -> unit -> bool
(** Plant one known violation per shipped composition ([run_case
    ~plant:true] over an 8-case campaign with [min_phases = 1]), assert
    at least one is detected, shrink the first find, and assert the
    minimal repro still fails deterministically (two replays, equal
    checker sets) and shrank on {e both} axes — fewer nemesis events and
    fewer ops.  Then plant over a small churn campaign and assert the
    founders-scoped causal pass rejects at least one inversion there
    too.  Last, repeat one [Deliver] record in each of the 8 cases'
    traces ([Causalb_check.Mutate.duplicate_delivery]) and assert every
    case fails with a ["duplicate"] diagnostic.  [true] iff all of that
    holds. *)

val describe : case -> string
(** One-line repro description: seed, composition, replicas, workload
    shape, rendered nemesis schedule — everything needed to rebuild the
    case by hand. *)

val verdict_json : verdict -> Causalb_util.Json.t
(** The verdict as a JSON object — the [--json] line schema of
    [causalb hunt] (documented in EXPERIMENTS.md). *)

val print_report : ?json:bool -> ?log:(string -> unit) -> report -> unit
(** Human summary plus one FAIL block per repro, or ([~json]) one JSON
    verdict line per case and a closing summary object.  Prints through
    [~log] ([Causalb_util.Printer.line] by default, so output is
    capturable by the pool's sink). *)
