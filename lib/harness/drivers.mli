(** Experiment drivers, and the one place that says how each stack
    composition is run and audited.  The §6.1 register workload has one
    driver, {!run_stack}, run over whichever stack composition an
    experiment compares: the paper's stable-point protocol
    ([Osend_stack]), its ASend total-order tails, and the causal
    baselines.  Beside it sit the standalone Lamport-timestamp order
    ({!run_timestamp}), the PC-broadcast churn driver ({!run_pc}) and
    the spec-derived object driver ({!run_object}).

    Each driver builds a fresh engine/network/group, submits an operation
    sequence derived deterministically from the seed and returns its
    result record.  The drivers are deterministic: equal arguments
    produce equal results. *)

(** How commutative and non-commutative operations interleave: [Random p]
    draws each op commutative with probability [p]; [Fixed_window k]
    emits exactly [k] commutative ops then one sync — the §6.1 cycle with
    f̄ = k. *)
type mix = Random of float | Fixed_window of int

type workload = {
  ops : int;       (** total operations (a closing sync is appended) *)
  spacing : float; (** ms between submissions *)
  mix : mix;
}

val default_latency : Causalb_sim.Latency.t

val op_sequence :
  Causalb_util.Rng.t -> workload -> Causalb_data.Datatypes.Int_register.op list
(** The §6.1 operation mix on the integer register: [ops] operations
    drawn from the mix ([Inc 1] commutative, [Read] the sync point), then
    a closing [Read].  {!run_stack} draws it from the engine RNG fork it
    takes right after composing the stack. *)

(** {1 The composable ordering stack driver} *)

(** Which pipeline composition to run the workload over. *)
type stack_spec =
  | Fifo_only          (** transport → fifo → app *)
  | Bss_stack          (** transport → bss causal → app *)
  | Psync_stack        (** transport → psync causal → app *)
  | Osend_stack        (** transport → osend causal → app *)
  | Osend_merge        (** … → osend → sync-anchored merge → app *)
  | Osend_counted of int  (** … → osend → count-closed merge → app *)
  | Osend_sequencer    (** … → sequencer chain over osend → app *)
  | Pc_stack
      (** fifo transport → pc causal → app: constant-size headers,
          causal order from the links ([Causalb_core.Pcbcast]) *)

val stack_spec_name : stack_spec -> string

val stack_specs : counted:int -> stack_spec list
(** The eight compositions, in report order:
    fifo, bss, psync, osend, osend+merge, osend+counted([counted]),
    osend+sequencer, pc. *)

val parse_specs :
  counted:int -> string list -> (stack_spec list, string) result
(** The CLIs' [--spec] list, in order; [[]] selects {!stack_specs}.  A
    name is a {!stack_spec_name} (["osend+counted"] without the size) or
    a short alias (["merge"], ["counted"], ["sequencer"]), in any case;
    the counted merge is [Osend_counted counted].  The first unknown
    name is an [Error] naming the accepted ones. *)

val transport_fifo_of : stack_spec -> bool
(** The transport each composition runs over: [false] (raw datagram
    links) for every composition but PC-broadcast, [true] for it — its
    causal order {e is} the per-link FIFO order.  Every driver and both
    static passes thread this, so a spec's declared requirement and the
    network it actually gets can never drift apart. *)

(** {2 The audit policy}

    Which of the paper's guarantees each composition answers for, as
    data: {!recheck} runs it, {!run_stack}'s online agreement check and
    stable-point trackers read it, and [causalb-check] renders its
    checker column from it. *)

type checker =
  | Fifo          (** per-sender order, each message once *)
  | Causal        (** delivery after the [R(M)] ancestors (§3–4) *)
  | Same_set      (** every member released the same set *)
  | Windows
      (** the same sets between the intent's sync points, in the same
          sync order (§6.1) *)
  | Strict_order  (** identical release sequences (§5.2) *)
  | Stable        (** stable-point digests agree across members (§6.1) *)

type arming =
  | Always
  | Complete
      (** only when no copy was lost ([lost = 0]): a member that never
          received a message cannot be held to agreement on it *)

(** Whose deliveries the causal pass audits. *)
type membership =
  | Fixed  (** the founding members, throughout the run *)
  | Churned of { founders : int }
      (** members joined or left mid-run: causal order is audited over
          {!founders_view} only *)

val checker_name : checker -> string
(** ["fifo"], ["causal"], ["same-set"], ["windows"], ["strict-order"],
    ["stable"]. *)

val audit_policy : stack_spec -> membership -> (checker * arming) list
(** One row per composition, in report order:

    {v
    composition                        always          when lost = 0
    fifo, bss                          fifo            same-set
    pc                                 fifo            causal, same-set
    psync                              causal          same-set
    osend                              causal, stable  windows
    osend+merge/+counted/+sequencer    causal, stable  strict-order
    any, [Churned]                     fifo            causal (founders)
    v}

    Under churn (the PC group after a join or leave) FIFO holds at every
    member, and causal order at the founders only: a joiner's causal
    past starts at its contact's baseline, so pre-join history never
    arrives.  Departure drops are harmless to survivors and are not
    counted as lost. *)

(** One run's evidence for the offline ordering oracle
    ([Causalb_check]): the execution trace, the dependency graph the
    delivery order was audited against (member 0's extracted [R(M)] for
    OSend/Psync/PC, the front-end's intended graph otherwise), the
    synchronization points, the membership view, and the verdicts. *)
type stack_audit = {
  trace : Causalb_sim.Trace.t;
  graph : Causalb_graph.Depgraph.t;
  sync : Causalb_graph.Label.Set.t;
      (** the sync points of the intent ({!intent_of_ops}) *)
  membership : membership;
  diagnostics : Causalb_check.Diag.t list;
      (** trace-checker violations; empty = every applicable property held *)
  lint : Causalb_check.Spec_lint.issue list;
      (** static issues in the intended dependency specification *)
  static : Causalb_check.Diag.t list;
      (** static-verifier issues found {e before} execution: guarantee
          lattice ([verify:*]) and causal-race lint ([race:causal]) *)
}

type stack_result = {
  delivery : Causalb_util.Stats.t;
      (** submit → application release, per member, in release order *)
  stability : Causalb_util.Stats.t;
      (** submit → enclosing stable point, per member: each closed §6.1
          cycle records its window and its closing sync.  OSend
          compositions only; empty otherwise *)
  messages : int;                   (** unicast copies on the wire *)
  lost : int;
      (** copies the transport dropped before arrival (partition +
          injected loss).  When non-zero, agreement properties are
          vacuous: [checks_ok] and the oracle restrict themselves to
          safety (see {!recheck}) *)
  buffered : int;   (** forced waits in the causal layer, all members *)
  cycles : int;
      (** stable points closed at member 0 (OSend compositions; [0]
          otherwise) *)
  edges : int;
      (** ordering-constraint edges in member 0's extracted [R(M)]; [0]
          for layers that extract none (FIFO, BSS) *)
  layers : Causalb_stackbase.Metrics.t list;
      (** uniform per-layer metrics, bottom-up *)
  checks_ok : bool;
      (** same-set (causal) / identical-order (total); under [~check:true]
          also requires an empty {!stack_audit.diagnostics} and
          {!stack_audit.lint}; always requires clean static passes *)
  sim_time : float;
  audit : stack_audit option;  (** present iff run with [~check:true] *)
}

val claim_of : stack_spec -> Causalb_stackbase.Guarantee.t
(** The consistency level each shipped composition {e claims}: [Fifo] for
    the deliberate under-ordered baselines (FIFO-only, BSS — the dynamic
    oracle holds them to per-sender order and same-set delivery only),
    [Causal] for the engines that extract a true potential-causality
    graph (Psync, OSend, and PC — whose audit graph records each send's
    actual delivery context), and [Causal_total] for the total-order
    tails.  The static verifier checks the claim against the composed
    top-of-stack guarantee, and the race lint applies to compositions
    claiming at least [Causal]. *)

val intent_of_ops :
  replicas:int ->
  Causalb_data.Datatypes.Int_register.op list ->
  Causalb_analysis.Workload.t
(** The workload intent of an op sequence: the §6.1 front-end
    bookkeeping, computed purely — operation [i] from member
    [i mod replicas], labelled [op<i>] with the per-origin sequence
    numbers the stack assigns.  {!run_stack} builds it once, before
    execution, and submits operation [i] from its label's origin, under
    its name, with [deps.(i)]; so the intent is what {!run_stack}
    submits, by construction.  Under [~check] both static lints read it,
    over one reachability index, and its graph is the audit graph of the
    compositions whose causal layer extracts none.  Under
    [Osend_sequencer] the chain allocates the labels later and ignores
    the predicates, so only the intent names the §6.1 pattern there. *)

(** One configuration's static verdict, computed without executing it:
    both passes of the static consistency verifier
    ({!Causalb_analysis.Stack_verify} over the declared layer lattice,
    {!Causalb_analysis.Race_lint} over the §6.1 workload intent). *)
type static_report = {
  static_spec : stack_spec;
  claim : Causalb_stackbase.Guarantee.t;
  verify : Causalb_analysis.Stack_verify.report;
      (** pass 1: bottom-up guarantee composition + claim check *)
  races : Causalb_analysis.Race_lint.race list;
      (** pass 2: non-commuting pairs covered neither by [R(M)]
          reachability (an interposed sync point included) nor by the
          top-of-stack guarantee (empty for claims below [Causal] —
          those are audited dynamically instead) *)
  demand : Causalb_stackbase.Guarantee.t;
      (** minimal top-of-stack guarantee making the workload race-free *)
  static_diags : Causalb_check.Diag.t list;
      (** both passes' issues as structured diagnostics *)
}

val static_ok : static_report -> bool

val static_audit :
  ?seed:int ->
  ?latency:Causalb_sim.Latency.t ->
  replicas:int ->
  stack_spec ->
  workload ->
  static_report
(** The static verdict {!run_stack} would compute for the same arguments,
    without running the simulation.  Builds (but does not run) the same
    engine and stack so the op-sequence RNG fork draws the identical
    stream — the audited intent is exactly the workload a real run
    submits. *)

val founders_view :
  Causalb_sim.Trace.t -> founders:int -> Causalb_sim.Trace.t
(** The trace restricted to nodes [< founders] — the view the causal
    pass audits under [Churned].  Joiners legitimately miss pre-join
    history (their causal past starts at the contact's adopt-first
    baseline), so the "ancestor delivered at this node first" demand
    only holds for founding members; a founder that later departs keeps
    a causally closed prefix and stays in the view. *)

val recheck :
  stack_spec -> lost:int -> stack_audit -> Causalb_check.Diag.t list
(** The one oracle entry: run the {!audit_policy} row of the composition
    and the audit's [membership] over its trace, the [Complete] checkers
    only when [lost = 0].  They read one
    {!Causalb_check.Trace_check.index} of the trace (the causal pass
    under [Churned] one of {!founders_view}).  {!run_stack} and
    {!run_pc} compute their diagnostics with exactly this function; the
    campaign driver re-runs it over mutated traces
    ([Causalb_check.Mutate]) in its planted-bug self-tests. *)

val run_stack :
  ?seed:int ->
  ?latency:Causalb_sim.Latency.t ->
  ?check:bool ->
  ?nemesis:Causalb_net.Nemesis.t ->
  replicas:int ->
  stack_spec ->
  workload ->
  stack_result
(** Run the §6.1 register workload over any stack composition — the one
    driver behind the paper's tables (T1–T3 compare [Osend_stack],
    [Osend_merge] and [Osend_sequencer]) and every oracle-audited run.
    Deterministic in all arguments.

    Every operation is submitted from the intent ({!intent_of_ops}),
    built once before execution.  [~check:true] (default false) turns
    on the ordering oracle: the run is traced, the composition's
    {!audit_policy} row is run over the trace ({!recheck}), the intended
    dependency spec is linted, and the evidence is returned in [audit].

    The static verifier runs {e before} execution in every mode: the
    guarantee-lattice pass always, the causal-race lint when [~check] is
    on (it reads the full workload intent).  Static issues are printed
    to stderr and fail [checks_ok]; the run goes ahead.

    [?nemesis] arms a timed fault schedule (partitions, heals,
    loss/dup/jitter phases — {!Causalb_net.Nemesis}) on the stack before
    any operation is submitted; an action and a submission at the same
    virtual instant fire nemesis-first.  The run stays deterministic in
    (seed, workload, schedule). *)

val run_timestamp :
  ?seed:int -> ?latency:Causalb_sim.Latency.t -> replicas:int -> workload ->
  stack_result
(** Decentralised Lamport-timestamp total order (FIFO links, n² acks) on
    the same submission schedule.  Not a stack layer, so the result has
    no [layers], [stability], [cycles], [edges] or [audit]; [checks_ok]
    is identical tag orders at every member. *)

(** {1 PC-broadcast under churn}

    The dynamic-membership path the fixed-membership stack cannot
    exercise: a [Causalb_core.Pcbcast.Group] over FIFO links, a nemesis
    schedule that may join/leave members mid-run ([Nemesis.Join]/
    [Nemesis.Leave]), operations submitted round-robin over whoever is
    alive at fire time, and the offline oracle ({!recheck} under
    [Churned]) over the extracted [R(M)]. *)

type pc_result = {
  pc_delivered : int;  (** causal deliveries summed over members ever *)
  pc_messages : int;
  pc_lost : int;
      (** partition + injected-loss drops — the [lost] the audit is
          run with: when non-zero the causal checker is disarmed (PC
          cannot detect a lost dependency; that is the price of
          constant-size headers) *)
  pc_departure_drops : int;
      (** copies to/from departed endpoints — harmless to survivors,
          so these do {e not} disarm the causal checker *)
  pc_joined : int list;  (** ids the nemesis added, in join order *)
  pc_left : int list;    (** ids the nemesis removed, in leave order *)
  pc_members : int;      (** members ever: founders + joiners *)
  pc_audit : stack_audit;
      (** the trace, the group's audit graph, [Churned] over the
          [replicas] founders, and the diagnostics: FIFO per origin over
          everyone, causal order over the founders *)
  pc_checks_ok : bool;  (** no diagnostics *)
  pc_sim_time : float;
}

val run_pc :
  ?seed:int ->
  ?latency:Causalb_sim.Latency.t ->
  ?nemesis:Causalb_net.Nemesis.t ->
  replicas:int ->
  workload ->
  pc_result
(** Deterministic in (seed, workload, schedule).  The nemesis callbacks
    keep shrunk schedules well-formed: a join through a departed contact
    re-routes to the oldest survivor; a leave of member 0, of an
    already-departed member, or one that would drop the group below two
    alive members is ignored. *)

(** {1 Spec-derived objects over the stable-point service}

    One replicated object — any {!Causalb_data.Seq_spec.t} — run over
    {!Causalb_data.Service} with tracing on, then audited twice: online
    by [Service.check] (which includes canonical stable-digest
    agreement) and offline by the ordering oracle over the trace (causal
    safety against member 0's extracted graph, stable-point digest
    agreement across members from the [Mark] records). *)

type object_result = {
  checks : (string * bool) list;  (** [Service.check] verdicts *)
  diagnostics : Causalb_check.Diag.t list;
      (** offline oracle violations; empty = clean *)
  trace : Causalb_sim.Trace.t;
  cycles : int;        (** closed §6.1 cycles at member 0 *)
  stable_marks : int;  (** stable-point [Mark] records, all members *)
  messages : int;
  sim_time : float;
}

val object_ok : object_result -> bool
(** All online checks passed and the oracle found nothing. *)

val run_object :
  ?seed:int ->
  ?latency:Causalb_sim.Latency.t ->
  replicas:int ->
  spec:('op, 'state) Causalb_data.Seq_spec.t ->
  (float * int * 'op) list ->
  object_result
(** [run_object ~replicas ~spec submissions] schedules each
    [(time, src, op)] and runs to quiescence.  Deterministic in all
    arguments. *)

(** Deterministic object workloads — pure functions of their arguments —
    shared by the bench experiments (O1) and [causalb-check --objects]
    so both audit the very same runs. *)

val counter_pipeline :
  ?seed:int -> replicas:int -> rounds:int -> window:int -> unit ->
  (float * int * Causalb_data.Objects.Counter.op) list
(** Rounds of [window] concurrent additions closed by a [Value] read. *)

val cart_workload :
  ?seed:int -> replicas:int -> rounds:int -> window:int -> unit ->
  (float * int * Causalb_data.Objects.Or_set.op) list
(** The shopping cart on the observed-remove set: windows of concurrent
    adds closed by an observed-remove or a checkout read. *)

val editing_workload :
  ?seed:int -> replicas:int -> rounds:int -> window:int -> unit ->
  (float * int * Causalb_data.Objects.Rga.op) list
(** Collaborative editing on the RGA sequence: each author types after
    its own cursor (inserts and occasional deletes, all [Cid]), with a
    shared [Read] closing each round. *)

(** {1 Reporting helpers} *)

val p50 : Causalb_util.Stats.t -> float

val p95 : Causalb_util.Stats.t -> float

val fmt : float -> string
(** Two-decimal rendering, ["-"] for NaN. *)
