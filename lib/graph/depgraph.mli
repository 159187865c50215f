(** Message dependency graphs (paper §3.1–3.2, Fig. 3).

    Nodes are message labels; a directed edge [m → m'] records the causal
    relation "m' occurs after m".  The paper's key observation is that
    this graph is {e stable information}: every group member extracts the
    identical graph from the causally broadcast [Occurs_After] predicates,
    so agreement can be anchored on graph structure (synchronization
    points) rather than on extra protocol messages.

    The structure is imperative — the engines grow it monotonically as
    messages arrive — while queries are pure.  All query functions
    @raise Not_found if a label has not been added. *)

type t

val create : unit -> t

val add : t -> Label.t -> dep:Dep.t -> unit
(** Register a message with its ordering predicate.  [After_any] records
    edges from each alternative (the graph over-approximates; the engine
    handles OR at delivery time).  @raise Invalid_argument if the label is
    already present or if the predicate would introduce a cycle. *)

val mem : t -> Label.t -> bool

val size : t -> int

val labels : t -> Label.t list
(** All labels in insertion order. *)

val dep_of : t -> Label.t -> Dep.t

val parents : t -> Label.t -> Label.t list
(** Direct ancestors (the labels named by the predicate). *)

val children : t -> Label.t -> Label.t list
(** Messages whose predicate names the given label. *)

val ancestors : t -> Label.t -> Label.Set.t
(** Transitive, not including the label itself. *)

val descendants : t -> Label.t -> Label.Set.t

val missing_parents : t -> Label.t -> Label.t list
(** Labels named by the predicate of [l] that are absent from the graph —
    dangling dependencies a static lint flags (a message naming one can
    never be delivered until the missing send appears). *)

val find_cycle : t -> Label.t list option
(** One dependency cycle, as a label path with the first label repeated
    at the end, or [None] when the graph is acyclic.  Cycles can arise
    because {!add} accepts forward references: a predicate may name a
    label that is only added later with a predicate pointing back.  A
    cyclic wait is unsatisfiable — every message on it deadlocks. *)

val shortest_path : t -> Label.t -> Label.t -> Label.t list option
(** Shortest directed dependency chain [a → … → b] including both
    endpoints — the minimal causal chain the checkers attach to a
    violation diagnostic.  [None] when [b] is not a descendant of [a]. *)

val happens_before : t -> Label.t -> Label.t -> bool
(** [happens_before g a b] iff there is a directed path [a → … → b]. *)

val concurrent : t -> Label.t -> Label.t -> bool
(** Neither happens before the other (and they differ). *)

type reach
(** A reachability index over one snapshot of a graph, for analyses that
    ask many ancestry queries (the static lints).  Labels are numbered in
    insertion order and each label's {!ancestors} are held as a bit set
    over [int] words.  A label whose parents were all added before it
    takes the union of their sets, O(e·n/{!Sys.int_size}) over the
    graph; any other label gets its own depth-first search, O(n+e).  The
    index takes n²/{!Sys.int_size} words for [n] labels and [e] present
    edges, and does not follow later {!add}s. *)

val reach : t -> reach

val indexes : reach -> t -> bool
(** [indexes r g]: [r] was built from [g] itself (not a copy) and [g]
    has gained no label since, so [r] answers for [g].  A function that
    takes an index beside its graph checks this first. *)

val precedes : reach -> Label.t -> Label.t -> bool
(** [precedes r a b] is [Label.Set.mem a (ancestors g b)] for the graph
    [g] the index was built from: [a] reaches [b] through present edges,
    and [b] precedes itself only on a cycle.  An absent [a] precedes
    nothing.  @raise Not_found if [b] is absent, as {!ancestors} does. *)

val rank : reach -> Label.t -> int option
(** The label's position in insertion order, the number the index's bit
    sets use; [None] when the label was absent from the graph. *)

val precedes_rank : reach -> int -> int -> bool
(** [precedes_rank r i j] is [precedes r a b] for the labels [a] and [b]
    of ranks [i] and [j] ({!rank}): the pair sweep of a lint resolves
    every label once and then asks by number.  Both ranks must come
    from {!rank} on the same index. *)

val roots : t -> Label.t list
(** Labels with no parents. *)

val leaves : t -> Label.t list

val topological : t -> Label.t list
(** One linear extension, deterministic (ties broken by {!Label.compare}). *)

val linearizations : ?limit:int -> t -> Label.t list list
(** All event sequences allowed by the partial order — the [EvSeq_i] of
    §4.1 — up to [limit] (default 10_000).  The count is bounded by
    [(r+1)!] as in the paper. *)

val count_linearizations : ?cap:int -> t -> int
(** Number of allowed sequences, counted without materialising them, and
    capped at [cap] (default 1_000_000) to bound the search. *)

val sync_points : t -> Label.t list
(** Labels ordered (before or after) w.r.t. every other label — the
    synchronization points of §3.2: the graph between two consecutive
    sync points is a set of concurrent messages. *)

val restrict : t -> Label.Set.t -> t
(** Sub-graph induced by a label set (edges to labels outside the set are
    dropped) — used to reason about one causal activity [R(K)]. *)

val verify_sequence : t -> Label.t list -> bool
(** Whether a delivery sequence is a linear extension of the graph
    restricted to the labels it contains: no message appears before one
    of its (included) ancestors. *)

val edges : t -> (Label.t * Label.t) list
(** All [(ancestor, descendant)] pairs. *)

val pp : Format.formatter -> t -> unit
(** Adjacency rendering, one node per line — Fig. 3 style. *)

val to_dot : t -> string
(** Graphviz rendering for documentation. *)
