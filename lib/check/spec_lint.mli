(** Static lint of [Occurs_After] dependency specifications.

    Analyses a {!Causalb_graph.Depgraph.t} {e before} (or independently
    of) execution, flagging specification shapes that make a run wrong or
    wasteful:

    - {b dangling} dependency labels — a predicate names a message no
      send defines;
    - {b cycles} — mutually dependent waits that deadlock delivery (the
      graph accepts forward references, so cycles are expressible);
    - {b transitively redundant edges} — an [After_all] conjunct already
      implied by another conjunct's ancestry (wasted constraint);
    - {b dead alternatives} — an [After_any] alternative that
      happens-after another alternative, so it can never be the one that
      fires;
    - {b unsatisfiable sends} — messages whose wait can never complete
      (all ancestors undefined), which deadlock themselves and every
      descendant. *)

module Label := Causalb_graph.Label

type issue =
  | Dangling of { label : Label.t; missing : Label.t }
  | Cycle of Label.t list
      (** label path with the first label repeated at the end *)
  | Redundant_edge of { label : Label.t; ancestor : Label.t; via : Label.t }
      (** [ancestor → label] already implied through conjunct [via] *)
  | Dead_alternative of {
      label : Label.t;
      alt : Label.t;
      implied_by : Label.t;
    }
  | Unsatisfiable of { label : Label.t; missing : Label.t list }
  | Duplicate_label of { label : Label.t; first : int; second : int }
      (** sends [first] and [second] (positions in the send list) both
          define the same label — waits on it are ambiguous *)

val lint :
  ?reach:Causalb_graph.Depgraph.reach -> Causalb_graph.Depgraph.t -> issue list
(** All issues, in graph insertion order (cycle first when present).
    An empty list means the specification is clean.  [Duplicate_label]
    never appears here: a {!Causalb_graph.Depgraph.t} cannot hold two
    definitions of one label — use {!lint_sends} on the raw send list.
    [reach] is [Depgraph.reach] of this graph (built here when absent),
    so a caller that also runs the race lint over the graph shares one
    index.  @raise Invalid_argument if [reach] does not index this graph
    ({!Causalb_graph.Depgraph.indexes}). *)

val lint_sends : (Label.t * Causalb_graph.Dep.t) list -> issue list
(** Lint a specification still in send-list form, {e before} graph
    construction: reports a [Duplicate_label] for every send re-defining
    an earlier label (duplicates are dropped), then all {!lint} issues of
    the graph built from the surviving sends. *)

val issue_name : issue -> string
(** Stable machine-readable name, e.g. ["lint:cycle"]. *)

val pp_issue : Format.formatter -> issue -> unit

val issue_to_string : issue -> string

val to_diag : issue -> Diag.t

val to_diags : issue list -> Diag.t list
