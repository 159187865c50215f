(** Declarative causal activities (paper §4.2).

    The paper lets applications "construct higher level causal activities,
    where a causal activity is described by a set of messages K and an
    ordering relationship R(K)".  This module is the declarative form: a
    workflow names its steps, states which steps each one occurs after,
    and submits the whole DAG at once — the causal broadcast layer then
    enforces exactly R(K) at every member, while the submitting client
    never waits (all sends are immediate; ordering is the delivery
    engine's job).

    Example — the diamond [open → ‖{left, right} → close]:
    {[
      Workflow.submit group ~kind
        [
          step "open"  ~src:0 Read;
          step "left"  ~src:1 (Inc 1) ~after:[ "open" ];
          step "right" ~src:2 (Inc 2) ~after:[ "open" ];
          step "close" ~src:0 Read ~after:[ "left"; "right" ];
        ]
    ]} *)

type 'op step

val step : string -> src:int -> ?after:string list -> 'op -> 'op step
(** A named step broadcast from [src], ordered after the named steps. *)

val submit :
  'op Causalb_core.Group.t ->
  'op step list ->
  (string * Causalb_graph.Label.t) list
(** Broadcast every step with the declared ordering; returns the label
    assigned to each step name.  Steps may be listed in any order.
    @raise Invalid_argument on duplicate step names, references to
    undeclared steps, or cyclic ordering. *)

val of_ops :
  spec:('op, 'state) Seq_spec.t ->
  ?prefix:string ->
  src:(int -> int) ->
  'op list ->
  'op step list
(** The §6.1 access pattern as a workflow: steps named [prefix]{e i} in
    list order, where each operation the spec derives as [Cid] occurs
    after the last sync and each [Ncid] operation occurs after the whole
    open window (the [Ncid_{r−1} → ‖{Cid}_r → Ncid_{r+1}] chain), with
    [src i] choosing the submitting member of step [i].  Composable with
    {!submit} and {!graph_of}. *)

val graph_of : 'op step list -> Causalb_graph.Depgraph.t
(** The R(K) the workflow declares, over fresh anonymous labels — useful
    for analysis (linearization counts, sync points) before running.
    @raise Invalid_argument under the same conditions as {!submit}. *)
