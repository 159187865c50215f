(** The causal-race lint's input: a workload as a dependency graph plus
    the operation classes sitting on its labels.

    A workload names, for every operation it will submit, the label the
    front-end will assign, the object it touches, and the operation's
    {!Causalb_data.Seq_spec} class; the class-level commutativity
    relation and observer set of each object ride along.  {!of_ops} and
    {!of_submissions} derive all of it from a spec and an operation
    list by replaying the §6.1 front-end bookkeeping
    ({!Causalb_data.Window}) {e purely} — same labels, same
    [Occurs_After] edges, same sync points as the real submission path,
    with no engine and no messages.  {!of_sites} admits hand-built or
    [Workflow]-derived graphs. *)

module Label := Causalb_graph.Label
module Dep := Causalb_graph.Dep
module Depgraph := Causalb_graph.Depgraph
module Seq_spec := Causalb_data.Seq_spec

type obj = {
  name : string;
  commutes : string -> string -> bool;
      (** class-level commutativity, from the spec's declared relation *)
  observer : string -> bool;
      (** order-sensitive return value — conflicts with {e every} class,
          including itself (two concurrent observers may answer
          differently at different members) *)
}

type site = {
  label : Label.t;
  obj : string;   (** must name an [obj] of the workload *)
  cls : string;   (** the operation's class in that object's spec *)
}

type t = {
  graph : Depgraph.t;     (** the intended [R(M)] over the sites *)
  sync : Label.Set.t;     (** labels submitted as synchronization points *)
  objects : obj list;
  sites : site list;      (** in submission order *)
  deps : Dep.t array;
      (** the predicate each site is submitted with, by position: site
          [i]'s label carries [deps.(i)] in [graph] *)
}

val obj_of_spec : ?name:string -> ('op, 'state) Seq_spec.t -> obj
(** The object descriptor of a spec: its declared [commutes] and
    [observer].  [name] defaults to the spec's name. *)

val of_ops :
  spec:('op, 'state) Seq_spec.t ->
  ?src:(int -> int) ->
  'op list ->
  t
(** The §6.1 access pattern: operation [i] is submitted by member
    [src i] (default all from member 0); each derived-[Cid] operation
    occurs after the last sync, each [Ncid] operation after the whole
    open window.  Labels are [op<i>] with the per-origin sequence
    numbers the stack's front-end would assign.  Every site names the
    spec's one object, under the spec's name. *)

val of_submissions :
  spec:('op, 'state) Seq_spec.t ->
  (float * int * 'op) list ->
  t
(** {!of_ops} over a timed submission schedule [(time, src, op)] as used
    by the harness object workloads; times only fix the order. *)

val of_sites :
  graph:Depgraph.t ->
  ?sync:Label.Set.t ->
  objects:obj list ->
  site list ->
  t
(** Wrap an existing graph (e.g. [Workflow.graph_of]) and its sites;
    [deps] are the sites' predicates in the graph.
    @raise Invalid_argument if a site's label is missing from the graph
    or its [obj] names no object. *)

val conflicts : t -> site -> site -> bool
(** Whether two sites are in non-commuting classes: same object, and the
    classes do not commute (observer classes commute with nothing).
    Sites on different objects never conflict.  Symmetric. *)
