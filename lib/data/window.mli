(** The §6.1 window bookkeeping, shared by every front-end.

    One window tracks the labels of the current [{Cid}] set and the last
    [Ncid] sync, and answers the only question the protocol asks: which
    labels must a new operation occur after?

    {ul
    {- a {e commutative} operation occurs after the last sync
       ([Ncid_{r−1}]), or after [fallback] when no sync has happened in
       this window's scope (the per-item front-end anchors fresh items on
       the last {e global} sync this way);}
    {- a {e non-commutative} operation occurs after the whole open window
       ([∧{Cid}_r]), falling back to the last sync / [fallback] when the
       window is empty; noting it resets the window and makes it the new
       [Ncid_r].}}

    {!Frontend}, {!Item_frontend}, {!Dservice} and the harness's stack
    driver all run on this one implementation; it replaces four copies of
    the same Commutative/Non_commutative branching. *)

type t

val create : unit -> t

val deps_for : t -> kind:Op.kind -> fallback:Causalb_graph.Label.t list ->
  Causalb_graph.Label.t list
(** The labels the §6.1 protocol orders an operation of [kind] after.
    The empty result means "no constraint" ([Dep.null] once wrapped by
    [Dep.after_all]). *)

val outstanding : t -> fallback:Causalb_graph.Label.t list ->
  Causalb_graph.Label.t list
(** Everything in flight in this window's scope: the open window if any,
    else the last sync, else [fallback] — what a {e global} sync must
    occur after (per-item decomposition, §5.1). *)

val note : t -> kind:Op.kind -> Causalb_graph.Label.t -> unit
(** Record a submitted operation's label: a commutative label joins the
    window; a non-commutative one becomes the new last sync and resets
    the window. *)

val reset : t -> unit
(** Forget everything (e.g. at a view change, where labels of the old
    view are dead and the install is itself a stable point). *)

val last_sync : t -> Causalb_graph.Label.t option

val size : t -> int
(** Number of labels in the currently open window. *)

val syncs : t -> int
(** Non-commutative labels noted since creation (cycles opened);
    {!reset} does not clear the count. *)
