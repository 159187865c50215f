module Label = Causalb_graph.Label

type t = {
  mutable last_sync : Label.t option;
  mutable window : Label.t list; (* reversed *)
  mutable syncs : int;
}

let create () = { last_sync = None; window = []; syncs = 0 }

let anchor t ~fallback =
  match t.last_sync with Some l -> [ l ] | None -> fallback

let outstanding t ~fallback =
  match t.window with [] -> anchor t ~fallback | w -> List.rev w

let deps_for t ~kind ~fallback =
  match kind with
  | Op.Commutative -> anchor t ~fallback
  | Op.Non_commutative -> outstanding t ~fallback

let note t ~kind label =
  match kind with
  | Op.Commutative -> t.window <- label :: t.window
  | Op.Non_commutative ->
    t.last_sync <- Some label;
    t.window <- [];
    t.syncs <- t.syncs + 1

let reset t =
  t.last_sync <- None;
  t.window <- []

let last_sync t = t.last_sync

let size t = List.length t.window

let syncs t = t.syncs
