(* What a layer delivered at each node, collected from its deliver
   callback: the engines keep no delivery log of their own.
   [record ~node x] appends [x] to the node's log and [read node]
   returns it in delivery order; a node that joins mid-run gets its own
   entry. *)
let create () =
  let logs = Hashtbl.create 8 in
  let read_rev node = Option.value ~default:[] (Hashtbl.find_opt logs node) in
  let record ~node x = Hashtbl.replace logs node (x :: read_rev node) in
  (record, fun node -> List.rev (read_rev node))
