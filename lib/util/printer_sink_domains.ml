(* OCaml 5 sink: one slot per domain (Domain.DLS), so worker domains of
   the sweep pool each capture their own task output without touching
   anyone else's.  Selected into printer_sink.ml by a dune rule when
   ocaml_version >= 5.0; the 4.14 build copies printer_sink_plain.ml
   instead. *)

let key : Buffer.t option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

let get () = Domain.DLS.get key

let set v = Domain.DLS.set key v
