(* Pool backend for OCaml 4.14, where [Domain] is not in the stdlib.
   [map] runs in the calling domain — same capture discipline, same
   task order, same bytes — so [-j N] works everywhere and merely does
   not speed up here. *)

let recommended () = 1

let map ~jobs:_ f xs = Array.map f xs
