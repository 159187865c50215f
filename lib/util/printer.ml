(* Redirectable output (see printer.mli).  Printer_sink is the
   version-selected slot: Domain.DLS on 5.x, a ref on 4.14. *)

let string s =
  match Printer_sink.get () with
  | None -> print_string s
  | Some b -> Buffer.add_string b s

let line s =
  string s;
  string "\n"

let newline () = string "\n"

let printf fmt = Printf.ksprintf string fmt

let capture f =
  let saved = Printer_sink.get () in
  let buf = Buffer.create 1024 in
  Printer_sink.set (Some buf);
  let restore () = Printer_sink.set saved in
  match f () with
  | v ->
    restore ();
    (Buffer.contents buf, v)
  | exception e ->
    restore ();
    raise e
