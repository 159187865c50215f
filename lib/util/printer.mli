(** Redirectable output for experiment parts and campaign reports.

    The sweep pool runs parts on worker domains, which share one fd
    table, so it cannot capture a part's output by redirecting file
    descriptors.  Instead every print site of a registry part goes
    through this module, and the pool points the current domain's sink
    at a buffer for the duration of a task: this sink is the pool's only
    output capture.

    With no sink installed (the default, and always the case outside a
    pool task, as for [causalb hunt]'s report), output goes straight to
    stdout — so the bytes a part produces are identical whether they
    were captured or not.

    The sink is domain-local on OCaml 5 ([Domain.DLS]) and a plain ref on
    4.14, via the printer_sink copy rule — same observable behaviour
    single-domain. *)

val string : string -> unit
(** [string s] writes [s] to the current domain's sink, or to stdout. *)

val line : string -> unit
(** [string s] then a newline. *)

val newline : unit -> unit

val printf : ('a, unit, string, unit) format4 -> 'a

val capture : (unit -> 'a) -> string * 'a
(** [capture f] runs [f] with this domain's sink pointed at a fresh
    buffer and returns (everything [f] printed through this module,
    result of [f]).  Restores the previous sink on exit, including on
    exceptions.  Raw [print_string]/[Printf.printf] calls inside [f]
    escape the capture — which is exactly how the byte-identity tests
    catch an unmigrated print site in a deterministic part. *)
