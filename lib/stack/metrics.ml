module Stats = Causalb_util.Stats

type t = {
  name : string;
  mutable received : int;
  mutable delivered : int;
  mutable forced_waits : int;
  mutable buffered : int;
  mutable wire_bytes : int;
  mutable control_bytes : int;
  mutable payload_bytes : int;
  latency : Stats.t;
}

let create ?(name = "layer") () =
  {
    name;
    received = 0;
    delivered = 0;
    forced_waits = 0;
    buffered = 0;
    wire_bytes = 0;
    control_bytes = 0;
    payload_bytes = 0;
    latency = Stats.create ();
  }

let on_receive t = t.received <- t.received + 1

let on_deliver t = t.delivered <- t.delivered + 1

let on_buffer t =
  t.forced_waits <- t.forced_waits + 1;
  t.buffered <- t.buffered + 1

let on_unbuffer t = t.buffered <- t.buffered - 1

let on_wire t n = t.wire_bytes <- t.wire_bytes + n

(* The split charge keeps [wire_bytes] as the sum, so a consumer that
   only knows the v3 field reconciles: wire = control + payload + any
   unsplit [on_wire] charges. *)
let on_wire_split t ~control ~payload =
  t.control_bytes <- t.control_bytes + control;
  t.payload_bytes <- t.payload_bytes + payload;
  t.wire_bytes <- t.wire_bytes + control + payload

let per_delivery t bytes =
  if t.delivered = 0 then Float.nan
  else float_of_int bytes /. float_of_int t.delivered

let bytes_per_delivery t = per_delivery t t.wire_bytes

let control_bytes_per_delivery t = per_delivery t t.control_bytes

let snapshot ~name ?(received = 0) ?(delivered = 0) ?(buffered = 0) () =
  {
    name;
    received;
    delivered;
    forced_waits = 0;
    buffered;
    wire_bytes = 0;
    control_bytes = 0;
    payload_bytes = 0;
    latency = Stats.create ();
  }

let combine ?latency ~name parts =
  let sum f = List.fold_left (fun acc p -> acc + f p) 0 parts in
  let latency =
    match latency with
    | Some s -> s
    | None ->
      List.fold_left
        (fun acc p -> Stats.merge acc p.latency)
        (Stats.create ()) parts
  in
  {
    name;
    received = sum (fun p -> p.received);
    delivered = sum (fun p -> p.delivered);
    forced_waits = sum (fun p -> p.forced_waits);
    buffered = sum (fun p -> p.buffered);
    wire_bytes = sum (fun p -> p.wire_bytes);
    control_bytes = sum (fun p -> p.control_bytes);
    payload_bytes = sum (fun p -> p.payload_bytes);
    latency;
  }

let columns = [ "layer"; "recv"; "dlvr"; "waits"; "held"; "p50"; "p95" ]

let fmt_latency v = if Float.is_nan v then "-" else Printf.sprintf "%.2f" v

let row t =
  [
    t.name;
    string_of_int t.received;
    string_of_int t.delivered;
    string_of_int t.forced_waits;
    string_of_int t.buffered;
    fmt_latency (Stats.percentile t.latency 50.0);
    fmt_latency (Stats.percentile t.latency 95.0);
  ]

let pp ppf t =
  Format.fprintf ppf
    "@[<h>%s: recv=%d dlvr=%d waits=%d held=%d p50=%s p95=%s@]" t.name
    t.received t.delivered t.forced_waits t.buffered
    (fmt_latency (Stats.percentile t.latency 50.0))
    (fmt_latency (Stats.percentile t.latency 95.0))
