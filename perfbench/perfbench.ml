(* perfbench — the repository's end-to-end and per-layer benchmark.

     perfbench.exe --workload NAME --seed N --seconds S --trace 0|1

   A workload is one fixed unit of work (a "pass") generated from the
   seed.  Every pass splits into a set-up (build every group, stack and
   input the pass uses), a timed phase (run it), and an untimed check of
   the outputs.  The first pass grows the heap; its latency samples and
   top heap are reported, its time is not.  The following passes run in
   children forked after it and repeat identical work for as long as
   another pass still ends within [--seconds] of the start (at least
   five times).  They give the exact allocation count and two floors:
   the fastest set-up, and the timed phase's "slice floor" — the timed
   phase is cut at the same points of its work in every pass, and the
   fastest time of each slice over the passes is summed.  A neighbour
   that slows the host for a while costs a floor nothing as long as the
   run saw each piece once at full speed.  [--trace 1] alternates
   untraced passes with passes that time each call the benchmark makes
   into a layer's public functions, and reports per-layer figures
   instead.

   The last line of stdout is one JSON object: correct, attempted,
   failed and metrics.  [correct] is false when a pass did not reproduce
   the first pass exactly, when a traced pass did not reproduce the
   untraced one, when an equivalence check against [Drivers] failed,
   or when the layer self times do not add up to the traced phase.  Operations whose outputs are wrong (a missing,
   duplicated or out-of-order delivery; a failing hunt verdict) are
   counted in [failed]. *)

module Engine = Causalb_sim.Engine
module Trace = Causalb_sim.Trace
module Net = Causalb_net.Net
module Codec = Causalb_core.Codec
module Fgroup = Causalb_core.Fgroup
module Pcbcast = Causalb_core.Pcbcast
module Bss = Causalb_core.Bss
module Message = Causalb_core.Message
module Sgroup = Causalb_stackbase.Sgroup
module Metrics = Causalb_stackbase.Metrics
module Stack = Causalb_stack.Stack
module Drivers = Causalb_harness.Drivers
module Campaign = Causalb_harness.Campaign
module Window = Causalb_data.Window
module Op = Causalb_data.Op
module Reg = Causalb_data.Datatypes.Int_register
module Dep = Causalb_graph.Dep
module Label = Causalb_graph.Label
module Depgraph = Causalb_graph.Depgraph
module Wire = Causalb_util.Wire
module Stats = Causalb_util.Stats

(* --- clocks ---------------------------------------------------------- *)

(* CLOCK_MONOTONIC in ns, unboxed and allocation-free (the stub ships with
   bechamel), so reading it inside a traced pass adds no GC work. *)
external clock_ns : unit -> (int64[@unboxed])
  = "clock_linux_get_time_bytecode" "clock_linux_get_time_native"
[@@noalloc]

let now_ns () = Int64.to_int (clock_ns ())

let secs ns = float_of_int ns *. 1e-9

(* Words the program allocated: minor-heap words plus words allocated
   directly in the major heap (minor + major - promoted). *)
let alloc_words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

let word_bytes = float_of_int (Sys.word_size / 8)

let top_heap_mb () =
  float_of_int (Gc.quick_stat ()).Gc.top_heap_words *. word_bytes /. 1048576.

(* --- spans ----------------------------------------------------------- *)

(* Spans around the benchmark's calls into layers.  Self time (a span's
   duration minus its children's) is aggregated per name as spans close;
   the first [log_cap] spans are also kept whole — name, start, end,
   parent, and the broadcast index or case id they served — and written
   to a file at the end.  [rest] is the traced phase's time outside every
   top-level span, measured from the same clock reads. *)
module Span = struct
  let names =
    [|
      "engine.run"; "fgroup.receive"; "codec.view"; "codec.encode";
      "pcbcast.receive"; "pcbcast.next_envelope"; "pcbcast.publish";
      "bss.receive"; "bss.next_envelope"; "net.send"; "net.bcast";
      "bench.bcast"; "bench.deliver"; "stack.submit"; "window.deps";
      "analysis.static_audit"; "campaign.sim"; "campaign.audited";
      "check.recheck";
    |]

  let engine_run = 0
  let fgroup_receive = 1
  let codec_view = 2
  let codec_encode = 3
  let pcbcast_receive = 4
  let pcbcast_next = 5
  let pcbcast_publish = 6
  let bss_receive = 7
  let bss_next = 8
  let net_send = 9
  let net_bcast = 10
  let bench_bcast = 11
  let bench_deliver = 12
  let stack_submit = 13
  let window_deps = 14
  let static_audit = 15
  let campaign_sim = 16
  let campaign_audited = 17
  let check_recheck = 18

  let count = Array.length names
  let on = ref false
  let self = Array.make count 0
  let calls = Array.make count 0
  let max_depth = 64
  let st_name = Array.make max_depth 0
  let st_start = Array.make max_depth 0
  let st_child = Array.make max_depth 0
  let st_id = Array.make max_depth 0
  let depth = ref 0
  let next_id = ref 0
  let label = ref (-1)
  let phase_start = ref 0
  let last_top = ref 0
  let rest = ref 0
  let log_cap = 1 lsl 16
  let log_name = Array.make log_cap 0
  let log_parent = Array.make log_cap 0
  let log_start = Array.make log_cap 0
  let log_stop = Array.make log_cap 0
  let log_label = Array.make log_cap 0

  let reset () =
    Array.fill self 0 count 0;
    Array.fill calls 0 count 0;
    depth := 0;
    next_id := 0;
    label := -1;
    rest := 0

  let enter name =
    if !on then begin
      let d = !depth in
      let t = now_ns () in
      if d = 0 then rest := !rest + (t - !last_top);
      st_name.(d) <- name;
      st_start.(d) <- t;
      st_child.(d) <- 0;
      st_id.(d) <- !next_id;
      incr next_id;
      depth := d + 1
    end

  let leave () =
    if !on then begin
      let t = now_ns () in
      let d = !depth - 1 in
      depth := d;
      let dur = t - st_start.(d) in
      let name = st_name.(d) in
      self.(name) <- self.(name) + dur - st_child.(d);
      calls.(name) <- calls.(name) + 1;
      if d > 0 then st_child.(d - 1) <- st_child.(d - 1) + dur
      else last_top := t;
      let id = st_id.(d) in
      if id < log_cap then begin
        log_name.(id) <- name;
        log_parent.(id) <- (if d > 0 then st_id.(d - 1) else -1);
        log_start.(id) <- st_start.(d) - !phase_start;
        log_stop.(id) <- t - !phase_start;
        log_label.(id) <- !label
      end
    end

  (* Run [f] as the traced phase; returns its wall time in ns. *)
  let phase f =
    reset ();
    on := true;
    let t0 = now_ns () in
    phase_start := t0;
    last_top := t0;
    f ();
    let t1 = now_ns () in
    rest := !rest + (t1 - !last_top);
    on := false;
    t1 - t0

  let self_ns name = self.(name)
  let calls_of name = calls.(name)

  let self_sum () = Array.fold_left ( + ) 0 self

  let write_log path =
    let oc = open_out path in
    output_string oc "id\tparent\tname\tstart_ns\tend_ns\tlabel\n";
    for id = 0 to min !next_id log_cap - 1 do
      Printf.fprintf oc "%d\t%d\t%s\t%d\t%d\t%d\n" id log_parent.(id)
        names.(log_name.(id)) log_start.(id) log_stop.(id) log_label.(id)
    done;
    close_out oc
end

(* --- helpers ----------------------------------------------------------- *)

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then nan
  else
    let rank = p /. 100. *. float_of_int (n - 1) in
    let lo = int_of_float rank in
    let hi = min (n - 1) (lo + 1) in
    let frac = rank -. float_of_int lo in
    sorted.(lo) +. (frac *. (sorted.(hi) -. sorted.(lo)))

let sorted_copy a =
  let s = Array.copy a in
  Array.sort Float.compare s;
  s

let median xs =
  let s = sorted_copy (Array.of_list xs) in
  percentile s 50.

(* FNV-1a over ints: a digest of a pass's checked outputs, so later
   passes prove they did exactly the first pass's work. *)
let mix h x = (h lxor x) * 0x100000001b3 land max_int

let digest_floats h a =
  Array.fold_left (fun h x -> mix h (Int64.to_int (Int64.bits_of_float x))) h a

let digest_ints h a = Array.fold_left mix h a

(* --- what a pass reports ------------------------------------------------ *)

type outcome = {
  attempted : int;   (** deliveries (or cases) the pass must produce *)
  failed : int;      (** of which missing, duplicated, out of order, or failing *)
  deliveries : int;  (** application deliveries summed over members *)
  copies : int;      (** [Net.messages_sent] *)
  latency : float array;
      (** virtual ms from submission to application release, one per
          (message, member) pair *)
  digest : int;      (** of every checked output, for replay checks *)
  counters : (string * float) list;
      (** per-layer counts read from the program after the pass *)
}

(* A built pass: run it (the timed phase), then read its outcome.  [run]
   calls [tick] at fixed points of its work — the same points in every
   pass — so the timed phase splits into slices that can be compared
   across passes. *)
type pass = { run : tick:(unit -> unit) -> unit; finish : unit -> outcome }

(* ------------------------------------------------------------------------
   Broadcast workloads over 1024 members: pc-overlay-1024 and
   bss-mesh-1024.  Same members, FIFO LAN links, schedule and int
   payloads; only the group differs.  Broadcast [k] fires at virtual
   instant [k * spacing] from origin [(seed + 5k) mod n], whatever the
   backlog (an open loop), and its payload is [k].
   ------------------------------------------------------------------------ *)

let members = 1024
let broadcasts = 200
let spacing = 2.0
let degree = 8
let origin ~seed k = (seed + (5 * k)) mod members
let submit_time k = float_of_int k *. spacing

(* Drain an engine in slices of [every] virtual ms, ticking after each.
   Stopping at a virtual instant changes nothing: [Engine.run ~until]
   only leaves later events queued.  A broadcast pass ticks after every
   broadcast's slot. *)
let drain_sliced ~every engine ~tick =
  let stop = ref every in
  while Engine.pending engine > 0 do
    Engine.run ~until:!stop engine;
    stop := !stop +. every;
    tick ()
  done

(* Per (broadcast, member) delivery bookkeeping, preallocated in set-up:
   position in the member's delivery sequence, release latency, and for
   each broadcast how many messages its origin had delivered when it
   sent — the causal past a correct delivery must follow.  Indexed
   broadcast-major: one broadcast's deliveries come in one flood wave,
   so the benchmark's own writes stay within a few cache lines. *)
type recorder = {
  pos : int array;
  lat : float array;
  count : int array;
  sent_after : int array;
  mutable dups : int;
}

let recorder () =
  {
    pos = Array.make (members * broadcasts) (-1);
    lat = Array.make (members * broadcasts) 0.;
    count = Array.make members 0;
    sent_after = Array.make broadcasts 0;
    dups = 0;
  }

let slot ~node k = (k * members) + node

let record r ~node ~time k =
  let i = slot ~node k in
  if r.pos.(i) >= 0 then r.dups <- r.dups + 1
  else begin
    r.pos.(i) <- r.count.(node);
    r.count.(node) <- r.count.(node) + 1;
    r.lat.(i) <- time -. submit_time k
  end

let note_send r ~src k = r.sent_after.(k) <- r.count.(src)

(* Every member delivers every broadcast exactly once, and after every
   message its origin had delivered before sending it. *)
let check_deliveries ~seed r =
  let missing = ref 0 and out_of_order = ref 0 in
  let seq_of o =
    let inv = Array.make broadcasts (-1) in
    for k = 0 to broadcasts - 1 do
      let p = r.pos.(slot ~node:o k) in
      if p >= 0 then inv.(p) <- k
    done;
    inv
  in
  let past = Array.init broadcasts (fun k -> seq_of (origin ~seed k)) in
  for m = 0 to members - 1 do
    for k = 0 to broadcasts - 1 do
      let p = r.pos.(slot ~node:m k) in
      if p < 0 then incr missing
      else begin
        let seq = past.(k) in
        let bad = ref false in
        for j = 0 to r.sent_after.(k) - 1 do
          let a = seq.(j) in
          if a < 0 then bad := true
          else
            let q = r.pos.(slot ~node:m a) in
            if q < 0 || q > p then bad := true
        done;
        if !bad then incr out_of_order
      end
    done
  done;
  !missing + !out_of_order + r.dups

let delivered r = Array.fold_left ( + ) 0 r.count

let bcast_outcome ~seed r net ~counters =
  {
    attempted = members * broadcasts;
    failed = check_deliveries ~seed r;
    deliveries = delivered r;
    copies = Net.messages_sent net;
    latency = r.lat;
    digest = digest_floats (digest_ints 0 r.pos) r.lat;
    counters =
      ("net.bytes", float_of_int (Net.bytes_sent net))
      :: ("net.lost", float_of_int (Net.lost_copies net))
      :: counters;
  }

let sum_metrics get ms =
  Array.fold_left (fun acc m -> acc + get m) 0 ms

let metric_counters ~prefix metrics_of ms =
  let f get = float_of_int (sum_metrics (fun m -> get (metrics_of m)) ms) in
  [
    (prefix ^ ".received", f (fun x -> x.Metrics.received));
    (prefix ^ ".delivered", f (fun x -> x.Metrics.delivered));
    (prefix ^ ".forced_waits", f (fun x -> x.Metrics.forced_waits));
    ("codec.wire_bytes", f (fun x -> x.Metrics.wire_bytes));
    ("codec.control_bytes", f (fun x -> x.Metrics.control_bytes));
  ]

(* The byte charge [Fgroup] makes per received copy. *)
let charge metrics (fr : _ Codec.framed) =
  let len = Wire.length fr.Codec.frame in
  match fr.Codec.payload_bytes with
  | None -> Metrics.on_wire metrics len
  | Some payload ->
    Metrics.on_wire_split metrics ~control:(len - payload) ~payload

(* Gauges sampled at every traced receive. *)
let queue_peak = ref 0
let in_flight_peak = ref 0

let sample_queue engine =
  let q = Engine.pending engine in
  if q > !queue_peak then queue_peak := q

let sample_gauges engine net =
  sample_queue engine;
  let f = Net.in_flight net in
  if f > !in_flight_peak then in_flight_peak := f

let decodes = ref 0

let view fr ~dec =
  Span.enter Span.codec_view;
  (match fr.Codec.view with None -> incr decodes | Some _ -> ());
  let v = Codec.view fr ~dec in
  Span.leave ();
  v

let all_members ms = Array.init members (fun i -> ms i)

(* pc-overlay-1024 through the library's framed group. *)
let pc_build ~seed =
  let engine = Engine.create ~seed () in
  let net = Net.create engine ~nodes:members ~fifo:true () in
  let r = recorder () in
  let on_deliver ~node ~time e =
    match e.Pcbcast.body with
    | Pcbcast.App k -> record r ~node ~time k
    | Pcbcast.Ctrl _ -> ()
  in
  let g =
    Fgroup.Pc.create ~degree net ~enc:Codec.put_int ~dec:Codec.get_int
      ~on_deliver ()
  in
  for k = 0 to broadcasts - 1 do
    Engine.schedule_at engine ~time:(submit_time k) (fun () ->
        let src = origin ~seed k in
        note_send r ~src k;
        ignore (Fgroup.Pc.bcast g ~src k))
  done;
  let finish () =
    let ms = all_members (Fgroup.Pc.member g) in
    bcast_outcome ~seed r net
      ~counters:
        (("engine.events", float_of_int (Engine.events_processed engine))
        :: metric_counters ~prefix:"pcbcast" Pcbcast.metrics ms)
  in
  { run = drain_sliced ~every:spacing engine; finish }

(* The same group assembled from the public parts [Fgroup.Pc] is made
   of, with a span around each call, so engine, net, codec and
   PC-broadcast time apart.  Must reproduce [pc_build] exactly. *)
let pc_build_traced ~seed ~setup_spans =
  let engine = Engine.create ~seed () in
  let net = Net.create engine ~nodes:members ~fifo:true () in
  let r = recorder () in
  let graph = Depgraph.create () in
  let pool = Wire.pool () in
  let get = Codec.get_pc Codec.get_int in
  let t0 = now_ns () in
  let sg =
    Sgroup.create_routed net
      ~member:(fun node ->
        let deliver e =
          match e.Pcbcast.body with
          | Pcbcast.App k ->
            Span.enter Span.bench_deliver;
            record r ~node ~time:(Engine.now engine) k;
            Span.leave ()
          | Pcbcast.Ctrl _ -> ()
        in
        let send ~dst w =
          let frame, span = Codec.encode_pc pool Codec.put_int w in
          Net.send net ~src:node ~dst ~size:(Wire.length frame)
            (Codec.framed ~payload_bytes:span frame)
        in
        Pcbcast.member ~id:node ~send ~deliver ~graph ())
      ~receive:(fun m ~src fr ->
        Span.enter Span.fgroup_receive;
        sample_gauges engine net;
        charge (Pcbcast.metrics m) fr;
        let emit ~dst =
          Span.enter Span.net_send;
          Net.send net ~src:(Pcbcast.member_id m) ~dst
            ~size:(Wire.length fr.Codec.frame) fr;
          Span.leave ()
        in
        let w = view fr ~dec:get in
        (match w with
        | Pcbcast.Env { body = Pcbcast.App k; _ } -> Span.label := k
        | _ -> ());
        Span.enter Span.pcbcast_receive;
        Pcbcast.receive m ~src ~emit w;
        Span.leave ();
        Span.leave ())
  in
  let t1 = now_ns () in
  Array.iter
    (fun m -> Pcbcast.init_static m ~n:members ~degree:(Some degree))
    (Sgroup.members sg);
  let t2 = now_ns () in
  setup_spans := [ ("sgroup.create_s", secs (t1 - t0)); ("pcbcast.init_s", secs (t2 - t1)) ];
  for k = 0 to broadcasts - 1 do
    Engine.schedule_at engine ~time:(submit_time k) (fun () ->
        Span.label := k;
        Span.enter Span.bench_bcast;
        let src = origin ~seed k in
        note_send r ~src k;
        let m = Sgroup.member sg src in
        Span.enter Span.pcbcast_next;
        let e, _ = Pcbcast.next_envelope m k in
        Span.leave ();
        Span.enter Span.codec_encode;
        let frame, span = Codec.encode_pc pool Codec.put_int (Pcbcast.Env e) in
        let fr = Codec.framed ~payload_bytes:span frame in
        Span.leave ();
        let size = Wire.length frame in
        Span.enter Span.pcbcast_publish;
        Pcbcast.publish m e ~emit:(fun ~dst ->
            Span.enter Span.net_send;
            Net.send net ~src ~dst ~size fr;
            Span.leave ());
        Span.leave ();
        Span.leave ())
  done;
  let finish () =
    bcast_outcome ~seed r net
      ~counters:
        (("engine.events", float_of_int (Engine.events_processed engine))
        :: metric_counters ~prefix:"pcbcast" Pcbcast.metrics (Sgroup.members sg))
  in
  let run ~tick:_ =
    Span.enter Span.engine_run;
    Engine.run engine;
    Span.leave ()
  in
  { run; finish }

(* bss-mesh-1024 through the library's framed group. *)
let bss_build ~seed =
  let engine = Engine.create ~seed () in
  let net = Net.create engine ~nodes:members ~fifo:true () in
  let r = recorder () in
  let on_deliver ~node ~time e = record r ~node ~time e.Bss.payload in
  let g =
    Fgroup.Bss.create net ~enc:Codec.put_int ~dec:Codec.get_int ~on_deliver ()
  in
  for k = 0 to broadcasts - 1 do
    Engine.schedule_at engine ~time:(submit_time k) (fun () ->
        let src = origin ~seed k in
        note_send r ~src k;
        Fgroup.Bss.bcast g ~src k)
  done;
  let finish () =
    let ms = all_members (Fgroup.Bss.member g) in
    bcast_outcome ~seed r net
      ~counters:
        (("engine.events", float_of_int (Engine.events_processed engine))
        :: metric_counters ~prefix:"bss" Bss.metrics ms)
  in
  { run = drain_sliced ~every:spacing engine; finish }

(* [Fgroup.Bss] from its public parts, with spans; must reproduce
   [bss_build] exactly. *)
let bss_build_traced ~seed ~setup_spans =
  let engine = Engine.create ~seed () in
  let net = Net.create engine ~nodes:members ~fifo:true () in
  let r = recorder () in
  let pool = Wire.pool () in
  let get = Codec.get_envelope Codec.get_int in
  let put_payload w e = Codec.put_int w e.Bss.payload in
  let t0 = now_ns () in
  let sg =
    Sgroup.create net
      ~member:(fun node ->
        let deliver e =
          Span.enter Span.bench_deliver;
          record r ~node ~time:(Engine.now engine) e.Bss.payload;
          Span.leave ()
        in
        Bss.member ~id:node ~group_size:members ~deliver ())
      ~receive:(fun m fr ->
        Span.enter Span.fgroup_receive;
        sample_gauges engine net;
        charge (Bss.metrics m) fr;
        let e = view fr ~dec:get in
        Span.label := e.Bss.payload;
        Span.enter Span.bss_receive;
        Bss.receive m e;
        Span.leave ();
        Span.leave ())
  in
  let t1 = now_ns () in
  setup_spans := [ ("sgroup.create_s", secs (t1 - t0)); ("pcbcast.init_s", 0.) ];
  for k = 0 to broadcasts - 1 do
    Engine.schedule_at engine ~time:(submit_time k) (fun () ->
        Span.label := k;
        Span.enter Span.bench_bcast;
        let src = origin ~seed k in
        note_send r ~src k;
        Span.enter Span.bss_next;
        let e = Bss.next_envelope (Sgroup.member sg src) k in
        Span.leave ();
        Span.enter Span.codec_encode;
        let frame, span =
          Codec.encode_split pool ~header:Codec.put_envelope_header
            ~payload:put_payload e
        in
        let fr = Codec.framed ~payload_bytes:span frame in
        Span.leave ();
        Span.enter Span.net_bcast;
        Net.bcast net ~src ~size:(Wire.length frame) fr;
        Span.leave ();
        Span.leave ())
  done;
  let finish () =
    bcast_outcome ~seed r net
      ~counters:
        (("engine.events", float_of_int (Engine.events_processed engine))
        :: metric_counters ~prefix:"bss" Bss.metrics (Sgroup.members sg))
  in
  let run ~tick:_ =
    Span.enter Span.engine_run;
    Engine.run engine;
    Span.leave ()
  in
  { run; finish }

(* ------------------------------------------------------------------------
   register-merge: the §6.1 integer register over OSend explicit
   dependencies with the ASend sync-anchored merge on top, 8 replicas,
   Fixed_window 4 (four commutative increments, then a read that closes
   the window), datagram links and [Drivers.default_latency].  A pass is
   a batch of independent short runs, the way the experiments run
   [Drivers]: one long stream slows down as its state grows.
   ------------------------------------------------------------------------ *)

let rm_replicas = 8
let rm_ops = 2000
let rm_runs = 96
let rm_spacing = 0.5
let rm_window = 4

(* Virtual ms per slice of the timed phase: 200 submissions. *)
let rm_slice_ms = 100.

let is_sync_op = function
  | Reg.Read | Reg.Set _ -> true
  | Reg.Inc _ | Reg.Dec _ -> false

(* [Drivers]' op sequence: [ops] ops of the window mix, then a closing
   read. *)
let rm_op ~ops i =
  if i < ops && (i + 1) mod (rm_window + 1) <> 0 then Reg.Inc 1 else Reg.Read

type rm_run = {
  mutable live : (Engine.t * Reg.op Stack.t) option;
      (** dropped once the run has drained, so a pass holds one run's
          protocol state at a time *)
  ops : int;
  issued : float array;
  lat : float array;  (** in delivery order, as [Drivers.run_stack] records it *)
  mutable n_lat : int;
  order : int array array;  (** per replica, op indices in release order *)
  released : int array;
  mutable copies : int;
  mutable events : int;
  mutable rows : Metrics.t list;  (** [Stack.metrics], traced passes only *)
}

(* Compose one run and schedule its submissions: everything but
   [Engine.run].  The submission callback computes the window
   dependencies at fire time, exactly as [Drivers.run_stack] does. *)
let rm_compose ~seed ~ops =
  let engine = Engine.create ~seed () in
  let r =
    {
      live = None;
      ops;
      issued = Array.make (ops + 1) 0.;
      lat = Array.make ((ops + 1) * rm_replicas) 0.;
      n_lat = 0;
      order = Array.init rm_replicas (fun _ -> Array.make (ops + 1) (-1));
      released = Array.make rm_replicas 0;
      copies = 0;
      events = 0;
      rows = [];
    }
  in
  (* op [i] is the [i / replicas]-th submission of replica [i mod replicas] *)
  let on_deliver ~node ~time msg =
    Span.enter Span.bench_deliver;
    if !Span.on then sample_queue engine;
    let l = Message.label msg in
    let i = (Label.seq l * rm_replicas) + Label.origin l in
    if i <= ops && r.released.(node) <= ops then begin
      r.order.(node).(r.released.(node)) <- i;
      r.released.(node) <- r.released.(node) + 1;
      r.lat.(r.n_lat) <- time -. r.issued.(i);
      r.n_lat <- r.n_lat + 1
    end;
    Span.leave ()
  in
  let stack =
    Stack.compose ~ordering:Stack.Osend
      ~total:(Stack.Merge (fun m -> is_sync_op (Message.payload m)))
      ~latency:Drivers.default_latency ~fifo:false ~on_deliver engine
      ~nodes:rm_replicas ()
  in
  (* [Drivers.run_stack] forks its op-sequence generator right after
     composing *)
  ignore (Engine.fork_rng engine);
  r.live <- Some (engine, stack);
  let win = Window.create () in
  for i = 0 to ops do
    let op = rm_op ~ops i in
    Engine.schedule_at engine ~time:(float_of_int i *. rm_spacing) (fun () ->
        Span.label := i;
        Span.enter Span.bench_bcast;
        let name = Printf.sprintf "op%d" i in
        let kind = if is_sync_op op then Op.Non_commutative else Op.Commutative in
        Span.enter Span.window_deps;
        let dep = Dep.after_all (Window.deps_for win ~kind ~fallback:[]) in
        Span.leave ();
        r.issued.(i) <- Engine.now engine;
        Span.enter Span.stack_submit;
        let label = Stack.submit stack ~src:(i mod rm_replicas) ~name ~dep op in
        Span.leave ();
        (match label with
        | None -> ()
        | Some label ->
          Span.enter Span.window_deps;
          Window.note win ~kind label;
          Span.leave ());
        Span.leave ())
  done;
  r

(* Drain one run, keep what the checks need, drop the protocol state. *)
let rm_drain ~layers ~tick r =
  match r.live with
  | None -> ()
  | Some (engine, stack) ->
    Span.enter Span.engine_run;
    drain_sliced ~every:rm_slice_ms engine ~tick;
    Span.leave ();
    r.copies <- Stack.messages_sent stack;
    r.events <- Engine.events_processed engine;
    if layers then r.rows <- Stack.metrics stack;
    r.live <- None

let rm_seed ~seed j = (seed * 7919) + j

(* Every replica releases every op, in replica 0's order. *)
let rm_failures r =
  let reference = r.order.(0) in
  Array.fold_left
    (fun acc o ->
      let bad = ref 0 in
      Array.iteri (fun j i -> if i < 0 || i <> reference.(j) then incr bad) o;
      acc + !bad)
    0 r.order

let rm_digest h r =
  Array.fold_left digest_ints (digest_floats h (Array.sub r.lat 0 r.n_lat)) r.order

(* One layer's row pooled over every run of the batch: counters summed,
   latency samples concatenated. *)
let pooled_layer rs name =
  let rows =
    Array.to_list rs
    |> List.concat_map (fun r -> r.rows)
    |> List.filter (fun m -> m.Metrics.name = name)
  in
  let waits = List.fold_left (fun acc m -> acc + m.Metrics.forced_waits) 0 rows in
  let delivered = List.fold_left (fun acc m -> acc + m.Metrics.delivered) 0 rows in
  let lat =
    sorted_copy (Array.concat (List.map (fun m -> Stats.samples m.Metrics.latency) rows))
  in
  (waits, delivered, lat)

let rm_finish ~layers rs =
  let sum f = Array.fold_left (fun acc r -> acc + f r) 0 rs in
  let layer_counters () =
    let waits, delivered, causal = pooled_layer rs "causal:osend" in
    let _, _, total = pooled_layer rs "total:merge" in
    [
      ("osend.forced_waits", float_of_int waits);
      ("osend.delivered", float_of_int delivered);
      ("osend.release_ms_p50", percentile causal 50.);
      ("osend.release_ms_p99", percentile causal 99.);
      ("asend.release_ms_p50", percentile total 50.);
      ("asend.release_ms_p99", percentile total 99.);
    ]
  in
  {
    attempted = sum (fun r -> (r.ops + 1) * rm_replicas);
    failed = sum rm_failures;
    deliveries = sum (fun r -> r.n_lat);
    copies = sum (fun r -> r.copies);
    latency = Array.concat (Array.to_list (Array.map (fun r -> Array.sub r.lat 0 r.n_lat) rs));
    digest = Array.fold_left rm_digest 0 rs;
    counters =
      ("engine.events", float_of_int (sum (fun r -> r.events)))
      :: ("stack.ops", float_of_int (sum (fun r -> r.ops + 1)))
      :: (if layers then layer_counters () else []);
  }

let rm_build ~layers ~seed =
  let rs = Array.init rm_runs (fun j -> rm_compose ~seed:(rm_seed ~seed j) ~ops:rm_ops) in
  {
    run = (fun ~tick -> Array.iter (rm_drain ~layers ~tick) rs);
    finish = (fun () -> rm_finish ~layers rs);
  }

(* The composed run must reproduce [Drivers.run_stack ... Osend_merge]:
   same delivery-latency samples in the same order, same copies. *)
let rm_equivalent ~seed =
  let ops = 200 in
  let r = rm_compose ~seed ~ops in
  rm_drain ~layers:false ~tick:ignore r;
  let d =
    Drivers.run_stack ~seed ~replicas:rm_replicas Drivers.Osend_merge
      { Drivers.ops; spacing = rm_spacing; mix = Drivers.Fixed_window rm_window }
  in
  Stats.samples d.Drivers.delivery = Array.sub r.lat 0 r.n_lat
  && d.Drivers.messages = r.copies

(* ------------------------------------------------------------------------
   hunt-faults: a fixed [Campaign.generate] case list (base seed = the
   workload seed, all eight compositions, partition/drop/dup/jitter
   phases), every case audited once, sequentially, without shrinking.
   The timed loop makes the call [Campaign.run_case] makes for these
   (churn-free) cases, [Drivers.run_stack ~check:true], because only the
   stack result carries deliveries and latencies; the traced run checks
   every verdict against [Campaign.run_case] itself.
   ------------------------------------------------------------------------ *)

let hunt_cases = 4096

(* Cases per slice of the timed phase. *)
let hunt_slice = 16

type hunt = {
  cases : Campaign.case array;
  ok : bool array;
  lost : int array;
  messages : int array;
  delivery : Stats.t array;
  records : int array;
}

let verdict_ok (r : Drivers.stack_result) =
  r.Drivers.checks_ok
  && match r.Drivers.audit with Some a -> a.Drivers.diagnostics = [] | None -> false

let hunt_setup ~seed =
  let cases = Array.of_list (Campaign.generate ~base_seed:seed ~seeds:hunt_cases ()) in
  let n = Array.length cases in
  {
    cases;
    ok = Array.make n false;
    lost = Array.make n 0;
    messages = Array.make n 0;
    delivery = Array.make n (Stats.create ());
    records = Array.make n 0;
  }

let hunt_note h i (r : Drivers.stack_result) =
  h.ok.(i) <- verdict_ok r;
  h.lost.(i) <- r.Drivers.lost;
  h.messages.(i) <- r.Drivers.messages;
  h.delivery.(i) <- r.Drivers.delivery

let audited (c : Campaign.case) =
  Drivers.run_stack ~seed:c.Campaign.seed ~check:true ~nemesis:c.Campaign.nemesis
    ~replicas:c.Campaign.replicas c.Campaign.spec c.Campaign.workload

let hunt_finish h =
  let n = Array.length h.cases in
  let sum a = Array.fold_left ( + ) 0 a in
  let failed = Array.fold_left (fun acc ok -> if ok then acc else acc + 1) 0 h.ok in
  let latency = Array.concat (Array.to_list (Array.map Stats.samples h.delivery)) in
  let digest =
    Array.fold_left
      (fun d ok -> mix d (Bool.to_int ok))
      (digest_floats (digest_ints (digest_ints 0 h.lost) h.messages) latency)
      h.ok
  in
  {
    attempted = n;
    failed;
    deliveries = Array.fold_left (fun acc s -> acc + Stats.count s) 0 h.delivery;
    copies = sum h.messages;
    latency;
    digest;
    counters =
      [
        ("cases", float_of_int n);
        ("net.lost", float_of_int (sum h.lost));
        ("trace.records", float_of_int (sum h.records));
      ];
  }

let hunt_build ~seed =
  let h = hunt_setup ~seed in
  let run ~tick =
    Array.iteri
      (fun i c ->
        hunt_note h i (audited c);
        if (i + 1) mod hunt_slice = 0 then tick ())
      h.cases
  in
  { run; finish = (fun () -> hunt_finish h) }

(* Four timed calls per case; the cost of trace recording and audit
   bookkeeping is derived by subtraction afterwards. *)
let hunt_build_traced ~seed ~setup_spans =
  let t0 = now_ns () in
  let h = hunt_setup ~seed in
  setup_spans := [ ("campaign.generate_s", secs (now_ns () - t0)) ];
  let run ~tick:_ =
    Array.iteri
      (fun i (c : Campaign.case) ->
        Span.label := c.Campaign.id;
        Span.enter Span.static_audit;
        ignore
          (Drivers.static_audit ~seed:c.Campaign.seed ~replicas:c.Campaign.replicas
             c.Campaign.spec c.Campaign.workload);
        Span.leave ();
        Span.enter Span.campaign_sim;
        ignore
          (Drivers.run_stack ~seed:c.Campaign.seed ~nemesis:c.Campaign.nemesis
             ~replicas:c.Campaign.replicas c.Campaign.spec c.Campaign.workload);
        Span.leave ();
        Span.enter Span.campaign_audited;
        let r = audited c in
        Span.leave ();
        hunt_note h i r;
        match r.Drivers.audit with
        | None -> ()
        | Some a ->
          h.records.(i) <- Trace.length a.Drivers.trace;
          Span.enter Span.check_recheck;
          ignore (Drivers.recheck c.Campaign.spec ~lost:r.Drivers.lost a);
          Span.leave ())
      h.cases
  in
  let finish () =
    let o = hunt_finish h in
    (* the verdicts [causalb hunt] would print for the same cases *)
    let agree = ref 0 in
    Array.iteri
      (fun i c ->
        let v = Campaign.run_case c in
        if v.Campaign.ok = h.ok.(i) && v.Campaign.lost = h.lost.(i)
           && v.Campaign.messages = h.messages.(i)
        then incr agree)
      h.cases;
    { o with counters = ("campaign.run_case_agree", float_of_int !agree) :: o.counters }
  in
  { run; finish }

(* ------------------------------------------------------------------------
   Passes, metrics, output.
   ------------------------------------------------------------------------ *)

type workload = {
  name : string;
  build : seed:int -> pass;
  traced : seed:int -> setup_spans:(string * float) list ref -> pass;
      (** the same pass with spans; set-up figures land in [setup_spans] *)
  equivalent : seed:int -> bool;
      (** small-size agreement with [Drivers] *)
}

let workloads =
  [
    {
      name = "register-merge";
      build = rm_build ~layers:false;
      traced = (fun ~seed ~setup_spans:_ -> rm_build ~layers:true ~seed);
      equivalent = rm_equivalent;
    };
    {
      name = "pc-overlay-1024";
      build = pc_build;
      traced = pc_build_traced;
      equivalent = (fun ~seed:_ -> true);
    };
    {
      name = "bss-mesh-1024";
      build = bss_build;
      traced = bss_build_traced;
      equivalent = (fun ~seed:_ -> true);
    };
    {
      name = "hunt-faults";
      build = hunt_build;
      traced = hunt_build_traced;
      equivalent = (fun ~seed:_ -> true);
    };
  ]

type sample = {
  setup_ns : int;
  wall_ns : int;
  slices : int array;  (** ns per slice of the timed phase; they sum to [wall_ns] *)
  cpu_s : float;
  alloc : float;
  heap_mb : float;
  out : outcome;
}

let max_slices = 4096

(* Passes a run makes however long they take: the set-up and slice
   floors need a few. *)
let min_passes = 5

(* Builds per pass: the pass times each and runs the last. *)
let builds_per_pass = 3

(* One untraced pass.  Its set-up is the fastest of [builds_per_pass]
   builds, each after a full major collection so no garbage is charged
   to it.  On a shared host, set-up times are skewed upwards: the first
   build in a fresh child is several times slower than the next, most
   likely the kernel handing it pages (copies of the parent's, or fresh
   ones), and any build may share the processor with a neighbour's
   burst; neither is the program's work.
   The slice times go into an array allocated before the timed phase, so
   timing them allocates nothing inside it. *)
let timed_pass build =
  let built = ref None and setup_ns = ref max_int in
  for _ = 1 to builds_per_pass do
    built := None;
    Gc.full_major ();
    let t0 = now_ns () in
    let b = build () in
    setup_ns := min !setup_ns (now_ns () - t0);
    built := Some b
  done;
  let p = Option.get !built in
  let cuts = Array.make (max_slices + 1) 0 and n = ref 0 in
  let tick () =
    if !n < max_slices then begin
      incr n;
      cuts.(!n) <- now_ns ()
    end
  in
  let a0 = alloc_words () in
  let c0 = Sys.time () in
  let t2 = now_ns () in
  cuts.(0) <- t2;
  p.run ~tick;
  let t3 = now_ns () in
  let c1 = Sys.time () in
  let a1 = alloc_words () in
  let heap_mb = top_heap_mb () in
  (* whatever ran after the last tick joins the last slice *)
  if !n = 0 then n := 1;
  cuts.(!n) <- t3;
  {
    setup_ns = !setup_ns;
    wall_ns = t3 - t2;
    slices = Array.init !n (fun i -> cuts.(i + 1) - cuts.(i));
    cpu_s = c1 -. c0;
    alloc = a1 -. a0;
    heap_mb;
    out = p.finish ();
  }

let counter o name = Option.value ~default:0. (List.assoc_opt name o.counters)

let same_outcome a b =
  a.digest = b.digest && a.deliveries = b.deliveries && a.copies = b.copies
  && a.attempted = b.attempted && a.failed = b.failed
  && counter a "net.bytes" = counter b "net.bytes"

let per x y = if y = 0. then 0. else x /. y

let layers =
  [ "engine"; "fgroup"; "codec"; "pcbcast"; "bss"; "net"; "stack"; "window";
    "analysis"; "campaign"; "check"; "bench" ]

let layer_of name = String.sub name 0 (String.index name '.')

(* Self times, in ns, accumulated under the layer prefix of each span. *)
let layer_self layer =
  let acc = ref 0 in
  Array.iteri
    (fun i name -> if layer_of name = layer then acc := !acc + Span.self_ns i)
    Span.names;
  !acc

(* Relative tolerance of the layer-sum check. *)
let layer_sum_tolerance = 0.01

(* Per-layer figures of one traced pass, from its spans, the counters the
   program's own metrics hold, and the gauges sampled at each receive. *)
let layer_metrics ~wall ~setup_spans (o : outcome) =
  let d = float_of_int o.deliveries in
  let c = counter o in
  let self n = float_of_int (Span.self_ns n) in
  let calls n = float_of_int (Span.calls_of n) in
  let encodes = calls Span.codec_encode in
  let cases = c "cases" in
  let per_case n = per (self n *. 1e-9) cases in
  let setup name = Option.value ~default:0. (List.assoc_opt name setup_spans) in
  let prefix = if c "pcbcast.delivered" > 0. then "pcbcast" else "bss" in
  let received = c (prefix ^ ".received") and delivered = c (prefix ^ ".delivered") in
  let is_pc = prefix = "pcbcast" && delivered > 0. in
  let is_bss = prefix = "bss" && delivered > 0. in
  let on flag x = if flag then x else 0. in
  let copies = float_of_int o.copies in
  let events = c "engine.events" in
  let rest = float_of_int !Span.rest and wall_f = float_of_int wall in
  let sum = float_of_int (Span.self_sum ()) +. rest in
  [
    ("engine.events_per_delivery", "events/delivery", per events d);
    ("engine.self_ns_per_event", "ns", per (self Span.engine_run) events);
    ("engine.queue_peak", "events", float_of_int !queue_peak);
    ("net.in_flight_peak", "copies", float_of_int !in_flight_peak);
    ("net.send_ns_per_copy", "ns",
      on (is_pc || is_bss) (per (self Span.net_send +. self Span.net_bcast) copies));
    ("net.lost_frac", "fraction", per (c "net.lost") copies);
    ("codec.encode_ns_per_bcast", "ns", per (self Span.codec_encode) encodes);
    ("codec.view_calls_per_delivery", "calls/delivery", per (calls Span.codec_view) d);
    ("codec.decodes_per_bcast", "decodes/bcast", per (float_of_int !decodes) encodes);
    ("codec.view_ns_per_delivery", "ns", per (self Span.codec_view) d);
    ("codec.control_bytes_per_delivery", "B/delivery", per (c "codec.control_bytes") d);
    ("codec.wire_bytes_per_delivery", "B/delivery", per (c "codec.wire_bytes") d);
    ("pcbcast.receive_self_ns_per_copy", "ns",
      per (self Span.pcbcast_receive) (calls Span.pcbcast_receive));
    ("pcbcast.redundant_per_delivery", "copies/delivery",
      on is_pc (per (received -. (delivered -. encodes)) delivered));
    ("pcbcast.forced_waits_per_delivery", "waits/delivery",
      on is_pc (per (c "pcbcast.forced_waits") delivered));
    ("pcbcast.init_s", "s", setup "pcbcast.init_s");
    ("sgroup.create_s", "s", setup "sgroup.create_s");
    ("bss.receive_ns_per_delivery", "ns", per (self Span.bss_receive) d);
    ("bss.forced_waits_per_delivery", "waits/delivery",
      on is_bss (per (c "bss.forced_waits") delivered));
    ("stack.submit_ns_per_op", "ns", per (self Span.stack_submit) (calls Span.stack_submit));
    ("stack.deliver_ns_per_delivery", "ns",
      on (c "stack.ops" > 0.) (per (self Span.engine_run) d));
    ("osend.release_ms_p50", "ms", c "osend.release_ms_p50");
    ("osend.release_ms_p99", "ms", c "osend.release_ms_p99");
    ("asend.release_ms_p50", "ms", c "asend.release_ms_p50");
    ("asend.release_ms_p99", "ms", c "asend.release_ms_p99");
    ("osend.forced_waits_per_delivery", "waits/delivery",
      per (c "osend.forced_waits") (c "osend.delivered"));
    ("trace.records_per_case", "records", per (c "trace.records") cases);
    ("trace.record_s_per_case", "s",
      on (cases > 0.)
        (per_case Span.campaign_audited -. per_case Span.campaign_sim
        -. per_case Span.static_audit -. per_case Span.check_recheck));
    ("check.oracle_s_per_case", "s", per_case Span.check_recheck);
    ("analysis.static_s_per_case", "s", per_case Span.static_audit);
    ("campaign.generate_s", "s", setup "campaign.generate_s");
    ("campaign.sim_s_per_case", "s", per_case Span.campaign_sim);
  ]
  @ List.map
      (fun l -> (l ^ ".self_ns_per_delivery", "ns", per (float_of_int (layer_self l)) d))
      layers
  @ [
      ("spans.rest_ns_per_delivery", "ns", per rest d);
      ("spans.wall_ns_per_delivery", "ns", per wall_f d);
      ("spans.layer_sum_err_frac", "fraction", per (Float.abs (sum -. wall_f)) wall_f);
    ]

(* --- output ------------------------------------------------------------ *)

let num x = if Float.is_finite x then Printf.sprintf "%.17g" x else "0"

let print_result ~correct ~attempted ~failed metrics =
  let body =
    List.map
      (fun (name, unit, v) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (num v) unit)
      metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    correct attempted failed (String.concat ", " body)

let print_lines metrics =
  List.iter (fun (name, unit, v) -> Printf.printf "  %-36s %16.6g %s\n" name v unit) metrics

let log fmt = Printf.ksprintf (fun s -> print_endline s) fmt

(* Run [f] in a child forked from the current process and return its
   result.  Every measured pass runs this way, so each one starts from
   the same heap — the parent's, after the warm-up pass — rather than
   from the garbage and fragmentation earlier passes left behind. *)
let in_child f =
  flush stdout;
  flush stderr;
  let r, w = Unix.pipe () in
  match Unix.fork () with
  | 0 ->
    Unix.close r;
    let res = try Ok (f ()) with e -> Error (Printexc.to_string e) in
    let oc = Unix.out_channel_of_descr w in
    Marshal.to_channel oc res [];
    close_out oc;
    Unix._exit 0
  | pid ->
    Unix.close w;
    let ic = Unix.in_channel_of_descr r in
    let res = try Marshal.from_channel ic with End_of_file -> Error "pass died" in
    close_in ic;
    ignore (Unix.waitpid [] pid);
    (match res with Ok v -> v | Error msg -> failwith ("perfbench: " ^ msg))

(* A pass's outcome without its latency samples, which only the
   warm-up pass keeps; the digest still covers them. *)
let light o = { o with latency = [||] }

let untraced_pass w ~seed () =
  let s = timed_pass (fun () -> w.build ~seed) in
  { s with out = light s.out }

(* The timed phase with the neighbours' interference taken out as far as
   the run saw quiet moments: each slice's fastest time over the passes,
   summed.  Every pass cuts its work at the same points, so slice [i] is
   the same work in every pass; [None] if the passes disagree on how many
   slices there are. *)
let slice_floor samples =
  match samples with
  | [] -> None
  | s0 :: _ ->
    let k = Array.length s0.slices in
    if List.exists (fun s -> Array.length s.slices <> k) samples then None
    else
      let fastest i = List.fold_left (fun acc s -> min acc s.slices.(i)) max_int samples in
      Some (List.fold_left ( + ) 0 (List.init k fastest))

let record_line w ~seed ~nproc ~passes ~wall ~cpu =
  log "record: {\"workload\": %S, \"seed\": %d, \"nproc\": %d, \"ocaml\": %S, \
       \"passes\": %d, \"timed_wall_s\": %s, \"timed_cpu_s\": %s}"
    w.name seed nproc Sys.ocaml_version passes (num wall) (num cpu)

(* Whether another step of [last_ns] still ends within [seconds] of
   [start]: a run, warm-up included, keeps to its time. *)
let time_left ~start ~seconds ~last_ns = secs (now_ns () - start + last_ns) <= seconds

let run_untraced w ~seed ~seconds ~nproc =
  let start = now_ns () in
  let warm = timed_pass (fun () -> w.build ~seed) in
  let first = warm.out in
  let equivalent = w.equivalent ~seed in
  Gc.full_major ();
  let samples = ref [] and last_ns = ref 0 in
  while List.length !samples < min_passes || time_left ~start ~seconds ~last_ns:!last_ns do
    let t = now_ns () in
    samples := in_child (untraced_pass w ~seed) :: !samples;
    last_ns := now_ns () - t
  done;
  let samples = List.rev !samples in
  List.iteri
    (fun i s ->
      log "  pass %d: set-up %.6f s, timed %.4f s wall, %.4f s cpu, %.0f words" (i + 1)
        (secs s.setup_ns) (secs s.wall_ns) s.cpu_s s.alloc)
    samples;
  let replayed = List.for_all (fun s -> same_outcome s.out first) samples in
  let d = float_of_int first.deliveries in
  let lat = sorted_copy first.latency in
  let n = Array.length lat in
  let wall = median (List.map (fun s -> secs s.wall_ns) samples) in
  let floor = slice_floor samples in
  let replayed = replayed && floor <> None in
  let floor_s = secs (Option.value ~default:0 floor) in
  let fastest = List.fold_left (fun acc s -> min acc (secs s.wall_ns)) infinity samples in
  let metrics =
    [
      ("setup_s", "s", secs (List.fold_left (fun acc s -> min acc s.setup_ns) max_int samples));
      ("deliveries_per_s", "1/s", per d floor_s);
      ("latency_p50_ms", "ms", percentile lat 50.);
      ("latency_p99_ms", "ms", percentile lat 99.);
      ("latency_p999_ms", "ms", percentile lat 99.9);
      ("wire_copies_per_delivery", "copies/delivery", per (float_of_int first.copies) d);
      ("alloc_words_per_delivery", "words/delivery",
        per (median (List.map (fun s -> s.alloc) samples)) d);
      ("peak_heap_mb", "MB", warm.heap_mb);
    ]
  in
  let finite = List.for_all (fun (_, _, v) -> Float.is_finite v) metrics in
  log "%s: seed %d, %d passes after one warm-up, %d deliveries, %d of %d operations failed"
    w.name seed (List.length samples) first.deliveries first.failed first.attempted;
  log "  timed phase: slice floor %.4f s over %d slices, fastest pass %.4f s, median pass %.4f s"
    floor_s (Array.length (List.hd samples).slices) fastest wall;
  log "  latency samples: %d (%d beyond p99, %d beyond p99.9)" n (n / 100) (n / 1000);
  if w.name = "hunt-faults" then
    log "  cases_per_s %.6g (failed_frac %.6g)"
      (per (float_of_int first.attempted) floor_s)
      (per (float_of_int first.failed) (float_of_int first.attempted));
  if not replayed then log "  ERROR: a pass did not reproduce the first pass";
  if not equivalent then log "  ERROR: differs from Drivers.run_stack";
  print_lines metrics;
  record_line w ~seed ~nproc ~passes:(List.length samples) ~wall
    ~cpu:(median (List.map (fun s -> s.cpu_s) samples));
  print_result ~correct:(replayed && equivalent && finite) ~attempted:first.attempted
    ~failed:first.failed metrics

(* One traced pass, in the calling process: the per-layer figures, the
   traced phase's wall time, and whether it reproduced [first]. *)
let traced_pass w ~seed ~first =
  (* set-up figures on recycled memory: the first build is dropped *)
  Gc.full_major ();
  ignore (Sys.opaque_identity (w.traced ~seed ~setup_spans:(ref [])));
  Gc.full_major ();
  let setup_spans = ref [] in
  let p = w.traced ~seed ~setup_spans in
  queue_peak := 0;
  in_flight_peak := 0;
  decodes := 0;
  let wall = Span.phase (fun () -> p.run ~tick:ignore) in
  let balanced = !Span.depth = 0 in
  let o = p.finish () in
  let m = layer_metrics ~wall ~setup_spans:!setup_spans o in
  let agree =
    w.name <> "hunt-faults" || counter o "campaign.run_case_agree" = float_of_int o.attempted
  in
  let sum_err = List.assoc "spans.layer_sum_err_frac" (List.map (fun (n, _, v) -> (n, v)) m) in
  (if Sys.file_exists "perfbench" && Sys.is_directory "perfbench" then begin
     let dir = Filename.concat "perfbench" "out" in
     if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
     Span.write_log (Filename.concat dir (Printf.sprintf "spans-%s.tsv" w.name))
   end);
  (m, wall, same_outcome o first && balanced && agree && sum_err <= layer_sum_tolerance)

let run_traced w ~seed ~seconds ~nproc =
  let start = now_ns () in
  let warm = timed_pass (fun () -> w.build ~seed) in
  let first = light warm.out in
  let equivalent = w.equivalent ~seed in
  Gc.full_major ();
  let rounds = ref [] and last_ns = ref 0 in
  while !rounds = [] || time_left ~start ~seconds ~last_ns:!last_ns do
    let t = now_ns () in
    let u = in_child (untraced_pass w ~seed) in
    let m, wall, ok = in_child (fun () -> traced_pass w ~seed ~first) in
    let overhead = (float_of_int wall /. float_of_int u.wall_ns) -. 1. in
    rounds :=
      (m @ [ ("spans.overhead_frac", "fraction", overhead) ], ok && same_outcome u.out first, wall, u)
      :: !rounds;
    last_ns := now_ns () - t
  done;
  let rounds = List.rev !rounds in
  let names = List.map (fun (n, u, _) -> (n, u)) (let m, _, _, _ = List.hd rounds in m) in
  let value m name = List.assoc name (List.map (fun (n, _, v) -> (n, v)) m) in
  let metrics =
    List.map
      (fun (name, unit) -> (name, unit, median (List.map (fun (m, _, _, _) -> value m name) rounds)))
      names
  in
  let ok = List.for_all (fun (_, ok, _, _) -> ok) rounds in
  log "%s (traced): seed %d, %d traced passes, layer-sum tolerance %g" w.name seed
    (List.length rounds) layer_sum_tolerance;
  if w.name = "hunt-faults" then
    log "  the traced pass makes four calls per case, the untraced pass one";
  if not ok then log "  ERROR: traced pass differs from the untraced run, or spans do not add up";
  if not equivalent then log "  ERROR: differs from Drivers.run_stack";
  print_lines metrics;
  log "  spans of the last traced pass (first %d): perfbench/out/spans-%s.tsv" Span.log_cap w.name;
  record_line w ~seed ~nproc ~passes:(List.length rounds)
    ~wall:(median (List.map (fun (_, _, wall, _) -> secs wall) rounds))
    ~cpu:(median (List.map (fun (_, _, _, u) -> u.cpu_s) rounds));
  print_result ~correct:(ok && equivalent) ~attempted:first.attempted ~failed:first.failed
    metrics

let () =
  let workload = ref "" and seed = ref 42 and seconds = ref 10 and trace = ref 0 in
  let nproc = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME one of the workloads");
      ("--seed", Arg.Set_int seed, "N workload seed (default 42)");
      ("--seconds", Arg.Set_int seconds, "S how long to measure (default 10)");
      ("--trace", Arg.Set_int trace, "0|1 per-layer traced run (default 0)");
      ("--nproc", Arg.Set_int nproc, "N processors available, for the run record");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]";
  match List.find_opt (fun w -> w.name = !workload) workloads with
  | None ->
    Printf.eprintf "perfbench: unknown workload %S (have: %s)\n" !workload
      (String.concat ", " (List.map (fun w -> w.name) workloads));
    exit 2
  | Some w ->
    let seconds = float_of_int !seconds in
    if !trace = 0 then run_untraced w ~seed:!seed ~seconds ~nproc:!nproc
    else run_traced w ~seed:!seed ~seconds ~nproc:!nproc
