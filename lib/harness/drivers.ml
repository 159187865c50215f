(* Shared machinery for the experiment harness: the composition
   catalogue and the audit policy every run is held to ([recheck]), one
   §6.1 workload driver over any stack composition ([run_stack]), the
   standalone Lamport-timestamp order ([run_timestamp]), the
   PC-broadcast churn driver ([run_pc]) and the spec-derived object
   driver ([run_object]). *)

module Engine = Causalb_sim.Engine
module Latency = Causalb_sim.Latency
module Net = Causalb_net.Net
module Group = Causalb_core.Group
module Osend = Causalb_core.Osend
module Asend = Causalb_core.Asend
module Message = Causalb_core.Message
module Label = Causalb_graph.Label
module Dt = Causalb_data.Datatypes
module Op = Causalb_data.Op
module Seq_spec = Causalb_data.Seq_spec
module Service = Causalb_data.Service
module Objects = Causalb_data.Objects
module Replica = Causalb_data.Replica
module Stats = Causalb_util.Stats
module Rng = Causalb_util.Rng

let default_latency = Latency.lognormal ~mu:0.5 ~sigma:1.0 ()

(* How commutative and non-commutative operations interleave: [Random p]
   draws each op commutative with probability [p]; [Fixed_window k] emits
   exactly [k] commutative ops then one sync — the §6.1 cycle with f̄=k. *)
type mix = Random of float | Fixed_window of int

type workload = {
  ops : int;       (* total operations *)
  spacing : float; (* ms between submissions *)
  mix : mix;
}

(* The §6.1 operation mix on the integer register: commutative incs,
   non-commutative reads as sync points.  A closing read is appended so
   the final window always closes. *)
let op_sequence rng w =
  let body =
    match w.mix with
    | Random p ->
      List.init w.ops (fun _ ->
          if Rng.bernoulli rng p then Dt.Int_register.Inc 1
          else Dt.Int_register.Read)
    | Fixed_window k ->
      List.init w.ops (fun i ->
          if k > 0 && (i + 1) mod (k + 1) <> 0 then Dt.Int_register.Inc 1
          else Dt.Int_register.Read)
  in
  body @ [ Dt.Int_register.Read ]

(* --- the §6.1 workload over the composable ordering stack ---
   One workload, any composition: the paper's stable-point protocol is
   [Osend_stack], the ASend total orders are its merge/counted/sequencer
   tails, and the causal baselines swap the causal layer. *)

module Stack = Causalb_stack.Stack
module Metrics = Causalb_stackbase.Metrics
module Nemesis = Causalb_net.Nemesis
module Pcb = Causalb_core.Pcbcast
module Trace = Causalb_sim.Trace

type stack_spec =
  | Fifo_only
  | Bss_stack
  | Psync_stack
  | Osend_stack
  | Osend_merge
  | Osend_counted of int
  | Osend_sequencer
  | Pc_stack

let stack_spec_name = function
  | Fifo_only -> "fifo"
  | Bss_stack -> "bss"
  | Psync_stack -> "psync"
  | Osend_stack -> "osend"
  | Osend_merge -> "osend+merge"
  | Osend_counted n -> Printf.sprintf "osend+counted(%d)" n
  | Osend_sequencer -> "osend+sequencer"
  | Pc_stack -> "pc"

(* The catalogue, in report order.  A function, not a value: the
   count-merge size is the caller's. *)
let stack_specs ~counted =
  [
    Fifo_only;
    Bss_stack;
    Psync_stack;
    Osend_stack;
    Osend_merge;
    Osend_counted counted;
    Osend_sequencer;
    Pc_stack;
  ]

let stack_spec_of_string ~counted s =
  match String.lowercase_ascii s with
  | "fifo" -> Ok Fifo_only
  | "bss" -> Ok Bss_stack
  | "psync" -> Ok Psync_stack
  | "osend" -> Ok Osend_stack
  | "merge" | "osend+merge" -> Ok Osend_merge
  | "counted" | "osend+counted" -> Ok (Osend_counted counted)
  | "sequencer" | "osend+sequencer" -> Ok Osend_sequencer
  | "pc" -> Ok Pc_stack
  | _ ->
    Error
      (Printf.sprintf
         "unknown composition %S (expected \
          fifo|bss|psync|osend|merge|counted|sequencer|pc)"
         s)

let parse_specs ~counted = function
  | [] -> Ok (stack_specs ~counted)
  | names ->
    List.fold_right
      (fun s acc ->
        match (stack_spec_of_string ~counted s, acc) with
        | Ok spec, Ok rest -> Ok (spec :: rest)
        | Error e, _ -> Error e
        | _, (Error _ as e) -> e)
      names (Ok [])

(* --- the audit policy ---
   Which of the paper's guarantees each composition answers for, written
   once: [recheck] runs it, [run_stack]'s online agreement check and
   stable-point trackers read it, and causalb-check renders its checker
   column from it. *)

type checker = Fifo | Causal | Same_set | Windows | Strict_order | Stable

type arming = Always | Complete

type membership = Fixed | Churned of { founders : int }

let checker_name = function
  | Fifo -> "fifo"
  | Causal -> "causal"
  | Same_set -> "same-set"
  | Windows -> "windows"
  | Strict_order -> "strict-order"
  | Stable -> "stable"

(* One row per composition, in report order (the table is in the
   interface).  [Complete] checkers need every scheduled copy to arrive:
   under loss a member legitimately never sees some messages, so the
   oracle keeps to safety — causal order, FIFO per sender over what {e
   was} delivered, and stable-point digests (a cycle only closes at
   members that saw its whole window, so closed cycles must still
   agree).  FIFO and BSS answer for per-sender order only: the front-end
   submits on schedule without waiting for delivery, so explicit R(M)
   edges between senders are not potential causality.  PC keeps FIFO
   per origin unconditionally (gaps park, they never skip) but promises
   causal order only over reliable links.  Under churn the causal pass
   reads the founders' view ([founders_view]). *)
let audit_policy spec membership =
  match (membership, spec) with
  | Churned _, _ -> [ (Fifo, Always); (Causal, Complete) ]
  | Fixed, (Fifo_only | Bss_stack) -> [ (Fifo, Always); (Same_set, Complete) ]
  | Fixed, Pc_stack ->
    [ (Fifo, Always); (Causal, Complete); (Same_set, Complete) ]
  | Fixed, Psync_stack -> [ (Causal, Always); (Same_set, Complete) ]
  | Fixed, Osend_stack ->
    [ (Causal, Always); (Windows, Complete); (Stable, Always) ]
  | Fixed, (Osend_merge | Osend_counted _ | Osend_sequencer) ->
    [ (Causal, Always); (Strict_order, Complete); (Stable, Always) ]

(* Everything the offline ordering oracle needs to audit one run: the
   trace, the dependency graph the delivery order is checked against
   (extracted from member 0 when the causal layer builds one, else the
   graph the front-end intended), the synchronization points, the
   membership view, and the verdicts. *)
type stack_audit = {
  trace : Causalb_sim.Trace.t;
  graph : Causalb_graph.Depgraph.t;
  sync : Label.Set.t;
  membership : membership;
  diagnostics : Causalb_check.Diag.t list;
  lint : Causalb_check.Spec_lint.issue list;
  static : Causalb_check.Diag.t list;
      (* static-verifier issues (guarantee lattice + race lint) *)
}

type stack_result = {
  delivery : Stats.t;   (* submit -> app release *)
  stability : Stats.t;  (* submit -> enclosing stable point (OSend only) *)
  messages : int;
  lost : int;           (* copies dropped by partition + injected loss *)
  buffered : int;       (* causal-layer forced waits across members *)
  cycles : int;         (* stable points closed at member 0 (OSend only) *)
  edges : int;          (* edges in member 0's extracted R(M) *)
  layers : Metrics.t list;
  checks_ok : bool;
  sim_time : float;
  audit : stack_audit option;  (* present under [~check:true] *)
}

(* The §6.1 classification, read off the register's spec: its Ncid
   operations close a cycle and a merge bracket. *)
let is_sync m =
  Seq_spec.kind Dt.Int_register.spec (Message.payload m) = Op.Non_commutative

let stack_params spec =
  match spec with
  | Fifo_only -> (Stack.Fifo, Stack.Pass)
  | Bss_stack -> (Stack.Bss, Stack.Pass)
  | Psync_stack -> (Stack.Psync, Stack.Pass)
  | Osend_stack -> (Stack.Osend, Stack.Pass)
  | Osend_merge -> (Stack.Osend, Stack.Merge is_sync)
  | Osend_counted n -> (Stack.Osend, Stack.Counted n)
  | Osend_sequencer -> (Stack.Osend, Stack.Sequencer { node = 0 })
  | Pc_stack -> (Stack.Pc, Stack.Pass)

(* The transport each composition runs over.  The §6.1 workload runs on
   raw datagram links ([fifo = false]) so the ordering work is visible in
   the causal layer; PC-broadcast is the exception — its causal order IS
   the per-link FIFO order, so it gets (and declares that it requires)
   FIFO links. *)
let transport_fifo_of = function
  | Pc_stack -> true
  | Fifo_only | Bss_stack | Psync_stack | Osend_stack | Osend_merge
  | Osend_counted _ | Osend_sequencer ->
    false

(* --- the static consistency verifier over the stack driver --- *)

module Guarantee = Causalb_stackbase.Guarantee
module Stack_verify = Causalb_analysis.Stack_verify
module Race_lint = Causalb_analysis.Race_lint
module Analysis_workload = Causalb_analysis.Workload

(* What each composition promises the application.  FIFO-only and BSS are
   deliberate under-ordered baselines: the dynamic oracle holds them to
   per-sender order and same-set delivery only, so they claim [Fifo] (BSS
   does enforce *potential* causality, but the harness front-end submits
   on schedule without waiting for delivery, so explicit R(M) edges
   between different senders are not potential causality — see
   [Stack_verify]).  The explicit-graph engines claim [Causal]; the
   total-order tails claim [Causal_total]. *)
let claim_of = function
  | Fifo_only | Bss_stack -> Guarantee.Fifo
  | Psync_stack | Osend_stack | Pc_stack -> Guarantee.Causal
  | Osend_merge | Osend_counted _ | Osend_sequencer -> Guarantee.Causal_total

(* The workload intent: the §6.1 Window bookkeeping over the op list,
   with the per-origin label numbering the stack assigns.  [run_stack]
   builds it once, before execution, and submits from it; under
   [~check] the race lint analyses it, the spec lint lints its graph
   (both over one reachability index), and it is the audit graph of the
   compositions whose causal layer extracts no R(M). *)
let intent_of_ops ~replicas ops =
  Analysis_workload.of_ops ~spec:Dt.Int_register.spec
    ~src:(fun i -> i mod replicas)
    ops

type static_report = {
  static_spec : stack_spec;
  claim : Guarantee.t;
  verify : Stack_verify.report;
  races : Race_lint.race list;
  demand : Guarantee.t;
  static_diags : Causalb_check.Diag.t list;
}

let static_ok r = r.static_diags = []

let static_of_intent ?reach spec intent =
  let ordering, total = stack_params spec in
  let claim = claim_of spec in
  let verify =
    Stack_verify.verify ~claim
      (Stack_verify.layers_of ~ordering ~total ~fifo:(transport_fifo_of spec))
  in
  let lint = Race_lint.analyse ?reach ~top:verify.Stack_verify.top intent in
  (* The race lint holds a composition to what it claims: under-ordered
     baselines (claim < Causal) are exempt — their pairs are audited
     dynamically against the weaker fifo/same-set oracle instead. *)
  let races =
    if Guarantee.leq Guarantee.Causal claim then lint.Race_lint.races else []
  in
  {
    static_spec = spec;
    claim;
    verify;
    races;
    demand = lint.Race_lint.demand;
    static_diags = Stack_verify.to_diags verify @ Race_lint.to_diags races;
  }

let static_audit ?(seed = 42) ?(latency = default_latency) ~replicas spec w =
  (* Build (but do not run) the exact engine + stack [run_stack] would:
     composition forks the engine RNG, so only an identical prelude makes
     the op-sequence fork draw the same stream under [Random p]. *)
  let engine = Engine.create ~seed () in
  let ordering, total = stack_params spec in
  let (_ : Dt.Int_register.op Stack.t) =
    Stack.compose ~ordering ~total ~latency ~fifo:(transport_fifo_of spec)
      engine ~nodes:replicas ()
  in
  let rng = Engine.fork_rng engine in
  static_of_intent spec (intent_of_ops ~replicas (op_sequence rng w))

(* The trace restricted to the founding members — the view the causal
   pass audits under churn. *)
let founders_view trace ~founders =
  let t = Trace.create () in
  Trace.iter trace (fun r ->
      if r.Trace.node < founders then
        Trace.record t ~time:r.Trace.time ~node:r.Trace.node ~kind:r.Trace.kind
          ~tag:r.Trace.tag ~info:r.Trace.info ());
  t

(* The one oracle entry: run the policy's row for this composition and
   membership over one index of the trace (the causal pass under churn
   reads its own index of the founders' view).  Shared by every driver
   and by the campaign's planted re-audits, so the plant path can never
   drift from the gating the hunt enforces. *)
let recheck spec ~lost (a : stack_audit) =
  let module C = Causalb_check.Trace_check in
  let ix = C.index ~graph:a.graph a.trace in
  let none = Label.Set.empty in
  let run = function
    | Fifo -> C.check_fifo ix
    | Causal -> (
      match a.membership with
      | Fixed -> C.check_causal ix
      | Churned { founders } ->
        C.check_causal
          (C.index ~graph:a.graph (founders_view a.trace ~founders)))
    | Same_set -> C.check_total_order ~sync:none ix
    | Windows -> C.check_total_order ~sync:a.sync ix
    | Strict_order -> C.check_total_order ~strict:true ~sync:none ix
    | Stable -> C.check_stable_points ix
  in
  List.concat_map
    (fun (checker, arming) ->
      if arming = Always || lost = 0 then run checker else [])
    (audit_policy spec a.membership)

let run_stack ?(seed = 42) ?(latency = default_latency) ?(check = false)
    ?nemesis ~replicas spec w : stack_result =
  let engine = Engine.create ~seed () in
  let ordering, total = stack_params spec in
  let policy = audit_policy spec Fixed in
  (* Submit times keyed by op name: names survive even when the label is
     allocated later (sequencer). *)
  let issue = Hashtbl.create 256 in
  let since_submit stats now label =
    match Hashtbl.find_opt issue (Label.name label) with
    | Some t0 -> Stats.add stats (now -. t0)
    | None -> ()
  in
  let lat = Stats.create () in
  let stability = Stats.create () in
  let trace = if check then Some (Causalb_sim.Trace.create ()) else None in
  (* Stable-point trackers, one per member, fed the application release
     sequence.  When a cycle closes, every op in it (window + closing
     sync) has just become part of an agreed value: record
     submit->stable.  Traced runs also leave a [Mark] record whose digest
     covers the window set and the closing sync, for the offline
     stable-point checker to compare across members.  Only attached where
     the policy audits stable points: the OSend compositions, whose causal
     layer enforces the §6.1 dependency pattern (under FIFO/BSS a sync
     can overtake its window, so cycles are not stable points there). *)
  let module Sp = Causalb_core.Stable_points in
  let trackers =
    if not (List.mem_assoc Stable policy) then None
    else
      Some
        (Array.init replicas (fun node ->
             let on_stable (p : _ Sp.point) =
               let now = Engine.now engine in
               let closed_by = Message.label p.Sp.closed_by in
               List.iter
                 (fun m -> since_submit stability now (Message.label m))
                 p.Sp.window;
               since_submit stability now closed_by;
               match trace with
               | None -> ()
               | Some tr ->
                 let window =
                   List.sort compare
                     (List.map
                        (fun m -> Label.to_string (Message.label m))
                        p.Sp.window)
                 in
                 let digest =
                   Hashtbl.hash (window, Label.to_string closed_by)
                 in
                 Trace.stable_mark tr ~time:now ~node ~cycle:p.Sp.cycle
                   ~digest
             in
             Sp.create ~is_sync ~on_stable))
  in
  let on_deliver ~node ~time msg =
    (match trackers with
    | Some ts -> Sp.on_deliver ts.(node) msg
    | None -> ());
    since_submit lat time (Message.label msg)
  in
  let stack =
    Stack.compose ~ordering ~total ~latency ~fifo:(transport_fifo_of spec)
      ?trace ~on_deliver engine ~nodes:replicas ()
  in
  (* The submission plan: the §6.1 intent of the op sequence, built once
     before execution.  Operation [i] goes out from its intended label's
     origin, under that label's name, with the intended predicate, so
     the intent is what the run submits.  Layers that infer their own
     ordering ignore the predicate. *)
  let ops = op_sequence (Engine.fork_rng engine) w in
  let intent = intent_of_ops ~replicas ops in
  (* Static passes BEFORE execution.  The guarantee-lattice verifier is
     O(layers) and always runs; the causal-race lint (O(ops²) pairs) and
     the spec lint read the intent only when the oracle is on, over one
     reachability index.  Issues go to stderr and fail [checks_ok]; the
     run goes ahead. *)
  let reach =
    if check then
      Some (Causalb_graph.Depgraph.reach intent.Analysis_workload.graph)
    else None
  in
  let static_diags =
    match reach with
    | Some reach -> (static_of_intent ~reach spec intent).static_diags
    | None ->
      Stack_verify.to_diags
        (Stack_verify.verify ~claim:(claim_of spec)
           (Stack_verify.layers_of ~ordering ~total
              ~fifo:(transport_fifo_of spec)))
  in
  if static_diags <> [] then
    Format.eprintf "@[<v>causalb: static verifier: %d issue(s) in %s:@,%a@]@."
      (List.length static_diags) (stack_spec_name spec)
      Causalb_check.Diag.pp_list static_diags;
  (* Arm the nemesis before the workload: an action and a submission
     scheduled at the same virtual instant fire nemesis-first, so a
     fault phase covers the ops whose times it spans. *)
  (match nemesis with
  | Some schedule -> Stack.install_nemesis stack schedule
  | None -> ());
  let sites = Array.of_list intent.Analysis_workload.sites in
  let submit i op =
    let label = sites.(i).Analysis_workload.label in
    let name = Label.name label in
    Hashtbl.replace issue name (Engine.now engine);
    ignore
      (Stack.submit stack ~src:(Label.origin label) ~name
         ~dep:intent.Analysis_workload.deps.(i) op)
  in
  List.iteri
    (fun i op ->
      Engine.schedule_at engine ~time:(float_of_int i *. w.spacing)
        (fun () -> submit i op))
    ops;
  Stack.run stack;
  let lost = Stack.lost_copies stack in
  let orders = Stack.all_delivered_orders stack in
  (* The online agreement check, armed as the policy's completeness-
     dependent checkers are: identical release sequences where the row
     holds the composition to a strict order, the same delivered set
     otherwise. *)
  let checks_ok =
    lost > 0
    ||
    if List.mem_assoc Strict_order policy then
      Causalb_core.Checker.identical_orders orders
    else Causalb_core.Checker.same_set orders
  in
  let layers = Stack.metrics stack in
  (* the rows run bottom-up: transport, causal, then any total layer *)
  let buffered =
    match layers with
    | _transport :: causal :: _ -> causal.Metrics.forced_waits
    | _ -> 0
  in
  (* The offline oracle: the policy's row, against the graph member 0
     extracted from the messages themselves where the causal layer builds
     one, else against the intent's. *)
  let extracted = Stack.graph stack in
  let audit =
    match (trace, reach) with
    | Some tr, Some reach ->
      let intended = intent.Analysis_workload.graph in
      let a =
        {
          trace = tr;
          graph = Option.value extracted ~default:intended;
          sync = intent.Analysis_workload.sync;
          membership = Fixed;
          diagnostics = [];
          lint = Causalb_check.Spec_lint.lint ~reach intended;
          static = static_diags;
        }
      in
      Some { a with diagnostics = recheck spec ~lost a }
    | _ -> None
  in
  let checks_ok =
    checks_ok && static_diags = []
    &&
    match audit with
    | None -> true
    | Some a -> a.diagnostics = [] && a.lint = []
  in
  {
    delivery = lat;
    stability;
    messages = Stack.messages_sent stack;
    lost;
    buffered;
    cycles =
      (match trackers with Some ts -> Sp.cycles_closed ts.(0) | None -> 0);
    edges =
      (match extracted with
      | Some g -> List.length (Causalb_graph.Depgraph.edges g)
      | None -> 0);
    layers;
    checks_ok;
    sim_time = Engine.now engine;
    audit;
  }

(* --- decentralised Lamport-timestamp total order ---
   Not a stack layer: the protocol owns its per-link FIFO transport and
   its n² acknowledgements.  It reports in the stack driver's terms —
   no causal layer, no stable points, no dependency graph. *)

let run_timestamp ?(seed = 42) ?(latency = default_latency) ~replicas w =
  let engine = Engine.create ~seed () in
  let net = Net.create engine ~nodes:replicas ~latency ~fifo:true () in
  let issue_times = Hashtbl.create 256 in
  let lat = Stats.create () in
  let ts =
    Asend.Timestamp.create net
      ~on_deliver:(fun ~node:_ ~time ~tag _ ->
        match Hashtbl.find_opt issue_times tag with
        | Some t0 -> Stats.add lat (time -. t0)
        | None -> ())
      ()
  in
  let total = w.ops + 1 in
  for i = 0 to total - 1 do
    Engine.schedule_at engine ~time:(float_of_int i *. w.spacing) (fun () ->
        let tag = string_of_int i in
        Hashtbl.replace issue_times tag (Engine.now engine);
        Asend.Timestamp.bcast ts ~src:(i mod replicas) ~tag i)
  done;
  Engine.run engine;
  let orders = List.init replicas (Asend.Timestamp.delivered_tags ts) in
  {
    delivery = lat;
    stability = Stats.create ();
    messages = Net.messages_sent net;
    lost = Net.lost_copies net;
    buffered = 0;
    cycles = 0;
    edges = 0;
    layers = [];
    checks_ok = List.for_all (fun o -> o = List.hd orders) orders;
    sim_time = Engine.now engine;
    audit = None;
  }

(* --- the PC-broadcast churn driver ---
   The dynamic-membership path [run_stack] cannot exercise (stacks have
   fixed membership): a Pcbcast.Group over FIFO links, a nemesis that
   may join/leave members mid-run, ops submitted round-robin over
   whoever is alive at fire time, every causal delivery traced, and the
   offline oracle over the extracted R(M) and the founders' view. *)

type pc_result = {
  pc_delivered : int;       (* causal deliveries across members ever *)
  pc_messages : int;
  pc_lost : int;            (* partition + injected-loss drops *)
  pc_departure_drops : int; (* harmless to survivors, see Net *)
  pc_joined : int list;     (* ids the nemesis added, join order *)
  pc_left : int list;       (* ids the nemesis removed, leave order *)
  pc_members : int;         (* members ever: founders + joiners *)
  pc_audit : stack_audit;
  pc_checks_ok : bool;
  pc_sim_time : float;
}

let run_pc ?(seed = 42) ?(latency = default_latency) ?nemesis ~replicas w =
  let engine = Engine.create ~seed () in
  let trace = Trace.create () in
  (* PC-broadcast is only sound over per-link FIFO *)
  let net = Net.create engine ~nodes:replicas ~latency ~fifo:true ~trace () in
  let g =
    Pcb.Group.create net
      ~on_causal:(fun ~node ~label ->
        (* every causal delivery — π_lock barriers and Joined
           retro-disseminations included — so the offline checkers audit
           the full delivery order, not just the app-visible part *)
        Trace.record trace ~time:(Engine.now engine) ~node
          ~kind:Trace.Deliver ~tag:(Label.to_string label) ())
      ()
  in
  let joined = ref [] and left = ref [] in
  (match nemesis with
  | None -> ()
  | Some schedule ->
    Nemesis.install ~engine
      ~partition:(fun cells -> Net.partition net cells)
      ~heal:(fun () -> Net.heal net)
      ~set_fault:(fun f -> Net.set_fault net f)
      ~join:(fun ~contact ->
        (* a shrunk schedule may name a departed contact; re-route to
           the oldest survivor so the event stays meaningful *)
        let contact =
          if Pcb.Group.is_alive g contact then contact
          else
            match Pcb.Group.alive g with c :: _ -> c | [] -> contact
        in
        if Pcb.Group.is_alive g contact then
          joined := Pcb.Group.join g ~contact :: !joined)
      ~leave:(fun node ->
        (* keep member 0 (the schedule generator's anchor) and at least
           two members alive, and ignore double-leaves — the contract
           Nemesis.Leave documents *)
        if
          node <> 0
          && Pcb.Group.is_alive g node
          && List.length (Pcb.Group.alive g) > 2
        then begin
          Pcb.Group.leave g node;
          left := node :: !left
        end)
      schedule);
  (* Round-robin over whoever is alive at fire time: churn reshapes the
     submission pattern deterministically (nemesis events at the same
     instant fire first — they were armed first). *)
  let total = w.ops + 1 in
  for i = 0 to total - 1 do
    Engine.schedule_at engine ~time:(float_of_int i *. w.spacing) (fun () ->
        match Pcb.Group.alive g with
        | [] -> ()
        | al ->
          let src = List.nth al (i mod List.length al) in
          ignore (Pcb.Group.bcast g ~src ~tag:(Printf.sprintf "op%d" i) i))
  done;
  Engine.run engine;
  let faulty = Net.dropped_by_partition net + Net.dropped_by_loss net in
  let audit =
    {
      trace;
      graph = Pcb.Group.graph g;
      sync = Label.Set.empty;
      membership = Churned { founders = replicas };
      diagnostics = [];
      lint = [];
      static = [];
    }
  in
  let diagnostics = recheck Pc_stack ~lost:faulty audit in
  let delivered =
    List.init (Pcb.Group.size g) (fun i ->
        Pcb.delivered_count (Pcb.Group.member g i))
    |> List.fold_left ( + ) 0
  in
  {
    pc_delivered = delivered;
    pc_messages = Net.messages_sent net;
    pc_lost = faulty;
    pc_departure_drops = Net.dropped_by_departure net;
    pc_joined = List.rev !joined;
    pc_left = List.rev !left;
    pc_members = Pcb.Group.size g;
    pc_audit = { audit with diagnostics };
    pc_checks_ok = diagnostics = [];
    pc_sim_time = Engine.now engine;
  }

(* --- spec-derived objects over the stable-point service ---
   One replicated object (any sequential spec), a timed submission
   schedule, and the full evidence chain: Service.check online, plus the
   offline oracle over the trace (causal safety against member 0's
   extracted graph, stable-point digest agreement from the Mark
   records). *)

type object_result = {
  checks : (string * bool) list;     (* Service.check verdicts *)
  diagnostics : Causalb_check.Diag.t list; (* offline oracle violations *)
  trace : Causalb_sim.Trace.t;
  cycles : int;                      (* closed §6.1 cycles at member 0 *)
  stable_marks : int;                (* Mark records across all members *)
  messages : int;
  sim_time : float;
}

let object_ok r =
  List.for_all snd r.checks && r.diagnostics = []

let run_object ?(seed = 42) ?(latency = default_latency) ~replicas ~spec
    submissions =
  let engine = Engine.create ~seed () in
  let trace = Causalb_sim.Trace.create () in
  let svc = Service.create engine ~replicas ~spec ~latency ~fifo:false ~trace () in
  List.iter
    (fun (time, src, op) ->
      Engine.schedule_at engine ~time (fun () ->
          ignore (Service.submit svc ~src op)))
    submissions;
  Service.run svc;
  let graph = Osend.graph (Group.member (Service.group svc) 0) in
  let module C = Causalb_check.Trace_check in
  let ix = C.index ~graph trace in
  let diagnostics = C.check_causal ix @ C.check_stable_points ix in
  let stable_marks = ref 0 in
  Causalb_sim.Trace.iter trace (fun r ->
      if r.Causalb_sim.Trace.kind = Causalb_sim.Trace.Mark then
        incr stable_marks);
  {
    checks = Service.check svc;
    diagnostics;
    trace;
    cycles = Replica.cycles_closed (Service.replica svc 0);
    stable_marks = !stable_marks;
    messages = Service.messages_sent svc;
    sim_time = Engine.now engine;
  }

(* Deterministic object workloads, shared by the bench experiments and
   the causalb-check CLI so both audit the very same runs.  Times and
   sources are pure functions of (seed, sizes). *)

let counter_pipeline ?(seed = 11) ~replicas ~rounds ~window () =
  let rng = Rng.create seed in
  let ops = ref [] in
  let t = ref 0.0 in
  let push src op =
    ops := (!t, src, op) :: !ops;
    t := !t +. 1.5
  in
  for _ = 1 to rounds do
    for _ = 1 to window do
      push (Rng.int rng replicas) (Objects.Counter.Add (1 + Rng.int rng 9))
    done;
    push (Rng.int rng replicas) Objects.Counter.Value
  done;
  List.rev !ops

let cart_items = [| "book"; "pen"; "mug"; "lamp"; "cable" |]

let cart_workload ?(seed = 12) ~replicas ~rounds ~window () =
  let rng = Rng.create seed in
  let tag = ref 0 in
  let ops = ref [] in
  let t = ref 0.0 in
  let push src op =
    ops := (!t, src, op) :: !ops;
    t := !t +. 1.5
  in
  for _ = 1 to rounds do
    (* a window of concurrent adds from every shopper … *)
    for _ = 1 to window do
      incr tag;
      push (Rng.int rng replicas)
        (Objects.Or_set.Add (Rng.pick rng cart_items, !tag))
    done;
    (* … closed by an observed-remove (a sync point: it erases exactly
       the tags it has seen) or a checkout read *)
    if Rng.bool rng then
      push (Rng.int rng replicas) (Objects.Or_set.Remove (Rng.pick rng cart_items))
    else push (Rng.int rng replicas) Objects.Or_set.Elements
  done;
  List.rev !ops

let editing_workload ?(seed = 13) ~replicas ~rounds ~window () =
  let rng = Rng.create seed in
  let ops = ref [] in
  let t = ref 0.0 in
  let push src op =
    ops := (!t, src, op) :: !ops;
    t := !t +. 1.5
  in
  (* each author types after its own last character; concurrent authors'
     runs interleave by the RGA order at read time *)
  let cursor = Array.make replicas None in
  let next_seq = ref 0 in
  let live = ref [] in
  for _ = 1 to rounds do
    for _ = 1 to window do
      let src = Rng.int rng replicas in
      if (not (!live = [])) && Rng.int rng 10 = 0 then begin
        (* an occasional deletion — still a Cid op for RGA *)
        let id = Rng.pick_list rng !live in
        live := List.filter (fun i -> i <> id) !live;
        push src (Objects.Rga.Delete id)
      end
      else begin
        incr next_seq;
        let id = (!next_seq, src) in
        let ch = String.make 1 (Char.chr (97 + Rng.int rng 26)) in
        push src (Objects.Rga.Insert { id; after = cursor.(src); ch });
        cursor.(src) <- Some id;
        live := id :: !live
      end
    done;
    push (Rng.int rng replicas) Objects.Rga.Read
  done;
  List.rev !ops

let p50 s = Stats.percentile s 50.0

let p95 s = Stats.percentile s 95.0

let fmt = Causalb_util.Table.fmt_float ~digits:2
