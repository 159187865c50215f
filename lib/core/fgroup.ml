(* Framed group wrappers: the encode-once/decode-many delivery path.

   The plain Group/Bss.Group/Psync wrappers hand the in-memory message
   value to Net and every recipient shares the pointer — free, but it
   measures nothing about serialization, and a real transport pays an
   encode per message and (naively) a decode per recipient.  These
   wrappers put the codec on the path the way the Beehive
   hardware-broadcast idiom does: the sender stamps once and encodes
   once (pooled writer), Net.bcast fans the one immutable frame out to
   every recipient, and the recipients decode a *shared* view — first
   toucher decodes, the rest reuse — so the per-recipient cost is a
   pointer, like the plain path, while the per-message cost is one real
   encode + one real decode, all of it measured:

   - Net.bytes_sent counts real frame lengths (Net.bcast ~size), and
   - each member's Metrics.wire_bytes counts frame length per received
     copy, so Metrics.bytes_per_delivery is the §6.1 metadata cost per
     delivery (cf. Nédelec et al. on causal-broadcast metadata).

   Determinism: Net.bcast is broadcast's own copy loop, so a framed
   group makes exactly the RNG draws the plain group makes for the same
   workload — delivered orders must be identical envelope-for-envelope,
   which test/test_wire.ml asserts against the plain groups and (through
   them) the frozen lib/reference oracle. *)

module Net = Causalb_net.Net
module Engine = Causalb_sim.Engine
module Label = Causalb_graph.Label
module Dep = Causalb_graph.Dep
module Metrics = Causalb_stackbase.Metrics
module Sgroup = Causalb_stackbase.Sgroup
module Wire = Causalb_util.Wire
module Depgraph = Causalb_graph.Depgraph
module B = Bss
module O = Osend
module P = Pcbcast

(* Per-copy byte charge, split into control/payload when the producer
   measured the boundary ([Codec.encode_split]); the sum always lands in
   [wire_bytes] either way. *)
let charge metrics fr =
  let len = Wire.length fr.Codec.frame in
  match fr.Codec.payload_bytes with
  | None -> Metrics.on_wire metrics len
  | Some payload ->
    Metrics.on_wire_split metrics ~control:(len - payload) ~payload

(* --- framed BSS: vector-stamped causal broadcast over frames --- *)

module Bss = struct
  type 'a t = {
    sg : ('a B.member, 'a B.envelope Codec.framed) Sgroup.t;
    pool : Wire.pool;
    put_payload : 'a B.envelope Codec.enc;
  }

  let create net ~enc ~dec ?(on_deliver = fun ~node:_ ~time:_ _ -> ()) () =
    let n = Net.nodes net in
    let engine = Net.engine net in
    let get = Codec.get_envelope dec in
    let sg =
      Sgroup.create net
        ~member:(fun node ->
          let deliver e = on_deliver ~node ~time:(Engine.now engine) e in
          B.member ~id:node ~group_size:n ~deliver ())
        ~receive:(fun m fr ->
          charge (B.metrics m) fr;
          B.receive m (Codec.view fr ~dec:get))
    in
    { sg;
      pool = Wire.pool ();
      put_payload = (fun w e -> enc w e.B.payload) }

  let size t = Sgroup.size t.sg

  let member t i = Sgroup.member t.sg i

  let bcast t ~src ?tag payload =
    let e = B.next_envelope (Sgroup.member t.sg src) ?tag payload in
    let frame, span =
      Codec.encode_split t.pool ~header:Codec.put_envelope_header
        ~payload:t.put_payload e
    in
    Net.bcast (Sgroup.net t.sg) ~src ~size:(Wire.length frame)
      (Codec.framed ~payload_bytes:span frame)

  let delivered_tags t i = B.delivered_tags (Sgroup.member t.sg i)

  let metrics t i = B.metrics (Sgroup.member t.sg i)

  let wire_bytes t =
    Sgroup.fold (fun acc m -> acc + (B.metrics m).Metrics.wire_bytes) 0 t.sg
end

(* --- framed OSend: explicit-dependency broadcast over frames --- *)

module Osend = struct
  type 'a t = {
    sg : ('a O.t, 'a Message.t Codec.framed) Sgroup.t;
    seqs : int array;
    pool : Wire.pool;
    put_payload : 'a Message.t Codec.enc;
  }

  let create net ~enc ~dec ?(on_deliver = fun ~node:_ ~time:_ _ -> ()) () =
    let engine = Net.engine net in
    let get = Codec.get_message dec in
    let sg =
      Sgroup.create net
        ~member:(fun node ->
          let deliver msg = on_deliver ~node ~time:(Engine.now engine) msg in
          O.create ~id:node ~deliver ())
        ~receive:(fun m fr ->
          charge (O.metrics m) fr;
          O.receive m (Codec.view fr ~dec:get))
    in
    { sg; seqs = Array.make (Net.nodes net) 0; pool = Wire.pool ();
      put_payload = (fun w m -> enc w (Message.payload m)) }

  let size t = Sgroup.size t.sg

  let member t i = Sgroup.member t.sg i

  let osend t ~src ?name ~dep payload =
    let seq = t.seqs.(src) in
    t.seqs.(src) <- seq + 1;
    let label = Label.make ?name ~origin:src ~seq () in
    let msg = Message.make ~label ~sender:src ~dep payload in
    let frame, span =
      Codec.encode_split t.pool ~header:Codec.put_message_header
        ~payload:t.put_payload msg
    in
    (* self copy rides the frame too (plain Group broadcasts with
       [self = true]): the sender decodes its own stamp back, proving
       the codec on every delivered message, not just remote ones *)
    Net.bcast (Sgroup.net t.sg) ~src ~size:(Wire.length frame)
      (Codec.framed ~payload_bytes:span frame);
    label

  let delivered_order t i = O.delivered_order (Sgroup.member t.sg i)

  let all_delivered_orders t =
    List.init (size t) (fun i -> delivered_order t i)

  let metrics t i = O.metrics (Sgroup.member t.sg i)

  let wire_bytes t =
    Sgroup.fold (fun acc m -> acc + (O.metrics m).Metrics.wire_bytes) 0 t.sg
end

(* --- framed Psync: conversation-context broadcast over frames --- *)

module Psync = struct
  type 'a member = {
    id : int;
    engine_member : 'a O.t;
    mutable leaves : Label.Set.t;
  }

  type 'a t = {
    sg : ('a member, 'a Message.t Codec.framed) Sgroup.t;
    seqs : int array;
    pool : Wire.pool;
    put_payload : 'a Message.t Codec.enc;
  }

  (* Identical context rule to the plain Psync: leaves of *received*
     messages form the next send's dependency. *)
  let note_received m msg =
    let ancestors = Dep.ancestors (Message.dep msg) in
    m.leaves <-
      Label.Set.add (Message.label msg)
        (List.fold_left
           (fun acc a -> Label.Set.remove a acc)
           m.leaves ancestors)

  let create net ~enc ~dec ?(on_deliver = fun ~node:_ ~time:_ _ -> ()) () =
    let engine = Net.engine net in
    let get = Codec.get_message dec in
    let sg =
      Sgroup.create net
        ~member:(fun id ->
          let deliver msg = on_deliver ~node:id ~time:(Engine.now engine) msg in
          { id; engine_member = O.create ~id ~deliver (); leaves = Label.Set.empty })
        ~receive:(fun m fr ->
          charge (O.metrics m.engine_member) fr;
          let msg = Codec.view fr ~dec:get in
          note_received m msg;
          O.receive m.engine_member msg)
    in
    { sg; seqs = Array.make (Net.nodes net) 0; pool = Wire.pool ();
      put_payload = (fun w m -> enc w (Message.payload m)) }

  let size t = Sgroup.size t.sg

  let member t i = (Sgroup.member t.sg i).engine_member

  let send t ~src ?name payload =
    let m = Sgroup.member t.sg src in
    let seq = t.seqs.(src) in
    t.seqs.(src) <- seq + 1;
    let label = Label.make ?name ~origin:src ~seq () in
    let context = Label.Set.elements m.leaves in
    let msg =
      Message.make ~label ~sender:src ~dep:(Dep.after_all context) payload
    in
    (* local copy processes the in-memory message (as the plain Psync
       does); only the remote copies ride the frame *)
    note_received m msg;
    O.receive m.engine_member msg;
    let frame, span =
      Codec.encode_split t.pool ~header:Codec.put_message_header
        ~payload:t.put_payload msg
    in
    Net.bcast (Sgroup.net t.sg) ~src ~self:false ~size:(Wire.length frame)
      (Codec.framed ~payload_bytes:span frame);
    label

  let delivered_order t i = O.delivered_order (member t i)

  let all_delivered_orders t =
    List.init (size t) (fun i -> delivered_order t i)

  let metrics t i = O.metrics (member t i)

  let wire_bytes t =
    Sgroup.fold
      (fun acc m -> acc + (O.metrics m.engine_member).Metrics.wire_bytes)
      0 t.sg
end

(* --- framed PC-broadcast: constant-size headers over frames --- *)

(* The scaling story end to end: a broadcast encodes once (two varints
   of header, whatever the group size), every hop of the flood re-emits
   the *same* physical frame (the [~emit] closure in receive), and each
   recipient charges its control/payload split from the span the sender
   measured.  Static overlays only — the churn path runs on the plain
   [Pcbcast.Group]; here the membership is fixed so the per-send
   fallback encoder in [send] only ever carries establishment-free
   traffic (no [Lock]s fly on a static group). *)
module Pc = struct
  type 'a t = {
    sg : ('a P.member, 'a P.wire Codec.framed) Sgroup.t;
    pool : Wire.pool;
    enc : 'a Codec.enc;
    graph : Depgraph.t;
  }

  let create ?degree net ~enc ~dec
      ?(on_deliver = fun ~node:_ ~time:_ _ -> ()) () =
    let n = Net.nodes net in
    let engine = Net.engine net in
    let get = Codec.get_pc dec in
    let graph = Depgraph.create () in
    let pool = Wire.pool () in
    let sg =
      Sgroup.create_routed net
        ~member:(fun node ->
          let deliver e = on_deliver ~node ~time:(Engine.now engine) e in
          (* fallback path: anything not riding a shared frame (control
             traffic, emit-less re-sends) encodes per send *)
          let send ~dst w =
            let frame, span = Codec.encode_pc pool enc w in
            Net.send net ~src:node ~dst ~size:(Wire.length frame)
              (Codec.framed ~payload_bytes:span frame)
          in
          P.member ~id:node ~send ~deliver ~graph ())
        ~receive:(fun m ~src fr ->
          charge (P.metrics m) fr;
          let w = Codec.view fr ~dec:get in
          (* most flooded copies are duplicates: drop those before
             building the forwarding closure *)
          if not (P.discard m ~src w) then
            (* flooding forwards this exact physical frame: no
               re-encode, and downstream recipients share the memoized
               view too *)
            P.receive m ~src w ~emit:(fun ~dst ->
                Net.send net ~src:(P.member_id m) ~dst
                  ~size:(Wire.length fr.Codec.frame) fr))
    in
    Array.iter (fun m -> P.init_static m ~n ~degree) (Sgroup.members sg);
    { sg; pool; enc; graph }

  let size t = Sgroup.size t.sg

  let member t i = Sgroup.member t.sg i

  let graph t = t.graph

  let bcast t ~src ?tag payload =
    let m = Sgroup.member t.sg src in
    let e, label = P.next_envelope m ?tag payload in
    let frame, span = Codec.encode_pc t.pool t.enc (P.Env e) in
    let fr = Codec.framed ~payload_bytes:span frame in
    let net = Sgroup.net t.sg in
    let size = Wire.length frame in
    P.publish m e ~emit:(fun ~dst -> Net.send net ~src ~dst ~size fr);
    label

  let delivered_tags t i = P.delivered_tags (Sgroup.member t.sg i)

  let metrics t i = P.metrics (Sgroup.member t.sg i)

  let wire_bytes t =
    Sgroup.fold (fun acc m -> acc + (P.metrics m).Metrics.wire_bytes) 0 t.sg
end
