(* Framed group wrappers: the encode-once/decode-many delivery path.

   The plain Bss.Group/Pcbcast.Group wrappers hand the in-memory message
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
module Metrics = Causalb_stackbase.Metrics
module Sgroup = Causalb_stackbase.Sgroup
module Wire = Causalb_util.Wire
module B = Bss
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

  let metrics t i = B.metrics (Sgroup.member t.sg i)

  let wire_bytes t =
    Sgroup.fold (fun acc m -> acc + (B.metrics m).Metrics.wire_bytes) 0 t.sg
end

(* --- framed PC-broadcast: constant-size headers over frames --- *)

(* The scaling story end to end: a broadcast encodes once (two varints
   of header, whatever the group size), every hop of the flood re-emits
   the *same* physical frame (the [~emit] closure in receive), and each
   recipient charges its control/payload split from the span the sender
   measured.  Static overlays only — the churn path runs on the plain
   [Pcbcast.Group]; here the membership is fixed so the per-send
   fallback encoder in [send] only ever carries establishment-free
   traffic (no [Lock]s fly on a static group).  Unaudited: the members
   get no [graph], so none keeps a causality context per delivery (the
   audited PC runs go through [Pcbcast.Group]). *)
module Pc = struct
  type 'a t = {
    sg : ('a P.member, 'a P.wire Codec.framed) Sgroup.t;
    pool : Wire.pool;
    enc : 'a Codec.enc;
  }

  let create ?degree net ~enc ~dec
      ?(on_deliver = fun ~node:_ ~time:_ _ -> ()) () =
    let n = Net.nodes net in
    let engine = Net.engine net in
    let get = Codec.get_pc dec in
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
          P.member ~id:node ~send ~deliver ())
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
    { sg; pool; enc }

  let size t = Sgroup.size t.sg

  let member t i = Sgroup.member t.sg i

  let bcast t ~src ?tag payload =
    let m = Sgroup.member t.sg src in
    let e, label = P.next_envelope m ?tag payload in
    let frame, span = Codec.encode_pc t.pool t.enc (P.Env e) in
    let fr = Codec.framed ~payload_bytes:span frame in
    let net = Sgroup.net t.sg in
    let size = Wire.length frame in
    P.publish m e ~emit:(fun ~dst -> Net.send net ~src ~dst ~size fr);
    label

  let metrics t i = P.metrics (Sgroup.member t.sg i)

  let wire_bytes t =
    Sgroup.fold (fun acc m -> acc + (P.metrics m).Metrics.wire_bytes) 0 t.sg
end
