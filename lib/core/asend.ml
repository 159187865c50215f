module Label = Causalb_graph.Label
module Dep = Causalb_graph.Dep
module Latency = Causalb_sim.Latency
module Engine = Causalb_sim.Engine
module Net = Causalb_net.Net
module Metrics = Causalb_stackbase.Metrics
module Heap = Causalb_util.Heap

let default_compare a b = Label.compare (Message.label a) (Message.label b)

(* Merge/Counted buffer in reversed arrival order and stable-sort once
   when the bracket closes (the seed's behaviour); the buffer size is a
   maintained counter, so the per-insert [List.length] walk and the
   length recomputation in the accessors are gone.  Timestamp, whose seed
   re-sorted the whole buffer on *every* insert, moves to a heap. *)
module Merge = struct
  type 'a t = {
    is_sync : 'a Message.t -> bool;
    compare : 'a Message.t -> 'a Message.t -> int;
    deliver : 'a Message.t -> unit;
    mutable buffer : 'a Message.t list;
    mutable size : int;
    mutable batches : int;
    metrics : Metrics.t;
  }

  let create ~is_sync ?(compare = default_compare) ?(deliver = fun _ -> ()) ()
      =
    {
      is_sync;
      compare;
      deliver;
      buffer = [];
      size = 0;
      batches = 0;
      metrics = Metrics.create ~name:"total:merge" ();
    }

  let release t msg =
    Metrics.on_deliver t.metrics;
    t.deliver msg

  let on_causal_deliver t msg =
    Metrics.on_receive t.metrics;
    if t.is_sync msg then begin
      let batch = List.sort t.compare (List.rev t.buffer) in
      t.buffer <- [];
      t.size <- 0;
      t.batches <- t.batches + 1;
      List.iter
        (fun m ->
          Metrics.on_unbuffer t.metrics;
          release t m)
        batch;
      (* the closing sync itself never waits *)
      release t msg
    end
    else begin
      Metrics.on_buffer t.metrics;
      t.buffer <- msg :: t.buffer;
      t.size <- t.size + 1
    end

  let buffered t = t.size

  let batches t = t.batches

  let metrics t = t.metrics

  (* Lattice declaration for the static stack verifier. *)
  let provides = Causalb_stackbase.Guarantee.Causal_total

  let requires = Causalb_stackbase.Guarantee.Causal
end

module Counted = struct
  type 'a t = {
    batch_size : int;
    compare : 'a Message.t -> 'a Message.t -> int;
    deliver : 'a Message.t -> unit;
    mutable buffer : 'a Message.t list;
    mutable size : int;
    mutable batches : int;
    metrics : Metrics.t;
  }

  let create ~batch_size ?(compare = default_compare)
      ?(deliver = fun _ -> ()) () =
    if batch_size <= 0 then
      invalid_arg "Asend.Counted.create: batch_size must be positive";
    {
      batch_size;
      compare;
      deliver;
      buffer = [];
      size = 0;
      batches = 0;
      metrics = Metrics.create ~name:"total:counted" ();
    }

  let release t msg =
    Metrics.on_deliver t.metrics;
    t.deliver msg

  let on_causal_deliver t msg =
    Metrics.on_receive t.metrics;
    (* the batch-completing arrival is released immediately; everything
       before it in the bracket had to wait *)
    if t.size + 1 = t.batch_size then begin
      let batch = List.sort t.compare (List.rev (msg :: t.buffer)) in
      for _ = 1 to t.size do
        Metrics.on_unbuffer t.metrics
      done;
      t.buffer <- [];
      t.size <- 0;
      t.batches <- t.batches + 1;
      List.iter (release t) batch
    end
    else begin
      Metrics.on_buffer t.metrics;
      t.buffer <- msg :: t.buffer;
      t.size <- t.size + 1
    end

  let buffered t = t.size

  let batches t = t.batches

  let metrics t = t.metrics

  (* Lattice declaration for the static stack verifier. *)
  let provides = Causalb_stackbase.Guarantee.Causal_total

  let requires = Causalb_stackbase.Guarantee.Causal
end

module Timestamp = struct
  module Lamport = Causalb_clock.Lamport

  type 'a item = { ts : Lamport.t; sender : int; tag : string; payload : 'a }

  type 'a envelope = Data of 'a item | Ack of { ts : Lamport.t; sender : int }

  type 'a station = {
    id : int;
    mutable clock : Lamport.t;
    mutable heard : Lamport.t array; (* highest clock heard per peer *)
    buffer : 'a item Heap.t;         (* min (ts, sender) first *)
    mutable delivered_rev : string list;
  }

  type 'a t = {
    net : 'a envelope Net.t;
    stations : 'a station array;
    on_deliver : node:int -> time:float -> tag:string -> 'a -> unit;
    mutable acks : int;
  }

  let item_compare a b =
    match Lamport.compare a.ts b.ts with
    | 0 -> Int.compare a.sender b.sender
    | c -> c

  (* An item is deliverable once every other member is known past its
     timestamp: no future arrival can sort before it. *)
  let covered st item =
    let ok = ref true in
    Array.iteri
      (fun p heard ->
        if p <> st.id && p <> item.sender && Lamport.compare heard item.ts <= 0
        then ok := false)
      st.heard;
    !ok

  let rec drain t st =
    match Heap.peek st.buffer with
    | Some item when covered st item ->
      ignore (Heap.pop st.buffer);
      st.delivered_rev <- item.tag :: st.delivered_rev;
      t.on_deliver ~node:st.id
        ~time:(Engine.now (Net.engine t.net))
        ~tag:item.tag item.payload;
      drain t st
    | Some _ | None -> ()

  let send_ack t st =
    st.clock <- Lamport.tick st.clock;
    t.acks <- t.acks + 1;
    Net.broadcast t.net ~src:st.id ~self:false
      (Ack { ts = st.clock; sender = st.id })

  let receive t st = function
    | Data item ->
      st.clock <- Lamport.receive ~local:st.clock ~remote:item.ts;
      st.heard.(item.sender) <- item.ts;
      Heap.push st.buffer item;
      (* the ack tells everyone our clock passed this timestamp *)
      send_ack t st;
      drain t st
    | Ack { ts; sender } ->
      st.clock <- Lamport.receive ~local:st.clock ~remote:ts;
      if Lamport.compare st.heard.(sender) ts < 0 then
        st.heard.(sender) <- ts;
      drain t st

  let create net ?(on_deliver = fun ~node:_ ~time:_ ~tag:_ _ -> ()) () =
    let n = Net.nodes net in
    let stations =
      Array.init n (fun id ->
          {
            id;
            clock = Lamport.zero;
            heard = Array.make n Lamport.zero;
            buffer = Heap.create ~cmp:item_compare ();
            delivered_rev = [];
          })
    in
    let t = { net; stations; on_deliver; acks = 0 } in
    for node = 0 to n - 1 do
      Net.set_handler net node (fun ~src:_ e -> receive t stations.(node) e)
    done;
    t

  let bcast t ~src ?(tag = "") payload =
    let st = t.stations.(src) in
    st.clock <- Lamport.tick st.clock;
    let item = { ts = st.clock; sender = src; tag; payload } in
    st.heard.(src) <- st.clock;
    Heap.push st.buffer item;
    Net.broadcast t.net ~src ~self:false (Data item);
    drain t st

  let delivered_tags t node = List.rev t.stations.(node).delivered_rev

  let pending t node = Heap.length t.stations.(node).buffer

  let acks_sent t = t.acks

  (* Lattice declaration for the static stack verifier. *)
  let provides = Causalb_stackbase.Guarantee.Causal_total

  let requires = Causalb_stackbase.Guarantee.Fifo
end

module Sequencer = struct
  type 'a t = {
    group : 'a Group.t;
    node : int;
    submit_latency : Latency.t;
    rng : Causalb_util.Rng.t;
    mutable last : Label.t option;
    mutable sequenced : int;
    metrics : Metrics.t;
  }

  let create group ?(node = 0) ?(submit_latency = Latency.lan) () =
    if node < 0 || node >= Group.size group then
      invalid_arg "Asend.Sequencer.create: node out of range";
    let engine = Net.engine (Group.net group) in
    {
      group;
      node;
      submit_latency;
      rng = Engine.fork_rng engine;
      last = None;
      sequenced = 0;
      metrics = Metrics.create ~name:"total:sequencer" ();
    }

  let broadcast_chained t ?name payload =
    let dep =
      match t.last with None -> Dep.null | Some l -> Dep.after l
    in
    let label = Group.osend t.group ~src:t.node ?name ~dep payload in
    t.last <- Some label;
    t.sequenced <- t.sequenced + 1;
    Metrics.on_deliver t.metrics

  let asend t ~src ?name payload =
    let engine = Net.engine (Group.net t.group) in
    Metrics.on_receive t.metrics;
    if src = t.node then broadcast_chained t ?name payload
    else begin
      (* Submission hop: one unicast delay to reach the sequencer. *)
      Metrics.on_buffer t.metrics;
      let delay = Latency.sample t.rng t.submit_latency in
      Engine.schedule engine ~delay (fun () ->
          Metrics.on_unbuffer t.metrics;
          broadcast_chained t ?name payload)
    end

  let sequenced t = t.sequenced

  let metrics t =
    t.metrics.Metrics.buffered <-
      t.metrics.Metrics.received - t.sequenced;
    t.metrics

  (* Lattice declaration for the static stack verifier. *)
  let provides = Causalb_stackbase.Guarantee.Causal_total

  let requires = Causalb_stackbase.Guarantee.Causal
end
