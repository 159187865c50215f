module Rng = Causalb_util.Rng

(* The event queue is a binary min-heap on (time, seq) whose sifts move
   only unboxed data.  In heap order live [times], a flat float array,
   and [slots], an int array: heap position [i] holds the event at time
   [times.(i)] stored in slot [slots.(i)].  Each event's [seq] and
   callback sit in the slot-indexed [seqs] and [callbacks], which never
   move while the event is queued.  Storing a pointer into an array of
   the major heap, where the long-lived callbacks array sits, is a
   write barrier ([caml_modify]), so a sift that moved callbacks would
   pay one per heap level.  Instead a callback is written twice per
   event: when it is pushed, and when firing overwrites it with [nop],
   so a fired event is unreachable from the queue.

   [slots] is a permutation of [0, capacity): positions [0, size) hold
   the queued events' slots, and the unused tail [size, capacity) holds
   the free ones.  A push takes the slot at position [size]; a pop puts
   the fired event's slot back at the position the heap gives up.

   Scheduling and firing an event allocate nothing here.  A caller in
   another module boxes a [time] or [delay] it passes (dev builds are
   [-opaque]), so the per-copy path hands its arrival time over in a
   {!cell} and reads the clock through the flat {!clock} record. *)
type t = {
  mutable times : float array;
  mutable slots : int array;
  mutable seqs : int array;
  mutable callbacks : (unit -> unit) array;
  mutable size : int;
  clock : clock;
  root_rng : Rng.t;
  mutable next_seq : int;
  mutable processed : int;
}

(* all-float records: stored flat, so reading or writing them never
   boxes, in this module or in a caller that sees their fields *)
and clock = { mutable now : float }

type cell = { mutable time : float }

let nop () = ()

let create ?(seed = 42) () =
  {
    (* arrays start empty and grow on the first schedule: campaigns
       build thousands of small engines *)
    times = [||];
    slots = [||];
    seqs = [||];
    callbacks = [||];
    size = 0;
    clock = { now = 0.0 };
    root_rng = Rng.create seed;
    next_seq = 0;
    processed = 0;
  }

let now t = t.clock.now

let clock t = t.clock

let rng t = t.root_rng

let fork_rng t = Rng.split t.root_rng

(* Called on a full queue only, so the tail is empty: the new tail
   positions get the new slots. *)
let grow t =
  let size = t.size in
  let cap = max 16 (2 * size) in
  let times = Array.make cap 0.0
  and slots = Array.init cap Fun.id
  and seqs = Array.make cap 0
  and callbacks = Array.make cap nop in
  Array.blit t.times 0 times 0 size;
  Array.blit t.slots 0 slots 0 size;
  Array.blit t.seqs 0 seqs 0 size;
  Array.blit t.callbacks 0 callbacks 0 size;
  t.times <- times;
  t.slots <- slots;
  t.seqs <- seqs;
  t.callbacks <- callbacks

(* Sift the new event up from the end.  Its seq exceeds every queued
   one, so it passes a parent only on a strictly earlier time.  Inlined
   into every scheduler so the time stays unboxed. *)
let[@inline] push t time callback =
  if t.size = Array.length t.slots then grow t;
  let times = t.times and slots = t.slots in
  let n = t.size in
  let slot = slots.(n) in
  t.seqs.(slot) <- t.next_seq;
  t.next_seq <- t.next_seq + 1;
  t.callbacks.(slot) <- callback;
  t.size <- n + 1;
  let i = ref n and sifting = ref true in
  while !sifting && !i > 0 do
    let p = (!i - 1) / 2 in
    let tp = times.(p) in
    if time < tp then begin
      times.(!i) <- tp;
      slots.(!i) <- slots.(p);
      i := p
    end
    else sifting := false
  done;
  times.(!i) <- time;
  slots.(!i) <- slot

(* Remove the root: the last event fills the hole left at the root and
   sifts down, comparing seqs only on equal times, and the root's slot
   joins the free tail at the position the heap gave up. *)
let pop_root t =
  let last = t.size - 1 in
  t.size <- last;
  let times = t.times and slots = t.slots and seqs = t.seqs in
  let freed = slots.(0) in
  if last > 0 then begin
    let time = times.(last) and slot = slots.(last) in
    let seq = seqs.(slot) in
    let i = ref 0 and sifting = ref true in
    while !sifting do
      let l = (2 * !i) + 1 in
      if l >= last then sifting := false
      else begin
        let r = l + 1 in
        let c =
          if
            r < last
            && (times.(r) < times.(l)
               || times.(r) = times.(l)
                  && seqs.(slots.(r)) < seqs.(slots.(l)))
          then r
          else l
        in
        let tc = times.(c) in
        if tc < time || (tc = time && seqs.(slots.(c)) < seq) then begin
          times.(!i) <- tc;
          slots.(!i) <- slots.(c);
          i := c
        end
        else sifting := false
      end
    done;
    times.(!i) <- time;
    slots.(!i) <- slot
  end;
  slots.(last) <- freed

(* Fire the earliest event.  It leaves the queue before its callback
   runs, so the callback may schedule freely. *)
let fire_root t =
  let slot = t.slots.(0) in
  let callback = t.callbacks.(slot) in
  t.callbacks.(slot) <- nop;
  t.clock.now <- t.times.(0);
  pop_root t;
  t.processed <- t.processed + 1;
  callback ()

(* Every scheduler admits a time only if [time >= now] ([schedule]: a
   delay only if [delay >= 0]).  Written negated, the one comparison
   also turns NaN away, which would otherwise sit in the heap unordered
   against every other time and let the clock run backwards. *)
let past who t time =
  invalid_arg
    (Printf.sprintf "Engine.%s: time %.3f is in the past (now %.3f)" who time
       t.clock.now)

let schedule_at t ~time callback =
  if not (time >= t.clock.now) then past "schedule_at" t time;
  push t time callback

let schedule_cell t cell callback =
  let time = cell.time in
  if not (time >= t.clock.now) then past "schedule_cell" t time;
  push t time callback

let schedule t ~delay callback =
  if not (delay >= 0.0) then invalid_arg "Engine.schedule: negative delay";
  push t (t.clock.now +. delay) callback

let every t ~period ?until callback =
  if not (period > 0.0) then
    invalid_arg "Engine.every: period must be positive";
  let rec tick () =
    let fire =
      match until with None -> true | Some stop -> t.clock.now <= stop
    in
    if fire then begin
      callback ();
      let next = t.clock.now +. period in
      let rearm =
        match until with None -> true | Some stop -> next <= stop
      in
      if rearm then schedule t ~delay:period tick
    end
  in
  schedule t ~delay:period tick

let step t =
  if t.size = 0 then false
  else begin
    fire_root t;
    true
  end

let run ?until ?max_events t =
  let stop = match until with None -> infinity | Some s -> s in
  let budget = match max_events with None -> max_int | Some m -> m in
  while t.processed < budget && t.size > 0 && t.times.(0) <= stop do
    fire_root t
  done

let pending t = t.size

let events_processed t = t.processed
