module Rng = Causalb_util.Rng

(* The event queue is a binary min-heap on (time, seq) kept as a
   struct of arrays: slot [i] is the event [(times.(i), seqs.(i),
   callbacks.(i))].  Times live unboxed in a flat float array and no
   per-event record exists, so scheduling and firing an event allocate
   nothing here (a caller in another module still boxes the [time] it
   passes — dev builds are [-opaque]).  A vacated slot's callback is
   overwritten with [nop] so a fired event is unreachable from the
   queue. *)
type t = {
  mutable times : float array;
  mutable seqs : int array;
  mutable callbacks : (unit -> unit) array;
  mutable size : int;
  clock : clock;
  root_rng : Rng.t;
  mutable next_seq : int;
  mutable processed : int;
}

(* all-float record: stored flat, so advancing the clock never boxes *)
and clock = { mutable now : float }

let nop () = ()

let create ?(seed = 42) () =
  {
    (* arrays start empty and grow on the first schedule: campaigns
       build thousands of small engines *)
    times = [||];
    seqs = [||];
    callbacks = [||];
    size = 0;
    clock = { now = 0.0 };
    root_rng = Rng.create seed;
    next_seq = 0;
    processed = 0;
  }

let now t = t.clock.now

let rng t = t.root_rng

let fork_rng t = Rng.split t.root_rng

let grow t =
  let cap = max 16 (2 * t.size) in
  let times = Array.make cap 0.0
  and seqs = Array.make cap 0
  and callbacks = Array.make cap nop in
  Array.blit t.times 0 times 0 t.size;
  Array.blit t.seqs 0 seqs 0 t.size;
  Array.blit t.callbacks 0 callbacks 0 t.size;
  t.times <- times;
  t.seqs <- seqs;
  t.callbacks <- callbacks

(* Sift the new event up from the end.  Its seq exceeds every queued
   one, so it passes a parent only on a strictly earlier time.  Inlined
   into both schedulers so [schedule]'s computed time stays unboxed. *)
let[@inline] push t time callback =
  if t.size = Array.length t.seqs then grow t;
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  let times = t.times and seqs = t.seqs and callbacks = t.callbacks in
  let i = ref t.size and sifting = ref true in
  t.size <- t.size + 1;
  while !sifting && !i > 0 do
    let p = (!i - 1) / 2 in
    if time < times.(p) then begin
      times.(!i) <- times.(p);
      seqs.(!i) <- seqs.(p);
      callbacks.(!i) <- callbacks.(p);
      i := p
    end
    else sifting := false
  done;
  times.(!i) <- time;
  seqs.(!i) <- seq;
  callbacks.(!i) <- callback

(* Remove the root: the last event fills the hole left at the root and
   sifts down, and its old slot is cleared. *)
let pop_root t =
  let last = t.size - 1 in
  t.size <- last;
  let times = t.times and seqs = t.seqs and callbacks = t.callbacks in
  let time = times.(last) and seq = seqs.(last) and callback = callbacks.(last) in
  callbacks.(last) <- nop;
  if last > 0 then begin
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
               || (times.(r) = times.(l) && seqs.(r) < seqs.(l)))
          then r
          else l
        in
        if times.(c) < time || (times.(c) = time && seqs.(c) < seq) then begin
          times.(!i) <- times.(c);
          seqs.(!i) <- seqs.(c);
          callbacks.(!i) <- callbacks.(c);
          i := c
        end
        else sifting := false
      end
    done;
    times.(!i) <- time;
    seqs.(!i) <- seq;
    callbacks.(!i) <- callback
  end

(* Fire the earliest event.  It leaves the queue before its callback
   runs, so the callback may schedule freely. *)
let fire_root t =
  let callback = t.callbacks.(0) in
  t.clock.now <- t.times.(0);
  pop_root t;
  t.processed <- t.processed + 1;
  callback ()

let schedule_at t ~time callback =
  if time < t.clock.now then
    invalid_arg
      (Printf.sprintf "Engine.schedule_at: time %.3f is in the past (now %.3f)"
         time t.clock.now);
  push t time callback

let schedule t ~delay callback =
  if delay < 0.0 then invalid_arg "Engine.schedule: negative delay";
  push t (t.clock.now +. delay) callback

let every t ~period ?until callback =
  if period <= 0.0 then invalid_arg "Engine.every: period must be positive";
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
