(* The Welford sums, [lo] and [hi] live in an all-float record, which
   OCaml stores flat: [add] updates them without boxing, so it allocates
   nothing while [data] has room. *)
type acc = {
  mutable mean_acc : float;
  mutable m2 : float;
  mutable sum : float;
  mutable lo : float;
  mutable hi : float;
}

type t = {
  mutable n : int;
  acc : acc;
  mutable data : float array;
  mutable sorted : float array option; (* cache, invalidated on add *)
}

let create () =
  {
    n = 0;
    acc = { mean_acc = 0.0; m2 = 0.0; sum = 0.0; lo = nan; hi = nan };
    data = [||];
    sorted = None;
  }

let add t x =
  if t.n >= Array.length t.data then begin
    let cap = max 16 (2 * Array.length t.data) in
    let data = Array.make cap 0.0 in
    Array.blit t.data 0 data 0 t.n;
    t.data <- data
  end;
  t.data.(t.n) <- x;
  t.n <- t.n + 1;
  let a = t.acc in
  a.sum <- a.sum +. x;
  let delta = x -. a.mean_acc in
  a.mean_acc <- a.mean_acc +. (delta /. float_of_int t.n);
  a.m2 <- a.m2 +. (delta *. (x -. a.mean_acc));
  if t.n = 1 then begin
    a.lo <- x;
    a.hi <- x
  end
  else begin
    if x < a.lo then a.lo <- x;
    if x > a.hi then a.hi <- x
  end;
  t.sorted <- None

let add_list t l = List.iter (add t) l

let count t = t.n

let total t = t.acc.sum

let mean t = if t.n = 0 then nan else t.acc.mean_acc

let variance t = if t.n < 2 then 0.0 else t.acc.m2 /. float_of_int (t.n - 1)

let min_value t = t.acc.lo

let max_value t = t.acc.hi

let sorted t =
  match t.sorted with
  | Some s -> s
  | None ->
    let s = Array.sub t.data 0 t.n in
    Array.sort compare s;
    t.sorted <- Some s;
    s

let percentile t p =
  if t.n = 0 then nan
  else begin
    let s = sorted t in
    let p = Float.max 0.0 (Float.min 100.0 p) in
    let rank = p /. 100.0 *. float_of_int (t.n - 1) in
    let lo_idx = int_of_float (Float.floor rank) in
    let hi_idx = int_of_float (Float.ceil rank) in
    if lo_idx = hi_idx then s.(lo_idx)
    else begin
      let frac = rank -. float_of_int lo_idx in
      (s.(lo_idx) *. (1.0 -. frac)) +. (s.(hi_idx) *. frac)
    end
  end

let median t = percentile t 50.0

let samples t = Array.sub t.data 0 t.n

let merge a b =
  let t = create () in
  Array.iter (add t) (samples a);
  Array.iter (add t) (samples b);
  t

let summary t =
  if t.n = 0 then "n=0"
  else
    Printf.sprintf "n=%d mean=%.3f p50=%.3f p99=%.3f max=%.3f" t.n (mean t)
      (percentile t 50.0) (percentile t 99.0) (max_value t)

module Histogram = struct
  type h = { lo : float; hi : float; bins : int array }

  let create ?(bins = 32) ~lo ~hi () =
    if bins <= 0 then invalid_arg "Histogram.create: bins must be positive";
    if not (lo < hi) then invalid_arg "Histogram.create: need lo < hi";
    { lo; hi; bins = Array.make bins 0 }

  let add h x =
    let nb = Array.length h.bins in
    let idx =
      int_of_float (float_of_int nb *. ((x -. h.lo) /. (h.hi -. h.lo)))
    in
    let idx = max 0 (min (nb - 1) idx) in
    h.bins.(idx) <- h.bins.(idx) + 1

  let counts h = Array.copy h.bins

  let render ?(width = 50) h =
    let peak = Array.fold_left max 1 h.bins in
    let buf = Buffer.create 256 in
    let nb = Array.length h.bins in
    let bin_width = (h.hi -. h.lo) /. float_of_int nb in
    Array.iteri
      (fun i c ->
        let bar = c * width / peak in
        Buffer.add_string buf
          (Printf.sprintf "%10.3f | %s %d\n"
             (h.lo +. (bin_width *. float_of_int i))
             (String.make bar '#') c))
      h.bins;
    Buffer.contents buf
end
