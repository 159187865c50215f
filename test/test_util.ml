(* Unit tests for the utility substrate: heap, fqueue, rng, stats,
   table. *)

module Heap = Causalb_util.Heap
module Fqueue = Causalb_util.Fqueue
module Rng = Causalb_util.Rng
module Latency = Causalb_sim.Latency
module Stats = Causalb_util.Stats
module Table = Causalb_util.Table

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_float = Alcotest.(check (float 1e-9))

(* --- Heap --- *)

let test_heap_empty () =
  let h = Heap.create ~cmp:Int.compare () in
  check "empty" true (Heap.is_empty h);
  check_int "length" 0 (Heap.length h);
  check "peek none" true (Heap.peek h = None);
  check "pop none" true (Heap.pop h = None)

let test_heap_ordering () =
  let h = Heap.create ~cmp:Int.compare () in
  List.iter (Heap.push h) [ 5; 3; 8; 1; 9; 2; 7 ];
  Alcotest.(check (list int)) "ascending" [ 1; 2; 3; 5; 7; 8; 9 ] (Heap.drain h);
  check "drained" true (Heap.is_empty h)

let test_heap_duplicates () =
  let h = Heap.create ~cmp:Int.compare () in
  List.iter (Heap.push h) [ 2; 2; 1; 2; 1 ];
  Alcotest.(check (list int)) "dups kept" [ 1; 1; 2; 2; 2 ] (Heap.drain h)

let test_heap_pop_exn () =
  let h = Heap.create ~cmp:Int.compare () in
  Alcotest.check_raises "pop_exn empty"
    (Invalid_argument "Heap.pop_exn: empty heap") (fun () ->
      ignore (Heap.pop_exn h));
  Heap.push h 42;
  check_int "pop_exn" 42 (Heap.pop_exn h)

let test_heap_interleaved () =
  let h = Heap.create ~cmp:Int.compare () in
  Heap.push h 3;
  Heap.push h 1;
  check_int "min first" 1 (Heap.pop_exn h);
  Heap.push h 0;
  Heap.push h 2;
  check_int "new min" 0 (Heap.pop_exn h);
  check_int "then 2" 2 (Heap.pop_exn h);
  check_int "then 3" 3 (Heap.pop_exn h)

let test_heap_custom_cmp () =
  let h = Heap.create ~cmp:(fun a b -> Int.compare b a) () in
  List.iter (Heap.push h) [ 1; 5; 3 ];
  Alcotest.(check (list int)) "max-heap" [ 5; 3; 1 ] (Heap.drain h)

let test_heap_clear_and_to_list () =
  let h = Heap.create ~cmp:Int.compare () in
  List.iter (Heap.push h) [ 4; 2; 6 ];
  check_int "to_list size" 3 (List.length (Heap.to_list h));
  check_int "unchanged" 3 (Heap.length h);
  Heap.clear h;
  check "cleared" true (Heap.is_empty h)

let test_heap_large () =
  let h = Heap.create ~cmp:Int.compare () in
  let rng = Rng.create 7 in
  let values = List.init 10_000 (fun _ -> Rng.int rng 1_000_000) in
  List.iter (Heap.push h) values;
  let out = Heap.drain h in
  check "sorted output" true (out = List.sort Int.compare values)

(* Duplicate priorities with distinguishable payloads: every payload
   must survive, grouped by ascending priority — the event queue relies
   on no element being lost or duplicated when keys tie. *)
let test_heap_equal_keys_payloads () =
  let h = Heap.create ~cmp:(fun (a, _) (b, _) -> Int.compare a b) () in
  let items = List.init 30 (fun i -> (i mod 3, i)) in
  List.iter (Heap.push h) items;
  let out = Heap.drain h in
  check_int "all kept" 30 (List.length out);
  let prios = List.map fst out in
  check "priorities ascending" true (prios = List.sort Int.compare prios);
  Alcotest.(check (list int)) "payload multiset preserved"
    (List.sort Int.compare (List.map snd items))
    (List.sort Int.compare (List.map snd out))

(* Interleaved push/pop straddling the internal growth boundary: start
   from a tiny capacity hint so every doubling happens mid-test, and
   keep a sorted-list model alongside. *)
let test_heap_growth_boundary () =
  let h = Heap.create ~capacity:1 ~cmp:Int.compare () in
  let model = ref [] in
  let push v =
    Heap.push h v;
    model := List.sort Int.compare (v :: !model)
  in
  let pop () =
    let got = Heap.pop h in
    let want = match !model with [] -> None | x :: rest -> model := rest; Some x in
    check "pop matches model" true (got = want)
  in
  (* fill across 1 -> 2 -> 4 -> 8 -> ... doublings, popping at each
     power-of-two length so push and pop both cross the boundary *)
  for i = 0 to 129 do
    push ((i * 37) mod 101);
    let len = Heap.length h in
    if len land (len - 1) = 0 then pop ()
  done;
  while not (Heap.is_empty h) do
    pop ()
  done;
  check "model drained too" true (!model = []);
  check "pop after empty" true (Heap.pop h = None)

(* --- Fqueue --- *)

let test_fqueue_empty () =
  let q = Fqueue.create () in
  check "empty" true (Fqueue.is_empty q);
  check_int "length" 0 (Fqueue.length q);
  check "peek none" true (Fqueue.peek q = None);
  check "pop none" true (Fqueue.pop q = None)

let test_fqueue_fifo () =
  let q = Fqueue.create () in
  List.iter (Fqueue.push q) [ 1; 2; 3 ];
  check "peek head" true (Fqueue.peek q = Some 1);
  Alcotest.(check (list int)) "to_list order" [ 1; 2; 3 ] (Fqueue.to_list q);
  check_int "to_list non-destructive" 3 (Fqueue.length q);
  check "pops in order" true
    (Fqueue.pop q = Some 1 && Fqueue.pop q = Some 2 && Fqueue.pop q = Some 3);
  check "then empty" true (Fqueue.pop q = None)

(* Interleaved push/pop with repeated full drains: a queue emptied and
   refilled must not resurrect old elements or reorder new ones — the
   wakeup buckets are emptied and reused exactly like this. *)
let test_fqueue_interleaved () =
  let q = Fqueue.create () in
  let model = Queue.create () in
  let push v =
    Fqueue.push q v;
    Queue.push v model
  in
  let pop () =
    let got = Fqueue.pop q in
    let want = Queue.take_opt model in
    check "pop matches model" true (got = want)
  in
  for round = 0 to 5 do
    for i = 0 to (10 * round) + 3 do
      push ((round * 100) + i);
      if i mod 3 = 0 then pop ()
    done;
    (* full drain at the round boundary *)
    while not (Fqueue.is_empty q) do
      pop ()
    done;
    check "model empty too" true (Queue.is_empty model);
    check "pop on emptied queue" true (Fqueue.pop q = None)
  done

let test_fqueue_traversals () =
  let q = Fqueue.create () in
  List.iter (Fqueue.push q) [ 10; 20; 30 ];
  let seen = ref [] in
  Fqueue.iter (fun v -> seen := v :: !seen) q;
  Alcotest.(check (list int)) "iter in order" [ 10; 20; 30 ] (List.rev !seen);
  check_int "fold sums" 60 (Fqueue.fold ( + ) 0 q);
  check_int "still full" 3 (Fqueue.length q);
  let drained = ref [] in
  Fqueue.drain (fun v -> drained := v :: !drained) q;
  Alcotest.(check (list int)) "drain in order" [ 10; 20; 30 ]
    (List.rev !drained);
  check "drain empties" true (Fqueue.is_empty q);
  Fqueue.push q 1;
  Fqueue.clear q;
  check "clear empties" true (Fqueue.is_empty q)

(* --- Rng --- *)

let test_rng_deterministic () =
  let a = Rng.create 123 and b = Rng.create 123 in
  let sa = List.init 100 (fun _ -> Rng.int64 a) in
  let sb = List.init 100 (fun _ -> Rng.int64 b) in
  check "same seed same stream" true (sa = sb)

let test_rng_seeds_differ () =
  let a = Rng.create 1 and b = Rng.create 2 in
  let sa = List.init 10 (fun _ -> Rng.int64 a) in
  let sb = List.init 10 (fun _ -> Rng.int64 b) in
  check "different seeds differ" true (sa <> sb)

let test_rng_split_independent () =
  let a = Rng.create 9 in
  let b = Rng.split a in
  let sa = List.init 50 (fun _ -> Rng.int64 a) in
  let sb = List.init 50 (fun _ -> Rng.int64 b) in
  check "split streams differ" true (sa <> sb)

let test_rng_split_deterministic () =
  let mk () =
    let a = Rng.create 11 in
    let b = Rng.split a in
    (List.init 20 (fun _ -> Rng.int64 a), List.init 20 (fun _ -> Rng.int64 b))
  in
  check "reproducible split" true (mk () = mk ())

let test_rng_copy () =
  let a = Rng.create 5 in
  ignore (Rng.int64 a);
  let b = Rng.copy a in
  check "copy replays" true
    (List.init 10 (fun _ -> Rng.int64 a) = List.init 10 (fun _ -> Rng.int64 b))

let test_rng_int_bounds () =
  let rng = Rng.create 3 in
  for _ = 1 to 1000 do
    let v = Rng.int rng 17 in
    check "in range" true (v >= 0 && v < 17)
  done;
  Alcotest.check_raises "bound 0" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int rng 0))

let test_rng_float_bounds () =
  let rng = Rng.create 4 in
  for _ = 1 to 1000 do
    let v = Rng.float rng 2.5 in
    check "in range" true (v >= 0.0 && v < 2.5)
  done

(* [bits53] is the draw under [float]: the output's 53 high bits. *)
let test_rng_bits53 () =
  let rng = Rng.create 21 in
  for _ = 1 to 1000 do
    let raw = Rng.int64 (Rng.copy rng) and unit = Rng.float (Rng.copy rng) 1.0 in
    let b = Rng.bits53 rng in
    check_int "high 53 bits" (Int64.to_int (Int64.shift_right_logical raw 11)) b;
    check "float's draw" true (unit = float_of_int b /. 9007199254740992.0)
  done

let test_rng_bernoulli_extremes () =
  let rng = Rng.create 6 in
  for _ = 1 to 100 do
    check "p=0 never" false (Rng.bernoulli rng 0.0);
    check "p=1 always" true (Rng.bernoulli rng 1.0)
  done

let test_rng_exponential_mean () =
  let rng = Rng.create 8 in
  let n = 20_000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    let v = Latency.sample rng (Latency.exponential ~mean:5.0 ()) in
    check "positive" true (v >= 0.0);
    sum := !sum +. v
  done;
  let mean = !sum /. float_of_int n in
  check "mean close to 5" true (abs_float (mean -. 5.0) < 0.3)

(* The normal draw behind the lognormal model: its log has the moments
   of N(mu, sigma^2). *)
let test_rng_gaussian_moments () =
  let rng = Rng.create 10 in
  let n = 20_000 in
  let sum = ref 0.0 and sumsq = ref 0.0 in
  let m = Latency.lognormal ~mu:3.0 ~sigma:2.0 () in
  for _ = 1 to n do
    let v = log (Latency.sample rng m) in
    sum := !sum +. v;
    sumsq := !sumsq +. (v *. v)
  done;
  let mean = !sum /. float_of_int n in
  let var = (!sumsq /. float_of_int n) -. (mean *. mean) in
  check "mean ~3" true (abs_float (mean -. 3.0) < 0.1);
  check "var ~4" true (abs_float (var -. 4.0) < 0.3)

let test_rng_pareto_scale () =
  let rng = Rng.create 12 in
  for _ = 1 to 1000 do
    check "above scale" true
      (Latency.sample rng (Latency.pareto ~scale:1.5 ~shape:2.0) >= 1.5)
  done

let test_rng_shuffle_permutation () =
  let rng = Rng.create 13 in
  let a = Array.init 50 Fun.id in
  Rng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort Int.compare sorted;
  check "is permutation" true (sorted = Array.init 50 Fun.id)

let test_rng_pick () =
  let rng = Rng.create 14 in
  let a = [| 10; 20; 30 |] in
  for _ = 1 to 100 do
    check "member" true (Array.mem (Rng.pick rng a) a)
  done;
  Alcotest.check_raises "empty" (Invalid_argument "Rng.pick: empty array")
    (fun () -> ignore (Rng.pick rng [||]))

(* The exact stream, not just its statistics: every replay, golden
   output and equivalence oracle in the repo (lib/reference included)
   draws from this one generator, so a change to it would move them all
   together and no comparison between them could notice. *)
let test_rng_golden_stream () =
  let check_int64 = Alcotest.(check int64) in
  let check_bits msg expected got =
    check_int64 msg (Int64.bits_of_float expected) (Int64.bits_of_float got)
  in
  let rng = Rng.create 42 in
  check_int64 "int64 #1" (-7450291807549245335L) (Rng.int64 rng);
  check_int64 "int64 #2" 2958219263312191191L (Rng.int64 rng);
  check_int64 "int64 #3" 3069497704473277141L (Rng.int64 rng);
  check_bits "float" 0.048025795475956312 (Rng.float rng 1.0);
  check_int "int" 889 (Rng.int rng 1000);
  let split = Rng.split rng in
  check_int64 "split int64" (-8871087439258550077L) (Rng.int64 split);
  check_bits "lan latency" 0.64703451276246671
    (Latency.sample split Latency.lan);
  let rng = Rng.create 7 in
  check "bool" true (Rng.bool rng);
  check "bernoulli" true (Rng.bernoulli rng 0.5);
  (* the samplers' values as they were drawn in [Rng] *)
  check_bits "exponential" 5.6603079213515501
    (Latency.sample rng (Latency.exponential ~mean:2.0 ()));
  check_bits "lognormal" 1.5922992631729338
    (Latency.sample rng (Latency.lognormal ~mu:1.0 ~sigma:0.5 ()));
  check_bits "pareto" 1.2352333730615355
    (Latency.sample rng (Latency.pareto ~scale:1.0 ~shape:2.0));
  let copy = Rng.copy rng in
  check_int64 "copy replays" 7350602455885783398L (Rng.int64 copy);
  check_int64 "original unmoved by copy" 7350602455885783398L (Rng.int64 rng);
  let a = Array.init 8 Fun.id in
  Rng.shuffle rng a;
  Alcotest.(check (array int)) "shuffle" [| 1; 6; 5; 2; 3; 7; 0; 4 |] a

(* --- Stats --- *)

let test_stats_empty () =
  let s = Stats.create () in
  check_int "count" 0 (Stats.count s);
  check "mean nan" true (Float.is_nan (Stats.mean s));
  check "percentile nan" true (Float.is_nan (Stats.percentile s 50.0))

let test_stats_single () =
  let s = Stats.create () in
  Stats.add s 7.0;
  check_float "mean" 7.0 (Stats.mean s);
  check_float "min" 7.0 (Stats.min_value s);
  check_float "max" 7.0 (Stats.max_value s);
  check_float "median" 7.0 (Stats.median s);
  check_float "variance" 0.0 (Stats.variance s)

let test_stats_mean_variance () =
  let s = Stats.create () in
  Stats.add_list s [ 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 ];
  check_float "mean" 5.0 (Stats.mean s);
  (* population variance is 4; sample variance = 32/7 *)
  check_float "variance" (32.0 /. 7.0) (Stats.variance s);
  check_float "total" 40.0 (Stats.total s)

let test_stats_percentiles () =
  let s = Stats.create () in
  Stats.add_list s (List.init 101 float_of_int);
  check_float "p0" 0.0 (Stats.percentile s 0.0);
  check_float "p50" 50.0 (Stats.percentile s 50.0);
  check_float "p99" 99.0 (Stats.percentile s 99.0);
  check_float "p100" 100.0 (Stats.percentile s 100.0);
  check_float "p25" 25.0 (Stats.percentile s 25.0)

let test_stats_percentile_interpolation () =
  let s = Stats.create () in
  Stats.add_list s [ 10.0; 20.0 ];
  check_float "p50 interpolated" 15.0 (Stats.percentile s 50.0);
  check_float "p75" 17.5 (Stats.percentile s 75.0)

let test_stats_merge () =
  let a = Stats.create () and b = Stats.create () in
  Stats.add_list a [ 1.0; 2.0 ];
  Stats.add_list b [ 3.0; 4.0 ];
  let m = Stats.merge a b in
  check_int "count" 4 (Stats.count m);
  check_float "mean" 2.5 (Stats.mean m)

let test_stats_unsorted_input () =
  let s = Stats.create () in
  Stats.add_list s [ 9.0; 1.0; 5.0 ];
  check_float "median of unsorted" 5.0 (Stats.median s);
  Stats.add s 0.0;
  (* cache must invalidate on add *)
  check_float "median updates" 3.0 (Stats.median s)

(* [add] keeps its accumulators unboxed, so once the sample array has
   room it allocates nothing.  The samples are boxed before the window
   opens. *)
let rec add_all s = function
  | [] -> ()
  | x :: rest ->
    Stats.add s x;
    add_all s rest

let test_stats_add_no_alloc () =
  let s = Stats.create () in
  let xs = List.init 1000 (fun i -> float_of_int (i mod 37) *. 0.25) in
  (* warm-up: 3000 samples grow the array to 4096, room for 1000 more *)
  add_all s xs;
  add_all s xs;
  add_all s xs;
  let before = Gc.minor_words () in
  add_all s xs;
  let words = Gc.minor_words () -. before in
  check_int "minor words over 1000 adds" 0 (int_of_float words);
  check_int "all counted" 4000 (Stats.count s)

let test_histogram () =
  let h = Stats.Histogram.create ~bins:4 ~lo:0.0 ~hi:4.0 () in
  List.iter (Stats.Histogram.add h) [ 0.5; 1.5; 1.6; 3.9; -1.0; 99.0 ];
  Alcotest.(check (array int)) "counts" [| 2; 2; 0; 2 |] (Stats.Histogram.counts h);
  check "render nonempty" true (String.length (Stats.Histogram.render h) > 0)

let test_histogram_validation () =
  Alcotest.check_raises "bins 0"
    (Invalid_argument "Histogram.create: bins must be positive") (fun () ->
      ignore (Stats.Histogram.create ~bins:0 ~lo:0.0 ~hi:1.0 ()));
  Alcotest.check_raises "lo >= hi"
    (Invalid_argument "Histogram.create: need lo < hi") (fun () ->
      ignore (Stats.Histogram.create ~lo:1.0 ~hi:1.0 ()))

(* --- Table --- *)

let contains haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec scan i = i + nl <= hl && (String.sub haystack i nl = needle || scan (i + 1)) in
  scan 0

let test_table_render () =
  let t = Table.create ~title:"demo" ~columns:[ "a"; "b" ] in
  Table.add_row t [ "1"; "hello" ];
  Table.add_row t [ "22"; "x" ];
  let s = Table.render t in
  check "has title" true (String.length s > 0 && String.sub s 0 7 = "== demo");
  check "contains hello" true (contains s "hello")

let test_table_arity () =
  let t = Table.create ~title:"t" ~columns:[ "a"; "b" ] in
  Alcotest.check_raises "arity"
    (Invalid_argument "Table.add_row: expected 2 cells, got 1") (fun () ->
      Table.add_row t [ "only" ])

let test_table_rowf () =
  let t = Table.create ~title:"t" ~columns:[ "x"; "y"; "z" ] in
  Table.add_rowf t "%d\t%.1f\t%s" 3 2.5 "ok";
  check "csv" true (Table.to_csv t = "x,y,z\n3,2.5,ok")

let test_table_csv_escaping () =
  let t = Table.create ~title:"t" ~columns:[ "v" ] in
  Table.add_row t [ "a,b" ];
  Table.add_row t [ "say \"hi\"" ];
  check "escaped" true
    (Table.to_csv t = "v\n\"a,b\"\n\"say \"\"hi\"\"\"")

let test_stats_summary () =
  let s = Stats.create () in
  check "empty summary" true (Stats.summary s = "n=0");
  Stats.add_list s [ 1.0; 2.0; 3.0 ];
  check "summary mentions count" true (contains (Stats.summary s) "n=3");
  check "summary mentions mean" true (contains (Stats.summary s) "mean=2.000")

let test_stats_samples_copy () =
  let s = Stats.create () in
  Stats.add_list s [ 5.0; 1.0 ];
  let a = Stats.samples s in
  check "insertion order" true (a = [| 5.0; 1.0 |]);
  a.(0) <- 99.0;
  check "copy, not alias" true (Stats.samples s = [| 5.0; 1.0 |])

let test_table_formatters () =
  check "float" true (Table.fmt_float ~digits:2 1.2345 = "1.23");
  check "float nan" true (Table.fmt_float Float.nan = "-");
  check "pct" true (Table.fmt_pct 0.256 = "25.6%");
  check "int" true (Table.fmt_int 42 = "42")

let () =
  Alcotest.run "util"
    [
      ( "heap",
        [
          Alcotest.test_case "empty" `Quick test_heap_empty;
          Alcotest.test_case "ordering" `Quick test_heap_ordering;
          Alcotest.test_case "duplicates" `Quick test_heap_duplicates;
          Alcotest.test_case "pop_exn" `Quick test_heap_pop_exn;
          Alcotest.test_case "interleaved" `Quick test_heap_interleaved;
          Alcotest.test_case "custom cmp" `Quick test_heap_custom_cmp;
          Alcotest.test_case "clear/to_list" `Quick test_heap_clear_and_to_list;
          Alcotest.test_case "large random" `Quick test_heap_large;
          Alcotest.test_case "equal keys keep payloads" `Quick
            test_heap_equal_keys_payloads;
          Alcotest.test_case "growth boundary" `Quick
            test_heap_growth_boundary;
        ] );
      ( "fqueue",
        [
          Alcotest.test_case "empty" `Quick test_fqueue_empty;
          Alcotest.test_case "fifo" `Quick test_fqueue_fifo;
          Alcotest.test_case "interleaved drains" `Quick
            test_fqueue_interleaved;
          Alcotest.test_case "traversals" `Quick test_fqueue_traversals;
        ] );
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "seeds differ" `Quick test_rng_seeds_differ;
          Alcotest.test_case "split independent" `Quick test_rng_split_independent;
          Alcotest.test_case "split deterministic" `Quick test_rng_split_deterministic;
          Alcotest.test_case "copy" `Quick test_rng_copy;
          Alcotest.test_case "int bounds" `Quick test_rng_int_bounds;
          Alcotest.test_case "float bounds" `Quick test_rng_float_bounds;
          Alcotest.test_case "bits53" `Quick test_rng_bits53;
          Alcotest.test_case "bernoulli extremes" `Quick test_rng_bernoulli_extremes;
          Alcotest.test_case "exponential mean" `Quick test_rng_exponential_mean;
          Alcotest.test_case "gaussian moments" `Quick test_rng_gaussian_moments;
          Alcotest.test_case "pareto scale" `Quick test_rng_pareto_scale;
          Alcotest.test_case "shuffle permutation" `Quick test_rng_shuffle_permutation;
          Alcotest.test_case "pick" `Quick test_rng_pick;
          Alcotest.test_case "golden stream" `Quick test_rng_golden_stream;
        ] );
      ( "stats",
        [
          Alcotest.test_case "empty" `Quick test_stats_empty;
          Alcotest.test_case "single" `Quick test_stats_single;
          Alcotest.test_case "mean/variance" `Quick test_stats_mean_variance;
          Alcotest.test_case "percentiles" `Quick test_stats_percentiles;
          Alcotest.test_case "interpolation" `Quick test_stats_percentile_interpolation;
          Alcotest.test_case "merge" `Quick test_stats_merge;
          Alcotest.test_case "unsorted input" `Quick test_stats_unsorted_input;
          Alcotest.test_case "add allocates nothing" `Quick test_stats_add_no_alloc;
          Alcotest.test_case "summary" `Quick test_stats_summary;
          Alcotest.test_case "samples copy" `Quick test_stats_samples_copy;
          Alcotest.test_case "histogram" `Quick test_histogram;
          Alcotest.test_case "histogram validation" `Quick test_histogram_validation;
        ] );
      ( "table",
        [
          Alcotest.test_case "render" `Quick test_table_render;
          Alcotest.test_case "arity" `Quick test_table_arity;
          Alcotest.test_case "rowf" `Quick test_table_rowf;
          Alcotest.test_case "csv escaping" `Quick test_table_csv_escaping;
          Alcotest.test_case "formatters" `Quick test_table_formatters;
        ] );
    ]
