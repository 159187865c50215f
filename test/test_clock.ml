(* Unit tests for logical clocks: Lamport and vector. *)

module Lamport = Causalb_clock.Lamport
module Vc = Causalb_clock.Vector_clock

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* --- Lamport --- *)

let test_lamport_tick () =
  let c = Lamport.zero in
  let c1 = Lamport.tick c in
  let c2 = Lamport.tick c1 in
  check_int "tick twice" 2 (Lamport.to_int c2);
  check "monotone" true (Lamport.compare c c2 < 0)

let test_lamport_receive () =
  let local = Lamport.of_int 3 and remote = Lamport.of_int 7 in
  check_int "max+1" 8 (Lamport.to_int (Lamport.receive ~local ~remote));
  check_int "symmetric" 8 (Lamport.to_int (Lamport.receive ~local:remote ~remote:local))

let test_lamport_of_int_negative () =
  Alcotest.check_raises "negative" (Invalid_argument "Lamport.of_int: negative")
    (fun () -> ignore (Lamport.of_int (-1)))

let test_lamport_clock_condition () =
  (* If event a's processing happens before b (b sees a's timestamp via
     receive), then L(a) < L(b). *)
  let a = Lamport.tick (Lamport.of_int 5) in
  let b = Lamport.receive ~local:Lamport.zero ~remote:a in
  check "clock condition" true (Lamport.compare a b < 0)

let prop ~name ~count gen p =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen p)

(* --- Vector clocks --- *)

let test_vc_create () =
  let v = Vc.create 3 in
  check_int "size" 3 (Vc.size v);
  for i = 0 to 2 do
    check_int "zero" 0 (Vc.get v i)
  done;
  Alcotest.check_raises "bad size"
    (Invalid_argument "Vector_clock.create: size must be positive") (fun () ->
      ignore (Vc.create 0))

let test_vc_tick_functional () =
  let v = Vc.create 3 in
  let v1 = Vc.tick v 1 in
  check_int "ticked" 1 (Vc.get v1 1);
  check_int "original untouched" 0 (Vc.get v 1)

let test_vc_merge_lub () =
  let a = Vc.of_array [| 1; 5; 2 |] and b = Vc.of_array [| 3; 1; 2 |] in
  let m = Vc.merge a b in
  check "lub" true (Vc.equal m (Vc.of_array [| 3; 5; 2 |]));
  check "a <= m" true (Vc.leq a m);
  check "b <= m" true (Vc.leq b m)

let test_vc_orderings () =
  let a = Vc.of_array [| 1; 0 |] in
  let b = Vc.of_array [| 1; 1 |] in
  let c = Vc.of_array [| 0; 2 |] in
  check "a < b" true (Vc.compare_causal a b = Vc.Before);
  check "b > a" true (Vc.compare_causal b a = Vc.After);
  check "a || c" true (Vc.compare_causal a c = Vc.Concurrent);
  check "a = a" true (Vc.compare_causal a a = Vc.Equal);
  check "concurrent fn" true (Vc.concurrent a c);
  check "lt strict" true (Vc.lt a b && not (Vc.lt a a))

let test_vc_receive () =
  let local = Vc.of_array [| 2; 0; 1 |] in
  let remote = Vc.of_array [| 1; 3; 0 |] in
  let v = Vc.receive ~local ~remote ~me:0 in
  check "receive merges and ticks" true (Vc.equal v (Vc.of_array [| 3; 3; 1 |]))

let test_vc_size_mismatch () =
  Alcotest.check_raises "mismatch" (Invalid_argument "Vector_clock: size mismatch")
    (fun () -> ignore (Vc.merge (Vc.create 2) (Vc.create 3)))

let test_vc_dominates_all () =
  let v = Vc.of_array [| 3; 3 |] in
  check "dominates" true
    (Vc.dominates_all v [ Vc.of_array [| 1; 2 |]; Vc.of_array [| 3; 0 |] ]);
  check "not dominates" false (Vc.dominates_all v [ Vc.of_array [| 4; 0 |] ])

let test_vc_happens_before_characterisation () =
  (* Simulate three processes: e1 at p0, then p1 receives and e2, then p2
     receives from p1 and e3.  V(e1) < V(e2) < V(e3). *)
  let p0 = Vc.tick (Vc.create 3) 0 in
  let p1 = Vc.receive ~local:(Vc.create 3) ~remote:p0 ~me:1 in
  let p2 = Vc.receive ~local:(Vc.create 3) ~remote:p1 ~me:2 in
  check "e1 < e2" true (Vc.lt p0 p1);
  check "e2 < e3" true (Vc.lt p1 p2);
  check "e1 < e3 (transitive)" true (Vc.lt p0 p2)

(* --- in-place operations: must agree with the pure ones --- *)

let test_vc_copy_independent () =
  let v = Vc.of_array [| 1; 2; 3 |] in
  let c = Vc.copy v in
  Vc.bump c 0;
  check_int "copy bumped" 2 (Vc.get c 0);
  check_int "original untouched" 1 (Vc.get v 0)

let test_vc_merge_into () =
  let a = Vc.of_array [| 1; 5; 2 |] and b = Vc.of_array [| 3; 1; 2 |] in
  let into = Vc.copy a in
  Vc.merge_into ~into b;
  check "merge_into = merge" true (Vc.equal into (Vc.merge a b));
  check "source untouched" true (Vc.equal b (Vc.of_array [| 3; 1; 2 |]))

let test_vc_receive_into () =
  let local = Vc.of_array [| 2; 0; 4 |] in
  let remote = Vc.of_array [| 1; 3; 4 |] in
  let expected = Vc.receive ~local ~remote ~me:1 in
  let l = Vc.copy local in
  Vc.receive_into ~local:l ~remote ~me:1;
  check "receive_into = receive" true (Vc.equal l expected)

let test_vc_with_component () =
  let v = Vc.of_array [| 4; 7; 1 |] in
  let w = Vc.with_component v 1 99 in
  check "swapped" true (Vc.equal w (Vc.of_array [| 4; 99; 1 |]));
  check "original untouched" true (Vc.equal v (Vc.of_array [| 4; 7; 1 |]))

(* random clock pairs of equal size *)
let vc_pair_gen =
  QCheck2.Gen.(
    int_range 1 16 >>= fun n ->
    let comp = int_range 0 50 in
    pair (array_size (return n) comp) (array_size (return n) comp))

let prop_merge_into_agrees =
  prop ~name:"merge_into agrees with merge" ~count:200 vc_pair_gen
    (fun (a, b) ->
      let va = Vc.of_array a and vb = Vc.of_array b in
      let into = Vc.copy va in
      Vc.merge_into ~into vb;
      Vc.equal into (Vc.merge va vb))

let prop_receive_into_agrees =
  prop ~name:"receive_into agrees with receive" ~count:200
    QCheck2.Gen.(pair vc_pair_gen (int_range 0 1000))
    (fun ((a, b), k) ->
      let me = k mod Array.length a in
      let local = Vc.of_array a and remote = Vc.of_array b in
      let expected = Vc.receive ~local ~remote ~me in
      let l = Vc.copy local in
      Vc.receive_into ~local:l ~remote ~me;
      Vc.equal l expected)

let prop_with_component_agrees =
  prop ~name:"with_component = functional update" ~count:200
    QCheck2.Gen.(pair vc_pair_gen (int_range 0 1000))
    (fun ((a, _), k) ->
      let i = k mod Array.length a in
      let v = Vc.of_array a in
      let w = Vc.with_component v i 123 in
      let expected = Array.copy a in
      expected.(i) <- 123;
      Vc.equal w (Vc.of_array expected) && Vc.equal v (Vc.of_array a))

let prop_bump_agrees =
  prop ~name:"bump agrees with tick" ~count:200
    QCheck2.Gen.(pair vc_pair_gen (int_range 0 1000))
    (fun ((a, _), k) ->
      let i = k mod Array.length a in
      let v = Vc.of_array a in
      let expected = Vc.tick v i in
      Vc.bump v i;
      Vc.equal v expected)

(* --- BSS delivery kernels: must agree with the rule written out --- *)

let naive_deliverable d s sender =
  let ok = ref true in
  Array.iteri
    (fun k v ->
      if k = sender then (if v <> d.(k) + 1 then ok := false)
      else if v > d.(k) then ok := false)
    s;
  !ok

(* [Bss.park]'s registrations written out: the sender's threshold
   first, then each other unmet component in ascending order. *)
let naive_unmet d s sender =
  let acc = ref [] in
  if d.(sender) < s.(sender) - 1 then acc := [ (sender, s.(sender) - 1) ];
  for k = 0 to Array.length d - 1 do
    if k <> sender && d.(k) < s.(k) then acc := (k, s.(k)) :: !acc
  done;
  List.rev !acc

(* Stamps near the delivered vector: the sender's component equal to it,
   one or two ahead; the others at or below it, except at most one
   ahead at index 0, just before or after the sender, or at n-1. *)
let delivery_gen =
  QCheck2.Gen.(
    int_range 1 64 >>= fun n ->
    array_size (return n) (int_range 0 5) >>= fun d ->
    int_range 0 (n - 1) >>= fun sender ->
    int_range 0 2 >>= fun lead ->
    array_size (return n) (int_range 0 2) >>= fun below ->
    oneofl [ None; Some 0; Some (sender - 1); Some (sender + 1); Some (n - 1) ]
    >>= fun ahead ->
    int_range 1 2 >|= fun by ->
    let s = Array.mapi (fun k v -> max 0 (v - below.(k))) d in
    s.(sender) <- d.(sender) + lead;
    (match ahead with
     | Some k when k >= 0 && k < n && k <> sender -> s.(k) <- d.(k) + by
     | _ -> ());
    (d, s, sender))

let prop_deliverable_agrees =
  prop ~name:"deliverable = delivery rule" ~count:500 delivery_gen
    (fun (d, s, sender) ->
      Vc.deliverable ~delivered:(Vc.of_array d) ~stamp:(Vc.of_array s) ~sender
      = naive_deliverable d s sender)

let prop_iter_unmet_agrees =
  prop ~name:"iter_unmet = park thresholds" ~count:500 delivery_gen
    (fun (d, s, sender) ->
      let got = ref [] in
      Vc.iter_unmet ~delivered:(Vc.of_array d) ~stamp:(Vc.of_array s) ~sender
        (fun k v -> got := (k, v) :: !got);
      List.rev !got = naive_unmet d s sender)

let test_kernels_reject_bad_input () =
  let d = Vc.create 3 in
  let mismatch = Invalid_argument "Vector_clock: size mismatch" in
  let range = Invalid_argument "Vector_clock: process index out of range" in
  let both name exn ~stamp ~sender =
    Alcotest.check_raises (name ^ ": deliverable") exn (fun () ->
        ignore (Vc.deliverable ~delivered:d ~stamp ~sender));
    Alcotest.check_raises (name ^ ": iter_unmet") exn (fun () ->
        Vc.iter_unmet ~delivered:d ~stamp ~sender (fun _ _ -> ()))
  in
  both "long stamp" mismatch ~stamp:(Vc.create 4) ~sender:0;
  both "short stamp" mismatch ~stamp:(Vc.create 2) ~sender:0;
  both "sender = n" range ~stamp:(Vc.create 3) ~sender:3;
  both "negative sender" range ~stamp:(Vc.create 3) ~sender:(-1)

let test_vc_init () =
  let next = ref 10 in
  let v = Vc.init 4 (fun _ -> incr next; !next) in
  check "applied in index order" true (Vc.equal v (Vc.of_array [| 11; 12; 13; 14 |]));
  Alcotest.check_raises "bad size"
    (Invalid_argument "Vector_clock.init: size must be positive") (fun () ->
      ignore (Vc.init 0 (fun _ -> 0)))

let () =
  Alcotest.run "clock"
    [
      ( "lamport",
        [
          Alcotest.test_case "tick" `Quick test_lamport_tick;
          Alcotest.test_case "receive" `Quick test_lamport_receive;
          Alcotest.test_case "of_int negative" `Quick test_lamport_of_int_negative;
          Alcotest.test_case "clock condition" `Quick test_lamport_clock_condition;
        ] );
      ( "vector",
        [
          Alcotest.test_case "create" `Quick test_vc_create;
          Alcotest.test_case "tick functional" `Quick test_vc_tick_functional;
          Alcotest.test_case "merge lub" `Quick test_vc_merge_lub;
          Alcotest.test_case "orderings" `Quick test_vc_orderings;
          Alcotest.test_case "receive" `Quick test_vc_receive;
          Alcotest.test_case "size mismatch" `Quick test_vc_size_mismatch;
          Alcotest.test_case "dominates_all" `Quick test_vc_dominates_all;
          Alcotest.test_case "happens-before" `Quick test_vc_happens_before_characterisation;
          Alcotest.test_case "init" `Quick test_vc_init;
        ] );
      ( "vector kernels",
        [
          prop_deliverable_agrees;
          prop_iter_unmet_agrees;
          Alcotest.test_case "bad input rejected" `Quick
            test_kernels_reject_bad_input;
        ] );
      ( "vector in-place",
        [
          Alcotest.test_case "copy independent" `Quick test_vc_copy_independent;
          Alcotest.test_case "merge_into" `Quick test_vc_merge_into;
          Alcotest.test_case "receive_into" `Quick test_vc_receive_into;
          Alcotest.test_case "with_component" `Quick test_vc_with_component;
          prop_merge_into_agrees;
          prop_receive_into_agrees;
          prop_with_component_agrees;
          prop_bump_agrees;
        ] );
    ]
