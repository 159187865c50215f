module Rng = Causalb_util.Rng

type violation = {
  class_a : string;
  class_b : string;
  state : string;
  op_a : string;
  op_b : string;
}

type report = {
  spec_name : string;
  pairs_checked : int;
  pairs_skipped : int;
  checks : int;
  violations : violation list;
}

let ok r = r.violations = [] && r.pairs_skipped = 0

let pp_report ppf r =
  Format.fprintf ppf "%-14s %d pairs, %d checks%s: %s" r.spec_name
    r.pairs_checked r.checks
    (if r.pairs_skipped = 0 then ""
     else Printf.sprintf " (%d pairs skipped!)" r.pairs_skipped)
    (match r.violations with
    | [] -> "ok"
    | v :: _ ->
      Printf.sprintf "%d VIOLATIONS, e.g. (%s,%s) at %s: %s vs %s"
        (List.length r.violations) v.class_a v.class_b v.state v.op_a v.op_b)

let check (spec : _ Seq_spec.t) ~gen_op ~seed () =
  (* random walks, their maximum length, and the operation pairs sampled
     per declared-commuting class pair at each reached state *)
  let states = 40 and walk = 12 and samples = 8 in
  let rng = Rng.create seed in
  (* bucket a generated op pool by class so each declared-commuting pair
     can be sampled directly *)
  let pool = Hashtbl.create 8 in
  for _ = 1 to 64 * List.length spec.Seq_spec.classes do
    let op = gen_op rng in
    let c = spec.Seq_spec.class_of op in
    let prev = Option.value ~default:[] (Hashtbl.find_opt pool c) in
    Hashtbl.replace pool c (op :: prev)
  done;
  let bucket c =
    match Hashtbl.find_opt pool c with
    | Some ops -> Array.of_list ops
    | None -> [||]
  in
  let obligations =
    List.map
      (fun (a, b) -> (a, b, bucket a, bucket b))
      (Seq_spec.class_pairs spec)
  in
  let skipped =
    List.length
      (List.filter (fun (_, _, ba, bb) -> ba = [||] || bb = [||]) obligations)
  in
  let str pp v = Format.asprintf "%a" pp v in
  let checks = ref 0 and violations = ref [] in
  for _ = 1 to states do
    let s = ref spec.Seq_spec.init in
    let len = Rng.int rng (walk + 1) in
    for _ = 1 to len do
      let c = Rng.pick_list rng spec.Seq_spec.classes in
      match bucket c with
      | [||] -> ()
      | ops -> s := spec.Seq_spec.apply !s (Rng.pick rng ops)
    done;
    List.iter
      (fun (ca, cb, ba, bb) ->
        if ba <> [||] && bb <> [||] then
          for _ = 1 to samples do
            let a = Rng.pick rng ba and b = Rng.pick rng bb in
            incr checks;
            if not (Seq_spec.commute_at spec !s a b) then
              violations :=
                {
                  class_a = ca;
                  class_b = cb;
                  state = str spec.Seq_spec.pp_state !s;
                  op_a = str spec.Seq_spec.pp_op a;
                  op_b = str spec.Seq_spec.pp_op b;
                }
                :: !violations
          done)
      obligations
  done;
  {
    spec_name = spec.Seq_spec.name;
    pairs_checked = List.length obligations - skipped;
    pairs_skipped = skipped;
    checks = !checks;
    violations = List.rev !violations;
  }

(* generators: small domains so same-key / same-element collisions are
   actually exercised *)

let keys = [| "alpha"; "beta"; "gamma" |]

let gen_int_register r : Datatypes.Int_register.op =
  match Rng.int r 8 with
  | 0 | 1 | 2 -> Inc (1 + Rng.int r 9)
  | 3 | 4 | 5 -> Dec (1 + Rng.int r 9)
  | 6 -> Set (Rng.int r 100)
  | _ -> Read

let gen_multi_register ~items r : Datatypes.Multi_register.op =
  let i = Rng.int r items in
  match Rng.int r 8 with
  | 0 | 1 | 2 -> Inc (i, 1 + Rng.int r 9)
  | 3 | 4 | 5 -> Dec (i, 1 + Rng.int r 9)
  | 6 -> Set (i, Rng.int r 100)
  | _ -> Read_all

let gen_kv r : Datatypes.Kv_store.op =
  let k = Rng.pick r keys in
  match Rng.int r 4 with
  | 0 -> Upd (k, Printf.sprintf "v%d" (Rng.int r 20))
  | 1 -> Del k
  | _ -> Qry k

let gen_document ~sections r : Datatypes.Document.op =
  let i = Rng.int r sections in
  match Rng.int r 5 with
  | 0 | 1 | 2 -> Annotate (i, Printf.sprintf "note-%d" (Rng.int r 12))
  | 3 -> Commit (i, Printf.sprintf "body-%d" (Rng.int r 12))
  | _ -> Review

(* a log entry's (author, seq) key uniquely determines its text in any
   real execution — per-author sequence numbers are never reused — so
   the generator derives the text from the key *)
let gen_log r : Datatypes.Log.op =
  match Rng.int r 4 with
  | 0 | 1 | 2 ->
    let author = Rng.int r 3 and seq = Rng.int r 40 in
    Append
      (Datatypes.Log.entry ~author ~seq (Printf.sprintf "m%d.%d" author seq))
  | _ -> Seal

let gen_bank r : Datatypes.Bank_account.op =
  match Rng.int r 7 with
  | 0 | 1 -> Deposit (1 + Rng.int r 30)
  | 2 | 3 -> Withdraw (1 + Rng.int r 30)
  | 4 | 5 -> Withdraw_checked (1 + Rng.int r 30)
  | _ -> Audit

let gen_cards r : Datatypes.Card_table.op =
  match Rng.int r 5 with
  | 4 -> Round_end
  | _ ->
    Play (Rng.int r 4, Rng.pick r [| "A"; "K"; "Q"; "J"; "10"; "9" |])

let gen_counter r : Objects.Counter.op =
  match Rng.int r 5 with 4 -> Value | _ -> Add (Rng.int r 21 - 10)

let gen_gset r : Objects.Gset.op =
  match Rng.int r 5 with 4 -> Elements | _ -> Add (Rng.pick r keys)

let gen_or_set r : Objects.Or_set.op =
  match Rng.int r 6 with
  | 0 | 1 | 2 -> Add (Rng.pick r keys, Rng.int r 1000)
  | 3 | 4 -> Remove (Rng.pick r keys)
  | _ -> Elements

let gen_lww r : Objects.Lww_map.op =
  let key = Rng.pick r keys in
  let ts = Rng.int r 50 and src = Rng.int r 4 in
  match Rng.int r 5 with
  | 0 | 1 | 2 -> Put { key; ts; src; value = Printf.sprintf "v%d" (Rng.int r 20) }
  | 3 -> Remove { key; ts; src }
  | _ -> Get key

(* An RGA id uniquely determines its payload in any real execution (a
   client never reuses an id), so the generator derives the whole insert
   from the id: colliding draws yield identical operations, which is
   exactly the invariant insert/insert commutativity rests on. *)
let gen_rga r : Objects.Rga.op =
  match Rng.int r 6 with
  | 5 -> Read
  | 4 -> Delete (Rng.int r 13, Rng.int r 4)
  | _ ->
    let seq = Rng.int r 97 and src = Rng.int r 5 in
    let after = if seq mod 3 = 0 then None else Some (seq mod 13, src) in
    let ch = String.make 1 (Char.chr (97 + ((seq * 7) + src) mod 26)) in
    Insert { id = (seq, src); after; ch }

let suite ~seed =
  [
    check Datatypes.Int_register.spec ~gen_op:gen_int_register ~seed ();
    check
      (Datatypes.Multi_register.spec ~items:3)
      ~gen_op:(gen_multi_register ~items:3) ~seed ();
    check Datatypes.Kv_store.spec ~gen_op:gen_kv ~seed ();
    check
      (Datatypes.Document.spec ~sections:2)
      ~gen_op:(gen_document ~sections:2) ~seed ();
    check Datatypes.Log.spec ~gen_op:gen_log ~seed ();
    check Datatypes.Bank_account.spec ~gen_op:gen_bank ~seed ();
    check Datatypes.Card_table.spec ~gen_op:gen_cards ~seed ();
    check Objects.Counter.spec ~gen_op:gen_counter ~seed ();
    check Objects.Gset.spec ~gen_op:gen_gset ~seed ();
    check Objects.Or_set.spec ~gen_op:gen_or_set ~seed ();
    check Objects.Lww_map.spec ~gen_op:gen_lww ~seed ();
    check Objects.Rga.spec ~gen_op:gen_rga ~seed ();
  ]
