(* Every datatype is a sequential specification: state, transition
   function, a class-level commutativity relation, and (optionally)
   observer classes.  The Cid/Ncid labeling the §6 access protocol needs
   is DERIVED from the relation by Seq_spec.make — no constructor is
   hand-marked, and Commute_lint validates each declared-commuting pair
   against Seq_spec.commute_at from reachable states. *)

module Int_register = struct
  type op = Inc of int | Dec of int | Set of int | Read

  type state = int

  let apply s = function
    | Inc n -> s + n
    | Dec n -> s - n
    | Set n -> n
    | Read -> s

  let class_of = function
    | Inc _ -> "inc"
    | Dec _ -> "dec"
    | Set _ -> "set"
    | Read -> "read"

  (* inc/dec are additions — they commute among themselves; set conflicts
     with everything including itself; read is the identity (commutes
     with all) but its return value is order-sensitive: observer. *)
  let commutes a b =
    match (a, b) with
    | "set", _ | _, "set" -> false
    | _ -> true

  let pp_op ppf = function
    | Inc n -> Format.fprintf ppf "inc(%d)" n
    | Dec n -> Format.fprintf ppf "dec(%d)" n
    | Set n -> Format.fprintf ppf "set(%d)" n
    | Read -> Format.pp_print_string ppf "rd"

  let spec =
    Seq_spec.make ~name:"int-register" ~init:0 ~apply ~equal:Int.equal
      ~classes:[ "inc"; "dec"; "set"; "read" ]
      ~class_of ~commutes
      ~observer:(String.equal "read")
      ~observe:(fun s op ->
        match op with Read -> Some (string_of_int s) | _ -> None)
      ~pp_state:Format.pp_print_int ~pp_op ()
end

module Multi_register = struct
  type op = Inc of int * int | Dec of int * int | Set of int * int | Read_all

  type state = int array

  let check_item items i =
    if i < 0 || i >= items then
      invalid_arg (Printf.sprintf "Multi_register: item %d out of range" i)

  let apply items s op =
    let upd i f =
      check_item items i;
      let s' = Array.copy s in
      s'.(i) <- f s'.(i);
      s'
    in
    match op with
    | Inc (i, n) -> upd i (fun v -> v + n)
    | Dec (i, n) -> upd i (fun v -> v - n)
    | Set (i, n) -> upd i (fun _ -> n)
    | Read_all -> s

  let class_of = function
    | Inc _ -> "inc"
    | Dec _ -> "dec"
    | Set _ -> "set"
    | Read_all -> "read-all"

  (* Classes are per constructor, not per item: a set on item i commutes
     with a set on item j ≠ i, but the class-level relation must answer
     for the same-item case too, so "set" conflicts (conservative — the
     per-item Item_frontend recovers the lost concurrency by scoping). *)
  let commutes a b =
    match (a, b) with
    | "set", _ | _, "set" -> false
    | _ -> true

  let pp_op ppf = function
    | Inc (i, n) -> Format.fprintf ppf "inc(x%d,%d)" i n
    | Dec (i, n) -> Format.fprintf ppf "dec(x%d,%d)" i n
    | Set (i, n) -> Format.fprintf ppf "set(x%d,%d)" i n
    | Read_all -> Format.pp_print_string ppf "rd*"

  let pp_state ppf s =
    Format.fprintf ppf "[%s]"
      (String.concat ";" (Array.to_list (Array.map string_of_int s)))

  let render s =
    String.concat ";" (Array.to_list (Array.map string_of_int s))

  let spec ~items =
    if items <= 0 then invalid_arg "Multi_register.spec: items <= 0";
    Seq_spec.make ~name:"multi-register" ~init:(Array.make items 0)
      ~apply:(apply items)
      ~equal:(fun a b -> a = b)
      ~classes:[ "inc"; "dec"; "set"; "read-all" ]
      ~class_of ~commutes
      ~observer:(String.equal "read-all")
      ~observe:(fun s op ->
        match op with Read_all -> Some (render s) | _ -> None)
      ~pp_state ~pp_op ()
end

module Kv_store = struct
  module Smap = Map.Make (String)

  type op = Upd of string * string | Del of string | Qry of string

  type state = string Smap.t

  let apply s = function
    | Upd (k, v) -> Smap.add k v s
    | Del k -> Smap.remove k s
    | Qry _ -> s

  let class_of = function
    | Upd _ -> "upd"
    | Del _ -> "del"
    | Qry _ -> "qry"

  (* upd conflicts with itself (last writer wins by order) and with del;
     del/del commute (removals are idempotent unions), and the derivation
     discovers it — del is Cid here where the hand-marked seed said Ncid.
     qry is the identity; the name-service protocol layer adds the
     context check that catches order-sensitive answers, which is why it
     is deliberately NOT an observer (§5.2). *)
  let commutes a b =
    match (a, b) with
    | "upd", ("upd" | "del") | "del", "upd" -> false
    | _ -> true

  let pp_op ppf = function
    | Upd (k, v) -> Format.fprintf ppf "upd(%s=%s)" k v
    | Del k -> Format.fprintf ppf "del(%s)" k
    | Qry k -> Format.fprintf ppf "qry(%s)" k

  let pp_state ppf s =
    Format.fprintf ppf "{%s}"
      (String.concat ","
         (List.map (fun (k, v) -> k ^ "=" ^ v) (Smap.bindings s)))

  let spec =
    Seq_spec.make ~name:"kv-store" ~init:Smap.empty ~apply
      ~equal:(Smap.equal String.equal)
      ~classes:[ "upd"; "del"; "qry" ]
      ~class_of ~commutes
      ~observe:(fun s op ->
        match op with Qry k -> Smap.find_opt k s | _ -> None)
      ~digest:(fun s -> Hashtbl.hash (Smap.bindings s))
      ~pp_state ~pp_op ()

  let lookup s k = Smap.find_opt k s
end

module Document = struct
  module String_set = Set.Make (String)

  type op = Annotate of int * string | Commit of int * string | Review

  type section = { body : string; annotations : String_set.t }

  type state = section array

  let check_section sections i =
    if i < 0 || i >= sections then
      invalid_arg (Printf.sprintf "Document: section %d out of range" i)

  let apply sections s op =
    let upd i f =
      check_section sections i;
      let s' = Array.copy s in
      s'.(i) <- f s'.(i);
      s'
    in
    match op with
    | Annotate (i, text) ->
      upd i (fun sec ->
          { sec with annotations = String_set.add text sec.annotations })
    | Commit (i, body) ->
      (* A commit folds accepted annotations into the body and clears
         them: it reads the annotation set, so it cannot commute with
         concurrent annotations. *)
      upd i (fun _ -> { body; annotations = String_set.empty })
    | Review -> s

  let class_of = function
    | Annotate _ -> "annotate"
    | Commit _ -> "commit"
    | Review -> "review"

  let commutes a b =
    match (a, b) with
    | "commit", _ | _, "commit" -> false
    | _ -> true

  let equal a b =
    Array.length a = Array.length b
    && Array.for_all2
         (fun x y ->
           String.equal x.body y.body
           && String_set.equal x.annotations y.annotations)
         a b

  let pp_op ppf = function
    | Annotate (i, t) -> Format.fprintf ppf "annotate(s%d,%S)" i t
    | Commit (i, b) -> Format.fprintf ppf "commit(s%d,%S)" i b
    | Review -> Format.pp_print_string ppf "review"

  let render s =
    let buf = Buffer.create 256 in
    Array.iteri
      (fun i sec ->
        Buffer.add_string buf (Printf.sprintf "## section %d\n%s\n" i sec.body);
        String_set.iter
          (fun a -> Buffer.add_string buf (Printf.sprintf "  [note] %s\n" a))
          sec.annotations)
      s;
    Buffer.contents buf

  let pp_state ppf s = Format.pp_print_string ppf (render s)

  let spec ~sections =
    if sections <= 0 then invalid_arg "Document.spec: sections <= 0";
    let init =
      Array.init sections (fun _ ->
          { body = ""; annotations = String_set.empty })
    in
    Seq_spec.make ~name:"document" ~init ~apply:(apply sections) ~equal
      ~classes:[ "annotate"; "commit"; "review" ]
      ~class_of ~commutes
      ~observer:(String.equal "review")
      ~observe:(fun s op ->
        match op with Review -> Some (render s) | _ -> None)
      ~digest:(fun s ->
        Hashtbl.hash
          (Array.map
             (fun sec -> (sec.body, String_set.elements sec.annotations))
             s))
      ~pp_state ~pp_op ()
end

module Log = struct
  type entry = { author : int; seq : int; text : string }

  type op = Append of entry | Seal

  type state = { sealed : entry list list; open_ : entry list }

  let entry ~author ~seq text = { author; seq; text }

  let cmp_entry a b =
    match Int.compare a.author b.author with
    | 0 -> Int.compare a.seq b.seq
    | c -> c

  let apply s = function
    | Append e ->
      (* canonical order makes concurrent appends commute *)
      { s with open_ = List.sort_uniq cmp_entry (e :: s.open_) }
    | Seal -> { sealed = s.open_ :: s.sealed; open_ = [] }

  let class_of = function Append _ -> "append" | Seal -> "seal"

  (* Sealing reads the whole open set (the rotated segment's contents are
     order-sensitive): observer, hence Ncid. *)
  let commutes a b =
    match (a, b) with
    | "append", "seal" | "seal", "append" -> false
    | _ -> true

  let pp_op ppf = function
    | Append e -> Format.fprintf ppf "append(%d.%d,%S)" e.author e.seq e.text
    | Seal -> Format.pp_print_string ppf "seal"

  let pp_state ppf s =
    Format.fprintf ppf "open=%d sealed-segments=%d" (List.length s.open_)
      (List.length s.sealed)

  let spec =
    Seq_spec.make ~name:"log" ~init:{ sealed = []; open_ = [] } ~apply
      ~equal:(fun a b -> a = b)
      ~classes:[ "append"; "seal" ]
      ~class_of ~commutes
      ~observer:(String.equal "seal")
      ~observe:(fun s op ->
        match op with
        | Seal -> Some (Printf.sprintf "sealed %d entries" (List.length s.open_))
        | _ -> None)
      ~pp_state ~pp_op ()
end

module Bank_account = struct
  type op = Deposit of int | Withdraw of int | Withdraw_checked of int | Audit

  type state = { balance : int; rejected : int }

  let apply s = function
    | Deposit n -> { s with balance = s.balance + n }
    | Withdraw n -> { s with balance = s.balance - n }
    | Withdraw_checked n ->
      if s.balance >= n then { s with balance = s.balance - n }
      else { s with rejected = s.rejected + 1 }
    | Audit -> s

  let class_of = function
    | Deposit _ -> "deposit"
    | Withdraw _ -> "withdraw"
    | Withdraw_checked _ -> "withdraw-checked"
    | Audit -> "audit"

  (* A checked withdrawal is order-sensitive near the balance boundary —
     against deposits, unconditional withdrawals and other checked
     withdrawals alike. *)
  let commutes a b =
    match (a, b) with
    | "withdraw-checked", _ | _, "withdraw-checked" -> false
    | _ -> true

  let pp_op ppf = function
    | Deposit n -> Format.fprintf ppf "deposit(%d)" n
    | Withdraw n -> Format.fprintf ppf "withdraw(%d)" n
    | Withdraw_checked n -> Format.fprintf ppf "withdraw?(%d)" n
    | Audit -> Format.pp_print_string ppf "audit"

  let pp_state ppf s =
    Format.fprintf ppf "balance=%d rejected=%d" s.balance s.rejected

  let spec =
    Seq_spec.make ~name:"bank-account"
      ~init:{ balance = 0; rejected = 0 }
      ~apply
      ~equal:(fun a b -> a = b)
      ~classes:[ "deposit"; "withdraw"; "withdraw-checked"; "audit" ]
      ~class_of ~commutes
      ~observer:(String.equal "audit")
      ~observe:(fun s op ->
        match op with
        | Audit ->
          Some
            (Printf.sprintf "balance=%d rejected=%d" s.balance s.rejected)
        | _ -> None)
      ~pp_state ~pp_op ()
end

module Card_table = struct
  type op = Play of int * string | Round_end

  type round = (int * string) list

  type state = { finished : round list; table : round }

  let cmp_play (p1, c1) (p2, c2) =
    match Int.compare p1 p2 with 0 -> String.compare c1 c2 | c -> c

  let apply s = function
    | Play (player, card) ->
      (* Keep the table sorted so concurrent plays commute structurally. *)
      { s with table = List.sort cmp_play ((player, card) :: s.table) }
    | Round_end -> { finished = s.table :: s.finished; table = [] }

  let class_of = function Play _ -> "play" | Round_end -> "round-end"

  (* Ending a round reads the table (the recorded trick is
     order-sensitive): observer. *)
  let commutes a b =
    match (a, b) with
    | "play", "round-end" | "round-end", "play" -> false
    | _ -> true

  let pp_op ppf = function
    | Play (p, c) -> Format.fprintf ppf "play(p%d,%s)" p c
    | Round_end -> Format.pp_print_string ppf "round-end"

  let pp_round ppf r =
    Format.fprintf ppf "[%s]"
      (String.concat " "
         (List.map (fun (p, c) -> Printf.sprintf "p%d:%s" p c) r))

  let pp_state ppf s =
    Format.fprintf ppf "table=%a finished=%d" pp_round s.table
      (List.length s.finished)

  let spec =
    Seq_spec.make ~name:"card-table" ~init:{ finished = []; table = [] }
      ~apply
      ~equal:(fun a b -> a = b)
      ~classes:[ "play"; "round-end" ]
      ~class_of ~commutes
      ~observer:(String.equal "round-end")
      ~observe:(fun s op ->
        match op with
        | Round_end -> Some (Format.asprintf "%a" pp_round s.table)
        | _ -> None)
      ~pp_state ~pp_op ()
end
