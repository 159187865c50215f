module Counter = struct
  type op = Add of int | Value

  type state = int

  let apply s = function Add n -> s + n | Value -> s

  let class_of = function Add _ -> "add" | Value -> "value"

  let pp_op ppf = function
    | Add n -> Format.fprintf ppf "add(%d)" n
    | Value -> Format.pp_print_string ppf "value"

  let spec =
    Seq_spec.make ~name:"counter" ~init:0 ~apply ~equal:Int.equal
      ~classes:[ "add"; "value" ]
      ~class_of
      ~commutes:(fun _ _ -> true)
      ~observer:(String.equal "value")
      ~observe:(fun s op ->
        match op with Value -> Some (string_of_int s) | _ -> None)
      ~pp_state:Format.pp_print_int ~pp_op ()
end

module Gset = struct
  module String_set = Set.Make (String)

  type op = Add of string | Elements

  type state = String_set.t

  let apply s = function Add e -> String_set.add e s | Elements -> s

  let class_of = function Add _ -> "add" | Elements -> "elements"

  let elements = String_set.elements

  let pp_op ppf = function
    | Add e -> Format.fprintf ppf "add(%s)" e
    | Elements -> Format.pp_print_string ppf "elements"

  let spec =
    Seq_spec.make ~name:"gset" ~init:String_set.empty ~apply
      ~equal:String_set.equal
      ~classes:[ "add"; "elements" ]
      ~class_of
      ~commutes:(fun _ _ -> true)
      ~observer:(String.equal "elements")
      ~observe:(fun s op ->
        match op with
        | Elements -> Some (String.concat "," (elements s))
        | _ -> None)
      ~digest:(fun s -> Hashtbl.hash (elements s))
      ~pp_state:(fun ppf s ->
        Format.fprintf ppf "{%s}" (String.concat "," (elements s)))
      ~pp_op ()
end

module Or_set = struct
  module Tagged = Set.Make (struct
    type t = string * int

    let compare = compare
  end)

  type op = Add of string * int | Remove of string | Elements

  type state = Tagged.t

  let apply s = function
    | Add (e, tag) -> Tagged.add (e, tag) s
    | Remove e -> Tagged.filter (fun (e', _) -> not (String.equal e e')) s
    | Elements -> s

  let class_of = function
    | Add _ -> "add"
    | Remove _ -> "remove"
    | Elements -> "elements"

  (* A remove reads the observed tag set (observer class, hence a sync
     point); it genuinely does not commute with an add of the same
     element, so the relation says so — the lint only has to discharge
     the declared-commuting pairs. *)
  let commutes a b =
    match (a, b) with
    | "add", "remove" | "remove", "add" -> false
    | _ -> true

  let mem s e = Tagged.exists (fun (e', _) -> String.equal e e') s

  let elements s =
    List.sort_uniq String.compare
      (List.map fst (Tagged.elements s))

  let tags s e =
    List.filter_map
      (fun (e', t) -> if String.equal e e' then Some t else None)
      (Tagged.elements s)

  let pp_op ppf = function
    | Add (e, t) -> Format.fprintf ppf "add(%s#%d)" e t
    | Remove e -> Format.fprintf ppf "remove(%s)" e
    | Elements -> Format.pp_print_string ppf "elements"

  let spec =
    Seq_spec.make ~name:"or-set" ~init:Tagged.empty ~apply ~equal:Tagged.equal
      ~classes:[ "add"; "remove"; "elements" ]
      ~class_of ~commutes
      ~observer:(fun c -> c = "remove" || c = "elements")
      ~observe:(fun s op ->
        match op with
        | Elements -> Some (String.concat "," (elements s))
        | _ -> None)
      ~digest:(fun s -> Hashtbl.hash (Tagged.elements s))
      ~pp_state:(fun ppf s ->
        Format.fprintf ppf "{%s}" (String.concat "," (elements s)))
      ~pp_op ()
end

module Lww_map = struct
  module Smap = Map.Make (String)

  type entry = { ts : int; src : int; value : string option }

  type op =
    | Put of { key : string; ts : int; src : int; value : string }
    | Remove of { key : string; ts : int; src : int }
    | Get of string

  type state = entry Smap.t

  (* per-key max in the total order (ts, src, value): associative,
     commutative and idempotent, so every pair of mutations commutes *)
  let merge_entry key e s =
    Smap.update key
      (function
        | None -> Some e
        | Some prev ->
          if compare (e.ts, e.src, e.value) (prev.ts, prev.src, prev.value) > 0
          then Some e
          else Some prev)
      s

  let apply s = function
    | Put { key; ts; src; value } -> merge_entry key { ts; src; value = Some value } s
    | Remove { key; ts; src } -> merge_entry key { ts; src; value = None } s
    | Get _ -> s

  let class_of = function
    | Put _ -> "put"
    | Remove _ -> "remove"
    | Get _ -> "get"

  let find s k =
    match Smap.find_opt k s with Some { value; _ } -> value | None -> None

  let bindings s =
    Smap.fold
      (fun k e acc -> match e.value with Some v -> (k, v) :: acc | None -> acc)
      s []
    |> List.rev

  let pp_op ppf = function
    | Put { key; ts; src; value } ->
      Format.fprintf ppf "put(%s=%s@%d.%d)" key value ts src
    | Remove { key; ts; src } -> Format.fprintf ppf "rm(%s@%d.%d)" key ts src
    | Get k -> Format.fprintf ppf "get(%s)" k

  let spec =
    Seq_spec.make ~name:"lww-map" ~init:Smap.empty ~apply
      ~equal:(Smap.equal (fun a b -> compare a b = 0))
      ~classes:[ "put"; "remove"; "get" ]
      ~class_of
      ~commutes:(fun _ _ -> true)
      ~observer:(String.equal "get")
      ~observe:(fun s op -> match op with Get k -> find s k | _ -> None)
      ~digest:(fun s -> Hashtbl.hash (Smap.bindings s))
      ~pp_state:(fun ppf s ->
        Format.fprintf ppf "{%s}"
          (String.concat ","
             (List.map (fun (k, v) -> k ^ "=" ^ v) (bindings s))))
      ~pp_op ()
end

module Rga = struct
  type id = int * int

  module Id_map = Map.Make (struct
    type t = id

    let compare = compare
  end)

  module Id_set = Set.Make (struct
    type t = id

    let compare = compare
  end)

  type node = { ch : string; after : id option }

  type state = { nodes : node Id_map.t; tombs : Id_set.t }

  type op =
    | Insert of { id : id; after : id option; ch : string }
    | Delete of id
    | Read

  (* Both mutators are structural additions under globally unique keys —
     a map add and a tombstone add — so any two commute; the sequence
     order is recovered only when somebody reads. *)
  let apply s = function
    | Insert { id; after; ch } ->
      { s with nodes = Id_map.add id { ch; after } s.nodes }
    | Delete id -> { s with tombs = Id_set.add id s.tombs }
    | Read -> s

  let class_of = function
    | Insert _ -> "insert"
    | Delete _ -> "delete"
    | Read -> "read"

  let to_text s =
    (* children of each anchor in descending id order: Id_map.iter runs
       in ascending key order, so prepending builds descending lists *)
    let children = Hashtbl.create 16 in
    Id_map.iter
      (fun id _ ->
        let anchor = (Id_map.find id s.nodes).after in
        let siblings =
          Option.value ~default:[] (Hashtbl.find_opt children anchor)
        in
        Hashtbl.replace children anchor (id :: siblings))
      s.nodes;
    let buf = Buffer.create 64 in
    let rec visit anchor =
      List.iter
        (fun id ->
          if not (Id_set.mem id s.tombs) then
            Buffer.add_string buf (Id_map.find id s.nodes).ch;
          visit (Some id))
        (Option.value ~default:[] (Hashtbl.find_opt children anchor))
    in
    visit None;
    Buffer.contents buf

  let size s =
    Id_map.fold
      (fun id _ n -> if Id_set.mem id s.tombs then n else n + 1)
      s.nodes 0

  let equal a b =
    Id_map.equal (fun x y -> x = y) a.nodes b.nodes
    && Id_set.equal a.tombs b.tombs

  let pp_op ppf = function
    | Insert { id = s, r; after; ch } ->
      Format.fprintf ppf "ins(%s@%d.%d after %s)" ch s r
        (match after with
        | None -> "^"
        | Some (s', r') -> Printf.sprintf "%d.%d" s' r')
    | Delete (s, r) -> Format.fprintf ppf "del(%d.%d)" s r
    | Read -> Format.pp_print_string ppf "read"

  let spec =
    Seq_spec.make ~name:"rga"
      ~init:{ nodes = Id_map.empty; tombs = Id_set.empty }
      ~apply ~equal
      ~classes:[ "insert"; "delete"; "read" ]
      ~class_of
      ~commutes:(fun _ _ -> true)
      ~observer:(String.equal "read")
      ~observe:(fun s op -> match op with Read -> Some (to_text s) | _ -> None)
      ~digest:(fun s ->
        Hashtbl.hash (Id_map.bindings s.nodes, Id_set.elements s.tombs))
      ~pp_state:(fun ppf s -> Format.fprintf ppf "%S" (to_text s))
      ~pp_op ()
end
