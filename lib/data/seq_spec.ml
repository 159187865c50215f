type ('op, 'state) t = {
  name : string;
  init : 'state;
  apply : 'state -> 'op -> 'state;
  equal : 'state -> 'state -> bool;
  classes : string list;
  class_of : 'op -> string;
  commutes : string -> string -> bool;
  observer : string -> bool;
  observe : 'state -> 'op -> string option;
  digest : 'state -> int;
  pp_state : Format.formatter -> 'state -> unit;
  pp_op : Format.formatter -> 'op -> unit;
  cid : string list;
}

let default_pp ppf _ = Format.pp_print_string ppf "<opaque>"

(* The derivation: Cid is the largest conflict-free subset of the
   non-observer, self-commuting classes.  Candidates conflicting with a
   remaining candidate are dropped greedily, worst offender first; on a
   tie the later-declared class loses, so the result is deterministic in
   the declaration order.  Dropping (rather than solving max-clique
   exactly) is conservative: a class demoted to Ncid only costs
   concurrency, never safety. *)
let derive_cid ~classes ~commutes ~observer =
  let candidates =
    List.filter (fun c -> (not (observer c)) && commutes c c) classes
  in
  let rec shrink cs =
    let conflicts c =
      List.length (List.filter (fun c' -> not (commutes c c')) cs)
    in
    let worst =
      List.fold_left
        (fun acc c ->
          let k = conflicts c in
          if k = 0 then acc
          else
            match acc with
            | Some (_, k') when k' > k -> acc
            | _ -> Some (c, k))
        None cs
    in
    match worst with
    | None -> cs
    | Some (c, _) -> shrink (List.filter (fun c' -> c' <> c) cs)
  in
  shrink candidates

let make ~name ~init ~apply ~equal ~classes ~class_of ~commutes
    ?(observer = fun _ -> false) ?(observe = fun _ _ -> None)
    ?(digest = Hashtbl.hash) ?(pp_state = default_pp) ?(pp_op = default_pp) ()
    =
  if classes = [] then
    invalid_arg (Printf.sprintf "Seq_spec.make(%s): no classes" name);
  let rec dup = function
    | [] -> None
    | c :: rest -> if List.mem c rest then Some c else dup rest
  in
  (match dup classes with
  | Some c ->
    invalid_arg (Printf.sprintf "Seq_spec.make(%s): duplicate class %S" name c)
  | None -> ());
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          if commutes a b <> commutes b a then
            invalid_arg
              (Printf.sprintf
                 "Seq_spec.make(%s): commutes is asymmetric on (%S, %S)" name
                 a b))
        classes)
    classes;
  let cid = derive_cid ~classes ~commutes ~observer in
  {
    name;
    init;
    apply;
    equal;
    classes;
    class_of;
    commutes;
    observer;
    observe;
    digest;
    pp_state;
    pp_op;
    cid;
  }

let cid_classes t = t.cid

(* [String.equal], not [List.mem]'s polymorphic compare: this runs on
   every delivery the §6.1 trackers classify. *)
let rec mem_class c = function
  | [] -> false
  | c' :: rest -> String.equal c c' || mem_class c rest

let is_cid t op = mem_class (t.class_of op) t.cid

let kind t op = if is_cid t op then Op.Commutative else Op.Non_commutative

let commute_at t s a b =
  t.equal (t.apply (t.apply s a) b) (t.apply (t.apply s b) a)

let class_pairs t =
  let rec pairs = function
    | [] -> []
    | a :: rest ->
      List.filter_map
        (fun b -> if t.commutes a b then Some (a, b) else None)
        (a :: rest)
      @ pairs rest
  in
  pairs t.classes
