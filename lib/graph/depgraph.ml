type node = {
  label : Label.t;
  dep : Dep.t;
  mutable children : Label.t list; (* reversed insertion order *)
  mutable indeg : int;
      (* count of *present* ancestors, maintained as edges materialize,
         so roots/in_degrees/topological never recount parents *)
}

type t = {
  nodes : node Label.Tbl.t;
  pending_children : Label.t list Label.Tbl.t;
      (* ancestor not yet added -> children already registered; consumed
         when the ancestor arrives, so edge sets are independent of the
         order in which an observer sees the messages *)
  mutable order : Label.t list; (* reversed insertion order *)
  mutable n : int;
}

let create () =
  {
    nodes = Label.Tbl.create 64;
    pending_children = Label.Tbl.create 16;
    order = [];
    n = 0;
  }

let mem g l = Label.Tbl.mem g.nodes l

let size g = g.n

let labels g = List.rev g.order

let node g l =
  match Label.Tbl.find_opt g.nodes l with
  | Some n -> n
  | None -> raise Not_found

let dep_of g l = (node g l).dep

let parents g l =
  (* Only ancestors actually present in the graph: a predicate may name a
     message the observer has not yet seen. *)
  List.filter (mem g) (Dep.ancestors (node g l).dep)

let children g l = List.rev (node g l).children

let add g l ~dep =
  if mem g l then
    invalid_arg
      (Printf.sprintf "Depgraph.add: duplicate label %s" (Label.to_string l));
  (* Ancestors are messages that already exist (or will be filtered by
     [parents] if the observer adds them later); a label can never name
     itself, and since new nodes only point at older ones the graph is
     acyclic by construction.  We still reject self-loops explicitly. *)
  if List.exists (Label.equal l) (Dep.ancestors dep) then
    invalid_arg "Depgraph.add: self-dependency";
  let pending =
    Option.value ~default:[] (Label.Tbl.find_opt g.pending_children l)
  in
  Label.Tbl.remove g.pending_children l;
  let n = { label = l; dep; children = pending; indeg = 0 } in
  Label.Tbl.add g.nodes l n;
  g.order <- l :: g.order;
  g.n <- g.n + 1;
  (* children that named [l] before it arrived each gain their edge now *)
  List.iter
    (fun c ->
      let cn = Label.Tbl.find g.nodes c in
      cn.indeg <- cn.indeg + 1)
    pending;
  List.iter
    (fun anc ->
      match Label.Tbl.find_opt g.nodes anc with
      | Some a ->
        a.children <- l :: a.children;
        n.indeg <- n.indeg + 1
      | None ->
        let waiting =
          Option.value ~default:[]
            (Label.Tbl.find_opt g.pending_children anc)
        in
        Label.Tbl.replace g.pending_children anc (l :: waiting))
    (Dep.ancestors dep)

let reachable step g l =
  let seen = ref Label.Set.empty in
  let rec visit x =
    List.iter
      (fun y ->
        if not (Label.Set.mem y !seen) then begin
          seen := Label.Set.add y !seen;
          visit y
        end)
      (step g x)
  in
  visit l;
  !seen

let ancestors g l = reachable parents g l

let descendants g l = reachable children g l

let missing_parents g l =
  List.filter (fun a -> not (mem g a)) (Dep.ancestors (dep_of g l))

(* [add] only rejects self-loops: a predicate may name a label added
   later, and a later predicate may point back — the static lint needs to
   find the resulting cycles (they deadlock delivery).  Iterative DFS
   with a grey set; returns one cycle as a label path. *)
let find_cycle g =
  let state = Label.Tbl.create g.n in (* 0 = grey, 1 = black *)
  let cycle = ref None in
  let rec visit path l =
    if !cycle = None then
      match Label.Tbl.find_opt state l with
      | Some 1 -> ()
      | Some _ ->
        (* grey: [l] is on the current path — the cycle is the path
           suffix starting at its previous occurrence *)
        let rec suffix = function
          | [] -> []
          | x :: rest ->
            if Label.equal x l then [ x ] else x :: suffix rest
        in
        cycle := Some (List.rev (l :: suffix path))
      | None ->
        Label.Tbl.replace state l 0;
        List.iter (visit (l :: path)) (parents g l);
        Label.Tbl.replace state l 1
  in
  List.iter (fun l -> if !cycle = None then visit [] l) (labels g);
  !cycle

let shortest_path g a b =
  if not (mem g a && mem g b) then None
  else if Label.equal a b then Some [ a ]
  else begin
    let prev = Label.Tbl.create 16 in
    let queue = Queue.create () in
    Queue.add a queue;
    let found = ref false in
    while (not !found) && not (Queue.is_empty queue) do
      let x = Queue.pop queue in
      List.iter
        (fun c ->
          if (not (Label.Tbl.mem prev c)) && not (Label.equal c a) then begin
            Label.Tbl.replace prev c x;
            if Label.equal c b then found := true else Queue.add c queue
          end)
        (children g x)
    done;
    if not !found then None
    else begin
      let rec build acc x =
        if Label.equal x a then x :: acc
        else build (x :: acc) (Label.Tbl.find prev x)
      in
      Some (build [] b)
    end
  end

let happens_before g a b =
  (not (Label.equal a b)) && Label.Set.mem b (descendants g a)

let concurrent g a b =
  (not (Label.equal a b))
  && (not (happens_before g a b))
  && not (happens_before g b a)

(* Row [i] of [bits] (words [i*words .. (i+1)*words - 1]) is the ancestor
   set of the [i]-th label in insertion order.  A label whose parents all
   came earlier takes the union of their rows and the parents
   themselves.  Any other label (a forward reference, perhaps on a
   cycle) gets a DFS whose visited set is its own row, started from its
   parents without pre-marking the label itself: so, exactly like
   [ancestors], a label is its own ancestor only when a cycle leads back
   to it.  Rows are filled in rank order, so every row a union reads is
   final.  The index keeps the graph it was built from and that graph's
   size then, so a lint handed an index can tell that it answers for the
   graph it lints. *)
type reach = {
  graph : t;
  size : int;
  rank : int Label.Tbl.t;
  words : int;
  bits : int array;
}

let reach g =
  let labels = Array.of_list (labels g) in
  let n = Array.length labels in
  let rank = Label.Tbl.create (2 * n) in
  Array.iteri (fun i l -> Label.Tbl.replace rank l i) labels;
  let parents =
    Array.map
      (fun l ->
        List.filter_map (Label.Tbl.find_opt rank)
          (Dep.ancestors (dep_of g l)))
      labels
  in
  let words = (n + Sys.int_size - 1) / Sys.int_size in
  let bits = Array.make (n * words) 0 in
  let set row y =
    let k = row + (y / Sys.int_size) and m = 1 lsl (y mod Sys.int_size) in
    let fresh = bits.(k) land m = 0 in
    if fresh then bits.(k) <- bits.(k) lor m;
    fresh
  in
  for i = 0 to n - 1 do
    let row = i * words in
    if List.for_all (fun p -> p < i) parents.(i) then
      (* every parent's row is final: the ancestors are the parents and
         theirs — the common case, labels added after their ancestors *)
      List.iter
        (fun p ->
          ignore (set row p);
          let prow = p * words in
          for w = 0 to words - 1 do
            bits.(row + w) <- bits.(row + w) lor bits.(prow + w)
          done)
        parents.(i)
    else
      let rec visit x =
        List.iter (fun y -> if set row y then visit y) parents.(x)
      in
      visit i
  done;
  { graph = g; size = n; rank; words; bits }

let indexes r g = r.graph == g && r.size = g.n

let rank r l = Label.Tbl.find_opt r.rank l

let precedes_rank r i j =
  r.bits.((j * r.words) + (i / Sys.int_size)) land (1 lsl (i mod Sys.int_size))
  <> 0

let precedes r a b =
  let j = Label.Tbl.find r.rank b in
  match Label.Tbl.find_opt r.rank a with
  | None -> false
  | Some i -> precedes_rank r i j

let roots g = List.filter (fun l -> (node g l).indeg = 0) (labels g)

let leaves g = List.filter (fun l -> (node g l).children = []) (labels g)

let in_degrees g =
  let deg = Label.Tbl.create g.n in
  Label.Tbl.iter (fun l n -> Label.Tbl.replace deg l n.indeg) g.nodes;
  deg

let topological g =
  let deg = in_degrees g in
  let ready =
    List.filter (fun l -> Label.Tbl.find deg l = 0) (labels g)
    |> List.sort Label.compare
  in
  let rec loop ready acc =
    match ready with
    | [] -> List.rev acc
    | l :: rest ->
      let newly =
        List.filter
          (fun c ->
            let d = Label.Tbl.find deg c - 1 in
            Label.Tbl.replace deg c d;
            d = 0)
          (children g l)
      in
      loop (List.merge Label.compare rest (List.sort Label.compare newly)) (l :: acc)
  in
  loop ready []

let linearizations ?(limit = 10_000) g =
  let deg = in_degrees g in
  let results = ref [] and count = ref 0 in
  let ready =
    List.filter (fun l -> Label.Tbl.find deg l = 0) (labels g)
  in
  (* Depth-first enumeration of linear extensions: at each step pick each
     currently-ready node in turn. *)
  let rec go ready acc =
    if !count >= limit then ()
    else if List.length acc = g.n then begin
      results := List.rev acc :: !results;
      incr count
    end
    else
      List.iter
        (fun l ->
          if !count < limit then begin
            let newly =
              List.filter
                (fun c ->
                  let d = Label.Tbl.find deg c - 1 in
                  Label.Tbl.replace deg c d;
                  d = 0)
                (children g l)
            in
            let ready' = newly @ List.filter (fun x -> not (Label.equal x l)) ready in
            go ready' (l :: acc);
            (* undo *)
            List.iter
              (fun c -> Label.Tbl.replace deg c (Label.Tbl.find deg c + 1))
              (children g l)
          end)
        ready
  in
  go ready [];
  List.rev !results

let count_linearizations ?(cap = 1_000_000) g =
  let deg = in_degrees g in
  let count = ref 0 in
  let ready = List.filter (fun l -> Label.Tbl.find deg l = 0) (labels g) in
  let rec go ready depth =
    if !count >= cap then ()
    else if depth = g.n then incr count
    else
      List.iter
        (fun l ->
          if !count < cap then begin
            let newly =
              List.filter
                (fun c ->
                  let d = Label.Tbl.find deg c - 1 in
                  Label.Tbl.replace deg c d;
                  d = 0)
                (children g l)
            in
            let ready' = newly @ List.filter (fun x -> not (Label.equal x l)) ready in
            go ready' (depth + 1);
            List.iter
              (fun c -> Label.Tbl.replace deg c (Label.Tbl.find deg c + 1))
              (children g l)
          end)
        ready
  in
  go ready 0;
  !count

let sync_points g =
  let ls = labels g in
  List.filter
    (fun l ->
      List.for_all
        (fun other -> Label.equal l other || not (concurrent g l other))
        ls)
    ls

let restrict g keep =
  let g' = create () in
  List.iter
    (fun l ->
      if Label.Set.mem l keep then begin
        let dep =
          match dep_of g l with
          | Dep.Null -> Dep.Null
          | Dep.After a -> if Label.Set.mem a keep then Dep.After a else Dep.Null
          | Dep.After_all ls ->
            Dep.after_all (List.filter (fun a -> Label.Set.mem a keep) ls)
          | Dep.After_any ls ->
            (* Restriction may remove alternatives; keep the surviving ones. *)
            Dep.after_any (List.filter (fun a -> Label.Set.mem a keep) ls)
        in
        add g' l ~dep
      end)
    (labels g);
  g'

let verify_sequence g seq =
  let included = Label.Set.of_list seq in
  let delivered = ref Label.Set.empty in
  List.for_all
    (fun l ->
      let ok =
        match dep_of g l with
        | Dep.Null -> true
        | Dep.After a ->
          (not (Label.Set.mem a included)) || Label.Set.mem a !delivered
        | Dep.After_all ls ->
          List.for_all
            (fun a ->
              (not (Label.Set.mem a included)) || Label.Set.mem a !delivered)
            ls
        | Dep.After_any ls ->
          let relevant = List.filter (fun a -> Label.Set.mem a included) ls in
          relevant = [] || List.exists (fun a -> Label.Set.mem a !delivered) relevant
      in
      delivered := Label.Set.add l !delivered;
      ok)
    seq

let edges g =
  List.concat_map
    (fun l -> List.map (fun c -> (l, c)) (children g l))
    (labels g)

let pp ppf g =
  Format.fprintf ppf "@[<v>";
  List.iter
    (fun l ->
      Format.fprintf ppf "%a %a@," Label.pp l Dep.pp (dep_of g l))
    (labels g);
  Format.fprintf ppf "@]"

let to_dot g =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "digraph deps {\n";
  List.iter
    (fun l ->
      Buffer.add_string buf (Printf.sprintf "  \"%s\";\n" (Label.to_string l)))
    (labels g);
  List.iter
    (fun (a, b) ->
      Buffer.add_string buf
        (Printf.sprintf "  \"%s\" -> \"%s\";\n" (Label.to_string a)
           (Label.to_string b)))
    (edges g);
  Buffer.add_string buf "}\n";
  Buffer.contents buf
