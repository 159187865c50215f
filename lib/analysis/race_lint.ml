module Label = Causalb_graph.Label
module Depgraph = Causalb_graph.Depgraph
module Guarantee = Causalb_stackbase.Guarantee
module Diag = Causalb_check.Diag

type race = {
  a : Workload.site;
  b : Workload.site;
  need : Guarantee.t;
  top : Guarantee.t;
  missing : Label.t list;
}

type report = { races : race list; demand : Guarantee.t }

(* The guarantee one pair needs.  Sync separation needs no test of its
   own: a sync point [s] between [a] and [b] in R(M) puts [a] among the
   ancestors of [s] and [s] among those of [b], so [a] already precedes
   [b]. *)
let need reach w (a : Workload.site) (b : Workload.site) =
  if not (Workload.conflicts w a b) then None
  else if Label.origin a.Workload.label = Label.origin b.Workload.label then
    Some Guarantee.Fifo
  else if
    Depgraph.precedes reach a.Workload.label b.Workload.label
    || Depgraph.precedes reach b.Workload.label a.Workload.label
  then Some Guarantee.Causal
  else Some Guarantee.Causal_total

let pair_need w a b = need (Depgraph.reach w.Workload.graph) w a b

(* The one sweep, over integers.  Each site is resolved once: its object
   (the first of that name, as [Workload.conflicts] looks it up; -1 when
   none), its class number within that object, its label's first site
   (equal labels never conflict) and its reach rank (-1 when absent).
   Whether two classes of one object conflict is asked of the spec's
   closures once per ordered class pair, on first use.  Each pair then
   grades exactly as [need] does, in the same order. *)
let analyse ?reach ?(top = Guarantee.Causal) w =
  let reach =
    match reach with
    | None -> Depgraph.reach w.Workload.graph
    | Some r ->
      if not (Depgraph.indexes r w.Workload.graph) then
        invalid_arg "Race_lint.analyse: the index is not the workload graph's";
      r
  in
  let objects = Array.of_list w.Workload.objects in
  let sites = Array.of_list w.Workload.sites in
  let n = Array.length sites in
  let obj_of name =
    let rec find k =
      if k = Array.length objects then -1
      else if String.equal objects.(k).Workload.name name then k
      else find (k + 1)
    in
    find 0
  in
  (* per object: its classes in first-seen order, numbered *)
  let classes = Array.map (fun _ -> Hashtbl.create 8) objects in
  let obj = Array.make n (-1) and cls = Array.make n 0 in
  let first_site = Label.Tbl.create (2 * n) in
  let same = Array.make n 0 and rank = Array.make n (-1) in
  Array.iteri
    (fun i (s : Workload.site) ->
      let o = obj_of s.Workload.obj in
      obj.(i) <- o;
      if o >= 0 then begin
        let tbl = classes.(o) in
        cls.(i) <-
          (match Hashtbl.find_opt tbl s.Workload.cls with
          | Some c -> c
          | None ->
            let c = Hashtbl.length tbl in
            Hashtbl.add tbl s.Workload.cls c;
            c)
      end;
      (same.(i) <-
         match Label.Tbl.find_opt first_site s.Workload.label with
         | Some k -> k
         | None ->
           Label.Tbl.add first_site s.Workload.label i;
           i);
      rank.(i) <- Option.value ~default:(-1) (Depgraph.rank reach s.Workload.label))
    sites;
  (* conflict.(o).(ci * k + cj): 0 not yet asked, 1 conflict, 2 commute *)
  let width = Array.map Hashtbl.length classes in
  let conflict = Array.map (fun k -> Array.make (k * k) 0) width in
  let names =
    Array.map
      (fun tbl ->
        let a = Array.make (Hashtbl.length tbl) "" in
        Hashtbl.iter (fun c k -> a.(k) <- c) tbl;
        a)
      classes
  in
  let conflicts o ci cj =
    let slot = (ci * width.(o)) + cj in
    match conflict.(o).(slot) with
    | 1 -> true
    | 2 -> false
    | _ ->
      let spec = objects.(o) and a = names.(o).(ci) and b = names.(o).(cj) in
      let c =
        spec.Workload.observer a || spec.Workload.observer b
        || not (spec.Workload.commutes a b)
      in
      conflict.(o).(slot) <- (if c then 1 else 2);
      c
  in
  let races = ref [] and demand = ref Guarantee.bot in
  for i = 0 to n - 1 do
    let oi = obj.(i) in
    if oi >= 0 then
      for j = i + 1 to n - 1 do
        if obj.(j) = oi && same.(i) <> same.(j) && conflicts oi cls.(i) cls.(j)
        then begin
          let a = sites.(i) and b = sites.(j) in
          let need =
            if Label.origin a.Workload.label = Label.origin b.Workload.label
            then Guarantee.Fifo
            else begin
              (* [Depgraph.precedes] raises on an absent label *)
              if rank.(i) < 0 || rank.(j) < 0 then raise Not_found;
              if
                Depgraph.precedes_rank reach rank.(i) rank.(j)
                || Depgraph.precedes_rank reach rank.(j) rank.(i)
              then Guarantee.Causal
              else Guarantee.Causal_total
            end
          in
          demand := Guarantee.join !demand need;
          if not (Guarantee.leq need top) then
            races :=
              {
                a;
                b;
                need;
                top;
                missing = [ a.Workload.label; b.Workload.label ];
              }
              :: !races
        end
      done
  done;
  { races = List.rev !races; demand = !demand }

let check ?top w = (analyse ?top w).races

let required w = (analyse w).demand

let pp_site ppf (s : Workload.site) =
  Format.fprintf ppf "%s(%s@%s)"
    (Label.name s.Workload.label)
    s.Workload.cls s.Workload.obj

let pp_race ppf r =
  Format.fprintf ppf
    "%a ∥ %a: non-commuting classes, unordered in R(M) — the pair needs \
     %a but the stack provides %a; add an Occurs_After edge or a sync \
     point between them"
    pp_site r.a pp_site r.b Guarantee.pp r.need Guarantee.pp r.top

let race_to_string r = Format.asprintf "%a" pp_race r

let to_diag r =
  Diag.make ~check:"race:causal" ~chain:r.missing (race_to_string r)

let to_diags rs = List.map to_diag rs
