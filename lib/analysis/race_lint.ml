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

let analyse ?(top = Guarantee.Causal) w =
  let need_of = need (Depgraph.reach w.Workload.graph) w in
  let sites = Array.of_list w.Workload.sites in
  let n = Array.length sites in
  let races = ref [] and demand = ref Guarantee.bot in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      let a = sites.(i) and b = sites.(j) in
      match need_of a b with
      | None -> ()
      | Some need ->
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
