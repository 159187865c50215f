module Seq_spec = Causalb_data.Seq_spec

type page = { version : int; data : string; writer : int }

(* The §6.2 protocol itself is [Lock_service]'s, with the page on every
   transfer; this module keeps only the members' page copies. *)
type t = {
  lock : page Lock_service.t;
  copies : page array;
  applied_rev : page list array;
}

let initial_page = { version = 0; data = ""; writer = -1 }

(* The replicated page as a sequential spec: one "install" class whose
   transition keeps the maximum page in the total order (version, writer,
   data).  Installs therefore always commute — the spec derives the class
   as [Cid] — and because the token protocol hands out strictly
   increasing versions, keep-max coincides with install-in-delivery-order
   (check_versions_monotone audits exactly that). *)
let page_spec =
  Seq_spec.make ~name:"page-register" ~init:initial_page
    ~apply:(fun s p ->
      if (p.version, p.writer, p.data) > (s.version, s.writer, s.data) then p
      else s)
    ~equal:(fun a b -> a = b)
    ~classes:[ "install" ]
    ~class_of:(fun _ -> "install")
    ~commutes:(fun _ _ -> true)
    ~pp_op:(fun ppf p -> Format.fprintf ppf "v%d by %d" p.version p.writer)
    ()

let create engine ~members ~mutate ?latency ?hold ?requesters () =
  if members <= 0 then invalid_arg "Page_service.create: members <= 0";
  let copies = Array.make members initial_page in
  let applied_rev = Array.make members [] in
  (* The holder works on its local copy and ships the new page with its
     transfer: release and write propagation are the same broadcast. *)
  let release ~member =
    let base = copies.(member) in
    {
      version = base.version + 1;
      data = mutate ~member ~page:base;
      writer = member;
    }
  in
  (* install the holder's write through the spec *)
  let on_transfer ~node page =
    copies.(node) <- page_spec.Seq_spec.apply copies.(node) page;
    applied_rev.(node) <- page :: applied_rev.(node)
  in
  let lock =
    Lock_service.create_carrying engine ~members ~release ~on_transfer
      ?latency ?hold ?requesters ()
  in
  { lock; copies; applied_rev }

let start t ~cycles =
  if cycles <= 0 then invalid_arg "Page_service.start: cycles <= 0";
  Lock_service.start t.lock ~cycles

let page_at t node = t.copies.(node)

let applied t node = List.rev t.applied_rev.(node)

let versions_applied t node = List.map (fun p -> p.version) (applied t node)

let writes t = List.map (fun p -> (p.version, p.writer)) (applied t 0)

let check_no_lost_updates t ~expected_writes =
  versions_applied t 0 = List.init expected_writes (fun i -> i + 1)

let check_copies_converge t =
  match Array.to_list t.copies with
  | [] -> true
  | first :: rest -> List.for_all (( = ) first) rest

let check_versions_monotone t =
  let rec mono = function
    | a :: (b :: _ as rest) -> a < b && mono rest
    | [ _ ] | [] -> true
  in
  List.for_all
    (fun node -> mono (versions_applied t node))
    (List.init (Array.length t.copies) Fun.id)

let messages_sent t = Lock_service.messages_sent t.lock
