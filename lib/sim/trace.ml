type kind = Send | Receive | Deliver | Release | Drop | Mark

type record = {
  time : float;
  node : int;
  kind : kind;
  tag : string;
  info : string;
}

(* Records live in chunks of [chunk] records.  A chunk is small enough
   for the minor heap, so storing a fresh record into it needs no
   remembered-set entry, and growing the trace never copies a record. *)
let chunk_bits = 8
let chunk = 1 lsl chunk_bits

type t = { mutable chunks : record array array; mutable n : int }

let dummy = { time = 0.0; node = -1; kind = Send; tag = ""; info = "" }

let create ?(capacity = 64) () =
  { chunks = Array.make (max 1 ((capacity + chunk - 1) / chunk)) [||]; n = 0 }

let record t ~time ~node ~kind ~tag ?(info = "") () =
  let c = t.n lsr chunk_bits and k = t.n land (chunk - 1) in
  if k = 0 then begin
    if c = Array.length t.chunks then begin
      let bigger = Array.make (2 * c) [||] in
      Array.blit t.chunks 0 bigger 0 c;
      t.chunks <- bigger
    end;
    t.chunks.(c) <- Array.make chunk dummy
  end;
  t.chunks.(c).(k) <- { time; node; kind; tag; info };
  t.n <- t.n + 1

let length t = t.n

let get t i =
  if i < 0 || i >= t.n then invalid_arg "Trace.get: index out of range";
  t.chunks.(i lsr chunk_bits).(i land (chunk - 1))

let iter t f =
  for i = 0 to t.n - 1 do
    f t.chunks.(i lsr chunk_bits).(i land (chunk - 1))
  done

let fold t ~init ~f =
  let acc = ref init in
  iter t (fun r -> acc := f !acc r);
  !acc

let events t = List.init t.n (get t)

let filter t p =
  List.rev (fold t ~init:[] ~f:(fun acc r -> if p r then r :: acc else acc))

(* Both [Deliver] (causal layer) and [Release] (a total-order layer
   releasing a buffered message, or the stack's application hand-off)
   mark a message reaching the node's application path; surfacing both
   gives checkers and metrics the release->deliver pairing. *)
let deliveries_at t node =
  List.rev
    (fold t ~init:[] ~f:(fun acc r ->
         if r.node = node && (r.kind = Deliver || r.kind = Release) then
           (r.time, r.tag) :: acc
         else acc))

let tags_of_kind t node kind =
  List.rev
    (fold t ~init:[] ~f:(fun acc r ->
         if r.node = node && r.kind = kind then r.tag :: acc else acc))

let delivery_order t node =
  (* The application-visible order: when a total-order layer released
     messages at this node, its [Release] sequence is what the app saw;
     otherwise fall back to the causal [Deliver] sequence. *)
  match tags_of_kind t node Release with
  | [] -> tags_of_kind t node Deliver
  | releases -> releases

let find_delivery t ~node ~tag =
  List.find_map
    (fun (time, tg) -> if String.equal tg tag then Some time else None)
    (deliveries_at t node)

(* The §6.1 stable-point milestone, written and recognised here only.
   [hex8] is [Printf.sprintf "%08x" d] for [0 <= d < 2^32], without the
   format interpreter: audited runs write one mark per cycle per member. *)
let stable_prefix = "stable:"

let hex8 d =
  String.init 8 (fun i -> "0123456789abcdef".[(d lsr (28 - (4 * i))) land 15])

let stable_mark t ~time ~node ~cycle ~digest =
  record t ~time ~node ~kind:Mark
    ~tag:(stable_prefix ^ string_of_int cycle)
    ~info:("digest=" ^ hex8 (digest land 0xffffffff))
    ()

let is_stable_mark r =
  r.kind = Mark && String.starts_with ~prefix:stable_prefix r.tag

let kind_to_string = function
  | Send -> "send"
  | Receive -> "recv"
  | Deliver -> "dlvr"
  | Release -> "rlse"
  | Drop -> "drop"
  | Mark -> "mark"

let pp_record ppf r =
  Format.fprintf ppf "%10.3f n%d %s %s%s" r.time r.node
    (kind_to_string r.kind) r.tag
    (if r.info = "" then "" else " " ^ r.info)

let pp ppf t =
  Format.fprintf ppf "@[<v>";
  iter t (fun r -> Format.fprintf ppf "%a@," pp_record r);
  Format.fprintf ppf "@]"
