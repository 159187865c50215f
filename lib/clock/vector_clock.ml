type t = int array

type ordering = Before | After | Equal | Concurrent

let create n =
  if n <= 0 then invalid_arg "Vector_clock.create: size must be positive";
  Array.make n 0

let init n f =
  if n <= 0 then invalid_arg "Vector_clock.init: size must be positive";
  (* [Array.init] applies [f] to 0 .. n-1 in order *)
  Array.init n f

let size = Array.length

let check_index v i =
  if i < 0 || i >= Array.length v then
    invalid_arg "Vector_clock: process index out of range"

let get v i =
  check_index v i;
  v.(i)

let tick v i =
  check_index v i;
  let v' = Array.copy v in
  v'.(i) <- v'.(i) + 1;
  v'

let check_sizes a b =
  if Array.length a <> Array.length b then
    invalid_arg "Vector_clock: size mismatch"

let merge a b =
  check_sizes a b;
  Array.init (Array.length a) (fun i -> max a.(i) b.(i))

let receive ~local ~remote ~me =
  check_sizes local remote;
  check_index local me;
  (* merge + tick fused into one allocation *)
  let v = Array.init (Array.length local) (fun i -> max local.(i) remote.(i)) in
  v.(me) <- v.(me) + 1;
  v

let copy = Array.copy

let merge_into ~into src =
  check_sizes into src;
  for i = 0 to Array.length into - 1 do
    if src.(i) > into.(i) then into.(i) <- src.(i)
  done

let receive_into ~local ~remote ~me =
  check_index local me;
  merge_into ~into:local remote;
  local.(me) <- local.(me) + 1

let bump v i =
  check_index v i;
  v.(i) <- v.(i) + 1

let with_component v i x =
  check_index v i;
  let v' = Array.copy v in
  v'.(i) <- x;
  v'

(* The two delivery kernels check sizes and the sender index once, up
   front; every [unsafe_get] below then reads an index in
   [0, Array.length delivered) of two arrays that length.  Scanning here
   rather than through [get] from the caller keeps the loop free of
   per-component calls, which [-opaque] builds never inline. *)

let check_delivery ~delivered ~stamp ~sender =
  check_sizes delivered stamp;
  check_index delivered sender

let deliverable ~delivered ~stamp ~sender =
  check_delivery ~delivered ~stamp ~sender;
  Array.unsafe_get stamp sender = Array.unsafe_get delivered sender + 1
  &&
  let n = Array.length stamp in
  let k = ref 0 in
  while
    !k < n
    && (!k = sender || Array.unsafe_get stamp !k <= Array.unsafe_get delivered !k)
  do
    incr k
  done;
  !k = n

let iter_unmet ~delivered ~stamp ~sender f =
  check_delivery ~delivered ~stamp ~sender;
  let v = Array.unsafe_get stamp sender in
  if Array.unsafe_get delivered sender < v - 1 then f sender (v - 1);
  for k = 0 to Array.length stamp - 1 do
    if k <> sender then begin
      let v = Array.unsafe_get stamp k in
      if Array.unsafe_get delivered k < v then f k v
    end
  done

let leq a b =
  check_sizes a b;
  let ok = ref true in
  Array.iteri (fun i x -> if x > b.(i) then ok := false) a;
  !ok

let equal a b =
  check_sizes a b;
  a = b

let lt a b = leq a b && not (equal a b)

let concurrent a b = (not (leq a b)) && not (leq b a)

let compare_causal a b =
  if equal a b then Equal
  else if leq a b then Before
  else if leq b a then After
  else Concurrent

let dominates_all v vs = List.for_all (fun u -> leq u v) vs

let of_array a =
  if Array.length a = 0 then invalid_arg "Vector_clock.of_array: empty";
  Array.copy a

let pp ppf v =
  Format.fprintf ppf "[%s]"
    (String.concat ";" (Array.to_list (Array.map string_of_int v)))

let to_string v = Format.asprintf "%a" pp v
