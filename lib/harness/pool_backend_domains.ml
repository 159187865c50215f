(* Pool backend for OCaml 5: real worker domains.

   The work queue is an atomic next-index counter over the input array:
   dynamic claiming keeps all domains busy when task costs are skewed.

   Each slot of [results] is written by exactly one domain and read by
   the caller only after every [Domain.join], which establishes the
   happens-before edge — no per-slot synchronisation needed.  [f] must
   not raise: a raise would surface at [Domain.join] and tear down the
   whole sweep, so [Pool] wraps each task and failures come back as
   values. *)

let recommended () = Domain.recommended_domain_count ()

let map ~jobs f xs =
  let n = Array.length xs in
  if jobs <= 1 then Array.map f xs
  else begin
    let next = Atomic.make 0 in
    let results = Array.make n None in
    let worker () =
      let continue_ = ref true in
      while !continue_ do
        let i = Atomic.fetch_and_add next 1 in
        if i >= n then continue_ := false
        else results.(i) <- Some (f xs.(i))
      done
    in
    (* The calling domain is worker number [jobs]: spawn one fewer. *)
    let spawned = Array.init (jobs - 1) (fun _ -> Domain.spawn worker) in
    worker ();
    Array.iter Domain.join spawned;
    Array.map (function Some r -> r | None -> assert false) results
  end
