(** Pass 1 of the static consistency verifier: the guarantee lattice
    over stack compositions.

    Every layer of a composed pipeline declares what ordering guarantee
    it {e requires} from the composition below it and what it
    {e provides} above ({!Causalb_stack.Stack.layer_guarantees}).  This
    pass folds a pipeline bottom-up through the
    {!Causalb_stackbase.Guarantee} lattice: at each layer the guarantee
    available so far must dominate the layer's requirement, and the
    layer's [provides] joins into what is available above it.  The fold
    yields the {e top-of-stack} guarantee — what the application may
    rely on — and every violated requirement as a structured issue.

    A second check compares a {e claim} — the consistency level a
    configuration declares it needs (for the shipped compositions, the
    level the dynamic oracle of [Causalb_check] holds the run to) —
    against the computed top: claiming causal consistency over a
    FIFO-only pipeline is a composition bug caught here, before any
    message is sent.

    One caveat the lattice deliberately flattens: [Bss] provides
    [Causal] with respect to {e potential} causality (vector clocks),
    which coincides with the explicit [R(M)] of OSend/Psync only when
    senders wait for their dependencies before submitting.  The harness
    front-ends submit spontaneously, so they claim only [Fifo] for BSS
    compositions — see [Causalb_harness.Drivers.claim_of]. *)

module Guarantee := Causalb_stackbase.Guarantee
module Stack := Causalb_stack.Stack

type layer = {
  name : string;           (** display name, e.g. ["causal:osend"] *)
  requires : Guarantee.t;  (** minimum guarantee needed from below *)
  provides : Guarantee.t;  (** guarantee of this layer's releases *)
}

type issue =
  | Weak_layer of {
      layer : string;
      requires : Guarantee.t;
      available : Guarantee.t;
    }
      (** the composition below [layer] provides only [available], less
          than the [requires] the layer's guarantee rests on *)
  | Claim_unmet of { claim : Guarantee.t; top : Guarantee.t }
      (** the configuration claims [claim] but the stack tops out at
          [top] *)

type report = {
  layers : layer list;     (** the pipeline, bottom-up *)
  top : Guarantee.t;       (** computed top-of-stack guarantee *)
  issues : issue list;     (** empty = the composition is well-formed *)
}

val layers_of :
  ordering:Stack.ordering -> total:'a Stack.total -> fifo:bool -> layer list
(** The descriptors of the pipeline [Stack.compose] would build from the
    same arguments (see {!Stack.layer_guarantees}). *)

val verify : ?claim:Guarantee.t -> layer list -> report
(** Fold the pipeline bottom-up.  Issues are reported in layer order;
    a [Claim_unmet], when present, comes last.  Verification continues
    past a weak layer (assuming the layer's [provides] anyway) so one
    report names every ill-fitting layer, not just the first. *)

val verify_stack :
  ?claim:Guarantee.t ->
  ordering:Stack.ordering ->
  total:'a Stack.total ->
  fifo:bool ->
  unit ->
  report
(** [verify ?claim (layers_of ~ordering ~total ~fifo)]. *)

val ok : report -> bool

val issue_name : issue -> string
(** Stable machine-readable name: ["verify:weak-layer"],
    ["verify:claim-unmet"]. *)

val pp_issue : Format.formatter -> issue -> unit

val issue_to_string : issue -> string

val pp_report : Format.formatter -> report -> unit
(** One line per layer (["transport  provides fifo"], …), then the top
    guarantee and any issues. *)

val to_diag : issue -> Causalb_check.Diag.t

val to_diags : report -> Causalb_check.Diag.t list
