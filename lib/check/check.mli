(** Spec-level static analysis of APA models and functional specs.

    All passes run before (and without) any state-space exploration:

    - {b dead rules} (FSA001/FSA006/FSA007): a fixpoint over producible
      term shapes per state component — seeded from the initial state and
      closed under every rule's puts — flags rules whose take patterns
      can never match;
    - {b binding discipline} (FSA002/FSA003): variables used in put
      templates or guards but bound by no take pattern;
    - {b component usage} (FSA004/FSA005): write-only and unused state
      components;
    - {b APA races} (FSA010/FSA011): pairs of unguarded rules with
      consume/consume or consume/read conflicts on unifiable patterns on
      the same state component — the interleavings the asynchronous
      product makes order-sensitive;
    - {b abstraction soundness} (FSA020/FSA021/FSA022/FSA023): check
      declarations and homomorphism keep sets naming actions outside the
      APA's alphabet, and vacuous properties over dead actions;
    - {b manual path} (FSA030–FSA035): [Fsa_model.Lint] findings over
      every [sos] declaration, re-emitted as unified diagnostics;
    - {b structural analysis} (FSA040–FSA048, [deep] only):
      {!Fsa_struct.Structural} over the APA's net skeleton — place
      invariants certifying bounded components, the certified-infinite
      self-growth warning, potentially unbounded components, transition
      invariants, siphon/trap deadlock certificates and static
      dependence counts;
    - {b reduction prognosis} (FSA050–FSA058, [deep] only):
      {!Fsa_sym.Sym} over the elaborated APA — symmetry orbits, rejected
      candidate pairs, attested guards, interference modules and the
      predicted [--reduce] factor.  All advisory: asymmetric models are
      fine, the pass reports what a reduction could exploit;
    - {b information flow} (FSA060–FSA065, [deep] only):
      {!Fsa_flow.Flow} over the elaborated APA — confidentiality leaks
      from protected components into cross-instance channels (FSA060, a
      warning), plus advisory guard-free boundary crossings, dead attack
      surface, unguarded flow cycles, guard-killed edges and the
      count of flow-independent rule pairs.

    The producible-shape fixpoint over-approximates reachability (guards
    are ignored and matched terms are never removed), so a rule it calls
    dead really is dead — which is why FSA001 is an error — while races
    and vacuity are reported as warnings.  Deep findings are advisory
    notes, except FSA041 whose unboundedness certificate is sound for
    the APA itself. *)

module Apa = Fsa_apa.Apa
module Ast = Fsa_spec.Ast

val spec :
  ?file:string -> ?deep:bool -> ?budget:int -> Ast.t -> Diagnostic.t list
(** Run every static pass over a parsed specification.  Parse-level
    semantic errors ({!Fsa_spec.Loc.Error} raised during elaboration) are
    caught and reported as FSA000 diagnostics rather than exceptions.
    [deep] (default [false]) additionally runs the structural net
    analysis (FSA040–FSA048) and the symmetry / partial-order reduction
    prognosis (FSA050–FSA058); [budget] bounds the siphon/trap
    enumeration. *)

val net_of_skeleton :
  Fsa_spec.Elaborate.skeleton -> Fsa_struct.Structural.net
(** The structural net of a located skeleton (initial contents, take and
    put signatures, guardedness) — what the deep pass and [fsa struct]
    analyse. *)

val flow_attribution :
  Fsa_spec.Elaborate.skeleton -> Fsa_flow.Flow.attribution
(** Exact flow-graph attribution from a located skeleton: per-rule
    elaborated instance and guard variable set — what lets
    {!Fsa_flow.Flow.build} evaluate guards (kill-sets) and tell
    cross-instance flows apart.  Callers without a spec fall back to
    {!Fsa_flow.Flow.heuristic_attribution}. *)

val apa : ?file:string -> Apa.t -> Diagnostic.t list
(** The structural passes (dead rules, component usage) over a
    programmatic APA.  Guards and source positions are opaque at this
    level, so race detection and guard-binding checks are skipped. *)

val keep_set :
  ?file:string -> alphabet:string list -> string list -> Diagnostic.t list
(** Validate a homomorphism keep set against the APA's action alphabet
    (FSA022 per unknown action, FSA023 when nothing at all is kept). *)

val rename_map :
  ?file:string ->
  alphabet:string list ->
  (string * string) list ->
  Diagnostic.t list
(** Validate a homomorphism rename map against the APA's action alphabet:
    FSA022 per unknown source action, FSA036 per merge group of a
    non-injective map (two or more distinct sources — including
    untouched alphabet actions, which rename to themselves — ending up
    on the same target).  Duplicate sources follow [Hom.rename]'s
    first-binding-wins semantics before the check. *)

val suggest : string -> string list -> string option
(** Nearest candidate by edit distance, for "did you mean" hints. *)
