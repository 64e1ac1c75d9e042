(** Functional security analysis — the paper's methodology as a façade.

    The {e manual} path (Sect. 4) derives requirements from a functional
    model via the partial order ζ* and its restriction χ; the {e tool}
    path (Sect. 5) derives them from an APA model via its reachability
    graph, identifying minima and maxima and testing each pair for
    functional dependence.  [crosscheck] validates the two paths against
    each other through a label correspondence. *)

module Action = Fsa_term.Action
module Agent = Fsa_term.Agent
module Sos = Fsa_model.Sos
module Auth = Fsa_requirements.Auth
module Classify = Fsa_requirements.Classify
module Lts = Fsa_lts.Lts

(** {1 Manual path} *)

type manual_report = {
  m_sos : Sos.t;
  m_stats : Sos.stats;
  m_boundary : Sos.boundary;
  m_chi : (Action.t * Action.t) list;
  m_requirements : Auth.t list;
  m_classified : (Auth.t * Classify.class_) list;
}

val manual : ?stakeholder:(Action.t -> Agent.t) -> Sos.t -> manual_report
val pp_manual_report : manual_report Fmt.t

(** {1 Tool path} *)

type pair_timing = {
  pt_min : Action.t;
  pt_max : Action.t;
  pt_pruned : bool;  (** skipped by static pruning, all stages 0 *)
  pt_pruned_by : string option;
      (** ["static"] when skeleton token reachability settled the pair
          (forced on by an ample-set reduction); [None] when tested *)
  pt_erase_ns : int64;
  pt_determinise_ns : int64;
  pt_minimise_ns : int64;
  pt_compare_ns : int64;
}
(** Wall-clock breakdown of one (min, max) dependence test, in matrix
    order.  The shared engine erases, determinises and minimises once
    for all pairs ({!shared_timing}), so the per-pair erase, determinise
    and minimise stages are 0 and only [pt_compare_ns] is per pair. *)

type shared_timing = {
  sh_alphabet_size : int;  (** union alphabet of the surviving pairs *)
  sh_dfa_states : int;  (** states of the shared minimal quotient *)
  sh_cached : bool;  (** the shared quotient came from the store *)
  sh_early_pairs : int;
      (** pairs already decided independent during the single pass *)
  sh_erase_ns : int64;
  sh_determinise_ns : int64;
  sh_minimise_ns : int64;
  sh_early_ns : int64;
}
(** One-off cost and shape of the shared abstraction engine's build. *)

type phase_timings = {
  ph_explore_ns : int64;
  ph_min_max_ns : int64;
  ph_matrix_ns : int64;
  ph_derive_ns : int64;
  ph_pairs : pair_timing list;
  ph_shared : shared_timing option;
      (** [Some] iff some pair was tested (not every pair pruned) *)
}
(** Per-phase durations of one {!tool} run.  Always collected — the
    clock readings are negligible against the phases they measure — so
    "which phase dominates" is data even without observability
    enabled. *)

type reduction_info = {
  ri_kind : string;  (** ["sym"], ["por"] or ["sym+por"] *)
  ri_reduced_states : int;
      (** states of the graph the tool explored: the ample-reduced
          graph when the plan has a partial-order component, the full
          graph otherwise *)
  ri_reduced_transitions : int;
  ri_group_order : float;
      (** order of the symmetry group the run explored under: always 1,
          because derivation never explores a symmetry quotient *)
  ri_fallback : string option;
      (** why the plan could not be applied and the run explored
          unreduced, when it did *)
}
(** What [?reduce] actually did during a {!tool} run. *)

type tool_report = {
  t_lts : Lts.t;
  t_stats : Lts.stats;
  t_minima : Action.t list;
  t_maxima : Action.t list;
  t_matrix : (Action.t * (Action.t * bool) list) list;
  t_requirements : Auth.t list;
  t_timings : phase_timings;
  t_reduction : reduction_info option;  (** [Some] iff [?reduce] given *)
  t_engine : Fsa_hom.Hom.Shared.engine option;
      (** the shared multi-pair engine that answered the dependence
          queries, when some pair was tested; downstream layers reuse it
          to project per-pair minimal automata without re-walking the
          graph *)
}

val matrix_pairs : tool_report -> (Action.t * Action.t * bool) list
(** The dependence matrix flattened to [(min, max, dependent)] triples,
    in matrix (row-major) order. *)

type quotient_cache = {
  qc_find : alphabet:Action.t list -> Fsa_hom.Hom.A.Dfa.t option;
  qc_store : alphabet:Action.t list -> Fsa_hom.Hom.A.Dfa.t -> unit;
}
(** Hook for caching the shared intermediate quotient of {!tool}'s
    shared abstraction engine.  The store lives above this library, so
    the analysis takes the cache as callbacks; implementations must key
    entries on the spec digest {e and} the erased-alphabet digest {e
    and} an engine version, so entries of another engine generation
    never replay. *)

val quotient :
  ?max_states:int ->
  ?progress:Fsa_obs.Progress.t ->
  Fsa_sym.Sym.plan ->
  Fsa_apa.Apa.t ->
  Lts.t
(** Reduced exploration under a {!Fsa_sym.Sym.plan}: successors are
    canonicalised into orbit representatives and restricted to ample
    sets per the plan.  The result is the reduced (quotient) graph —
    right for reachability statistics, not for requirement derivation
    (its raw labels mix concrete instances along representative
    paths; {!tool} explores the concrete graph). *)

val tool :
  ?max_states:int ->
  ?reduce:Fsa_sym.Sym.plan ->
  ?quotient_cache:quotient_cache ->
  ?progress:Fsa_obs.Progress.t ->
  stakeholder:(Action.t -> Agent.t) ->
  Fsa_apa.Apa.t ->
  tool_report
(** The tool path: explore, identify minima and maxima, and decide
    every (min, max) pair by the method of Sect. 5.5 through one shared
    abstraction ({!Fsa_hom.Hom.Shared}): erase once to the union
    alphabet of the pairs' actions, determinise and minimise that shared
    image, then decide each pair on the shared automaton (and, on the
    fly, during the single pass over the graph where the independent
    verdict is already witnessed).  Verdicts and per-pair minimal
    automata equal those of the per-pair test
    {!Fsa_hom.Hom.depends_abstract} — [preserve {min, max}] factors
    through [preserve union] and minimal DFAs are unique up to
    isomorphism — and of the direct test {!Lts.depends_on}; the test
    suite checks both on every bundled example.

    With observability enabled ({!Fsa_obs.Metrics.set_enabled}), each
    pipeline phase runs inside its own span ([tool.explore],
    [tool.min_max], [tool.dependence_matrix], [tool.derive]);
    [progress] is threaded through the state-space exploration and the
    shared abstraction's subset construction and minimisation, so a
    progress callback that raises (the server's request deadline) stops
    either.  [max_states] also bounds the subsets the shared
    determinisation may materialise ([Lts.State_space_too_large]).

    [quotient_cache] lets the caller persist/reuse the shared quotient
    across runs (see {!quotient_cache}); a cache hit skips the
    erase/determinise/minimise and early-decision work entirely.

    {b Composition.}  Unreduced, an APA whose rules split into two or
    more composition modules
    ({!Fsa_struct.Structural.composition_modules}) and whose rules all
    carry their default labels is explored module by module, each
    module's rules alone ({!Fsa_apa.Apa.restrict}).  [t_lts] is then
    the product of the module graphs ({!Lts.product}): its statistics,
    minima, maxima and dead-state ids are the full product's, answered
    from the module graphs, and any other accessor materialises the
    graph {!Lts.explore} would have built.  [t_engine] is the product
    of one shared engine per module ({!Fsa_hom.Hom.Shared.product}),
    and [quotient_cache] sees one entry per module alphabet.  Verdicts,
    requirements and per-pair minimal automata equal the single-product
    path's (DESIGN.md §17).  [max_states] still bounds the product's
    state count, checked arithmetically from the module counts, with
    the same [Lts.State_space_too_large]; [progress] is ticked through
    the module explorations, the product's numbering walk and the
    module engines' builds.  With one module, or a custom label, the
    single product is explored as before.

    [reduce] applies a {!Fsa_sym.Sym.plan}'s ample-set component only:
    derivation needs concrete per-instance labels, so a symmetry
    component is ignored here (it shrinks {!quotient} alone, and
    [ri_group_order] is 1) and the concrete graph is explored.  An ample-set component restricts the
    explored interleavings; pairs the net skeleton proves
    flow-independent are then settled without a test (counted in the
    [struct.pairs_pruned] metric), because the reduced graph could
    report them dependent (see {!reduction_info} and DESIGN.md §13 for
    the soundness argument).  Models without the default rule-name
    labelling fall back to unreduced exploration, recorded in
    [ri_fallback].  The soundness gate: on every model completing
    un-reduced, the reduced run must produce the identical requirement
    set — the test suite enforces this across the bundled examples. *)

val pp_tool_report : tool_report Fmt.t

(** {1 Cross-validation} *)

type crosscheck = {
  c_agree : bool;
  c_manual_only : Auth.t list;
  c_tool_only : Auth.t list;
  c_unmapped : Action.t list;
}

val crosscheck :
  map:(Action.t -> Action.t option) ->
  manual_requirements:Auth.t list ->
  tool_requirements:Auth.t list ->
  crosscheck

val pp_crosscheck : crosscheck Fmt.t
