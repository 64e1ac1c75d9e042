(** Engineering-grade requirement reports: stable identifiers,
    provenance, a two-way traceability matrix, coverage and
    verification tagging over a derived requirement set.

    The paper's output — the [auth(a, b, P)] sets of Sect. 4 — is an
    unstructured list.  This layer turns it into something a downstream
    engineering pipeline can consume (after the SF→SR traceability
    matrices of ISO 26262-style processes and the verification-method
    assignment of Lian et al.):

    - every requirement gets a stable identifier [SR-NNNN], assigned by
      canonical order of the normalised set, plus a content digest so
      the identity survives re-derivation, spec reformatting and
      declaration permutation (the requirement rendering is
      location-free, like {!Fsa_spec.Elaborate.digest_of_spec});
    - provenance ties each requirement back to its (min, max)
      dependence pair, the elaborated instances and use-case actions
      involved, and (tool path) the pair's minimal automaton;
    - classification folds in {!Fsa_requirements.Classify} (mapping
      tool-path requirements onto declared functional models by the
      instance/label correspondence of {!Fsa_core.Analysis.crosscheck})
      and {!Fsa_requirements.Prioritise} scores;
    - a verification method is assigned per requirement by a
      deterministic heuristic (see {!verification});
    - emission is deterministic JSON ({!Fsa_store.Json}: fixed member
      order, no wall-clock values) and Markdown — two runs over the
      same model produce byte-identical reports. *)

module Action = Fsa_term.Action
module Auth = Fsa_requirements.Auth
module Classify = Fsa_requirements.Classify

val schema : string
(** The JSON schema tag, ["fsa-report/1"]. *)

(** {1 Verification methods}

    After Lian et al.: how the requirement should be checked against an
    implementation.  Assigned deterministically from classification and
    requirement shape alone (never from run statistics, so the tag is
    invariant under engine and reduction settings):

    - policy-induced requirements go to {e analysis} (the policy
      argument itself is the evidence; there is no safety path to
      exercise);
    - safety-critical requirements whose cause and effect live in
      different elaborated instances go to {e test} (they cross a
      system boundary and need an integration test);
    - safety-critical requirements inside one instance go to
      {e demonstration} (observable on the component in isolation);
    - requirements whose endpoints cannot be attributed to instances
      fall back to {e inspection}. *)

type verification = Test | Analysis | Inspection | Demonstration

val verification_to_string : verification -> string
val pp_verification : verification Fmt.t

(** {1 Provenance} *)

type origin = {
  og_rule : string;  (** full APA rule name, e.g. [V1_send] *)
  og_instance : string option;  (** elaborated instance, e.g. [V1] *)
  og_component : string option;  (** declaring component, e.g. [Vehicle] *)
  og_action : string option;  (** use-case action label, e.g. [send] *)
}
(** Where a tool-path action comes from in the specification. *)

val origins_of_skeleton : Fsa_spec.Elaborate.skeleton -> origin list
(** Exact origins from the located APA skeleton. *)

val origins_of_rules : string list -> origin list
(** Heuristic fallback for programmatic models without a spec: rule
    names are split at the first ['_'] into instance and use-case
    action; the declaring component is unknown. *)

type endpoint = {
  ep_action : string;
  ep_instance : string option;
  ep_component : string option;
  ep_use_case : string option;
}

type automaton = { am_states : int; am_transitions : int }
(** Shape of the pair's minimal automaton (Figs. 10/11 of the paper). *)

type item = {
  it_id : string;  (** [SR-NNNN], by canonical order *)
  it_digest : string;  (** content digest of the canonical rendering *)
  it_requirement : Auth.t;
  it_class : Classify.class_;
  it_score : int;  (** {!Fsa_requirements.Prioritise} score; [0] when no
                       functional model maps the requirement *)
  it_rank : int;  (** 1-based position in the priority ordering *)
  it_verification : verification;
  it_cause : endpoint;
  it_effect : endpoint;
  it_automaton : automaton option;  (** tool path only *)
}

(** {1 Coverage} *)

type pair_coverage = {
  pc_total : int;  (** (min, max) pairs of the dependence matrix *)
  pc_tested : int;  (** pairs whose dependence was actually tested *)
  pc_pruned : int;  (** pairs skipped by static pruning (any kind) *)
  pc_pruned_flow : int;
      (** the subset of [pc_pruned] attributed ["static-flow"].  The
          tool path has no flow pruner, so this is 0; the member stays
          for the fsa-report/1 schema *)
  pc_dependent : int;  (** pairs that derived a requirement *)
  pc_independent : int;  (** [pc_total - pc_dependent] *)
}

type coverage = {
  cv_actions_total : int;
  cv_actions_covered : int;  (** appear as cause or effect of some item *)
  cv_actions_uncovered : string list;  (** sorted; [covered + uncovered
                                           = total] always holds *)
  cv_pairs : pair_coverage;
}

(** {1 Settings} *)

type settings = {
  sg_path : string;  (** ["tool"] or ["manual"] *)
  sg_method : string;  (** ["abstract"] or ["manual"] *)
  sg_engine : string;  (** ["shared-v1"] or ["manual"] *)
  sg_reduce : string;  (** ["none"], ["sym"], ["por"] or ["sym+por"] *)
  sg_prune : string;
      (** ["none"]: the tool path has no user-selected pruner (the
          schema still admits the ["static"], ["flow"] and
          ["static+flow"] of earlier releases) *)
  sg_max_states : int;
}
(** What produced the report.  Settings (and the other run-dependent
    blocks: pair coverage, graph shape, per-item automata) are excluded
    by [to_* ~body_only:true], leaving exactly the content that is
    invariant across engine and reduction choices. *)

type t = {
  r_digest : string;  (** canonical model digest *)
  r_settings : settings;
  r_items : item list;  (** canonical (identifier) order *)
  r_actions : string list;  (** the action universe, sorted *)
  r_instances : string list;  (** sorted *)
  r_by_action : (string * string list) list;
      (** action → requirement ids, one row per universe action *)
  r_by_instance : (string * string list) list;
  r_coverage : coverage;
  r_graph : (int * int) option;  (** (states, transitions), tool path *)
}

(** {1 Builders} *)

val of_tool :
  ?origins:origin list ->
  ?soses:Fsa_model.Sos.t list ->
  ?alphabet:string list ->
  digest:string ->
  settings:settings ->
  Fsa_core.Analysis.tool_report ->
  t
(** Build a report from a tool-path run.  [origins] (default: the
    heuristic {!origins_of_rules} over the alphabet) attributes actions
    to instances/components; [soses] are the spec's declared functional
    models, used to classify and score requirements through the
    instance/label correspondence — requirements that do not map stay
    [Safety_critical] (an APA model carries no policy annotations, so
    the Sect. 4.4 criterion degenerates to safety-critical); [alphabet]
    (default: the explored graph's alphabet) is the action universe of
    the coverage summary — pass {!Fsa_apa.Apa.rule_names} to keep it
    independent of ample-set reduction.  Per-item minimal automata are
    projected from the run's own shared engine
    ({!Fsa_core.Analysis.tool_report.t_engine}) when the analysis built
    one, else from one fresh {!Fsa_hom.Hom.Shared} build over the union
    alphabet of the requirement endpoints. *)

val of_manual :
  digest:string -> Fsa_model.Sos.t -> Fsa_core.Analysis.manual_report -> t
(** Build a report from a manual-path run over one functional model.
    The manual path enumerates χ directly, so the pair coverage is
    degenerate ([tested = dependent = total], nothing pruned). *)

(** {1 Emission} *)

val to_json : ?body_only:bool -> t -> Fsa_store.Json.t
(** Deterministic JSON ({!schema}).  [body_only] (default [false])
    omits the run-dependent blocks — settings, pair coverage, graph
    shape, per-item automata — leaving the engine/reduction-invariant
    body (what the golden tests compare across configurations). *)

val to_json_string : ?body_only:bool -> t -> string

val to_markdown : ?body_only:bool -> t -> string
(** Deterministic Markdown rendering of the same content. *)
