(** Static information-flow analysis over an APA model.

    {!Fsa_struct.Structural} prunes (min, max) dependence pairs by token
    reachability over the net skeleton — puts unified against take
    patterns, guards ignored.  This module refines that graph with the
    guards it can decide statically, and reads security-relevant facts
    off the result:

    - the {e def-use flow graph} has the rules and state components of
      the APA as nodes; a rule's takes and reads are uses, its puts are
      definitions, and a directed rule edge [r1 -> r2] over component
      [c] exists when some put template of [r1] unifies (variables
      renamed apart) with some take pattern of [r2] on [c];
    - a candidate (put, take) pair is {e killed} when the unifier binds
      every variable the consumer's guard inspects to a {b ground} term
      and the guard evaluates to [false] on those bindings.  A most
      general unifier factors every concrete producer/consumer match,
      so a ground binding is forced in every instance: the guard
      rejects {e every} token this put can deliver to this take, and
      removing the edge is sound.  Partial bindings, opaque guards and
      guard exceptions all conservatively keep the edge;
    - {e taint reachability} over the killed-refined rule graph
      over-approximates functional dependence exactly as the skeleton
      argument does ({!Fsa_struct.Structural.independent}): if no flow
      path leads from [min]'s rule to [max]'s rule, deleting [min]'s
      firings and their downward flow closure from any run leaves a
      valid run still containing [max], so the dependence test is
      negative by construction.  The refined graph is a subgraph of the
      skeleton's, so every pair independent at skeleton level is
      independent here too;
    - on top of the graph, the analyses behind the FSA060–FSA069
      diagnostics: protected components flowing into cross-instance
      channels (confidentiality leaks), cross-instance edges whose
      consumer has no guard (unsanitized flows), initially-enabled
      rules influencing no output rule (dead attack surface), and flow
      cycles every rule of which is unguarded.

    Everything is deterministic: rules and components keep their APA
    declaration order, edge lists are ordered by (source, target,
    component), reachability is a memoized DFS in index order. *)

module Term = Fsa_term.Term
module Apa = Fsa_apa.Apa

(** {1 Attribution}

    The APA itself does not know which elaborated instance a rule
    belongs to or which variables a guard closure inspects — the
    specification layer does.  Callers with a located skeleton inject
    both; programmatic models fall back to a naming heuristic and
    guard-opaque (kill-free) construction. *)

type attribution = {
  at_instance : string -> string option;
      (** elaborated instance of a rule, e.g. [V1] for [V1_send];
          [None] when unknown *)
  at_guard_vars : string -> string list option;
      (** the complete set of variables the rule's guard inspects;
          [None] when unknown (the guard is then never evaluated and no
          edge into the rule is killed) *)
}

val heuristic_attribution : attribution
(** Rule names are split at the first ['_'] into instance and use-case
    action (the {!Fsa_report} fallback convention); guard variables are
    unknown. *)

(** {1 The flow graph} *)

type edge = {
  e_src : string;  (** producing rule *)
  e_dst : string;  (** consuming or reading rule *)
  e_component : string;  (** the component carrying the flow *)
  e_consume : bool;  (** some surviving take on this edge consumes *)
  e_cross : bool;  (** source and target belong to distinct instances *)
  e_unguarded : bool;  (** the target rule has a trivial guard *)
}

type kill = {
  k_src : string;
  k_dst : string;
  k_component : string;
  k_bindings : (string * Term.t) list;
      (** the ground guard bindings the unifier forces, sorted by
          variable name — the evidence the guard was evaluated on *)
}

type t

val build : ?attribution:attribution -> Apa.t -> t
(** Construct the flow graph (under a [flow.build] span).  Default
    attribution is {!heuristic_attribution}. *)

val rules : t -> string list
(** Rule names in declaration order. *)

val components : t -> string list
(** Component names in declaration order. *)

val edges : t -> edge list
(** Surviving rule edges, ordered by (source index, target index,
    component). *)

val kills : t -> kill list
(** Candidate edges severed by ground guard evaluation, same order.  An
    entry here does not preclude a surviving edge between the same
    rules through another (put, take) pair or component. *)

val instance_of : t -> string -> string option
val guarded : t -> string -> bool
(** Does the rule have a non-trivial guard? *)

val shared_channels : t -> string list
(** Components read or written by rules of at least two distinct
    attributed instances — the cross-instance communication channels
    (sorted). *)

val protected_components : t -> string list
(** Components whose name suggests secret material (contains [key],
    [secret], [priv], [credential], [token] or [passw],
    case-insensitively); sorted.  A naming heuristic, used only to
    direct diagnostics — never to prune. *)

val entry_rules : t -> string list
(** Rules whose every take pattern matches a term of the initial state
    — the statically attacker-reachable entry surface (declaration
    order). *)

val output_rules : t -> string list
(** Rules that produce nothing any rule consumes or reads: every put
    lands in a pure-sink component (or the rule has no puts at all) —
    the observable effect surface (declaration order). *)

(** {1 Taint reachability} *)

val reaches : t -> string -> string -> bool
(** Is there a flow path (length >= 0) between two rules in the refined
    graph?  Unknown rule names conservatively reach everything. *)

val independent : t -> min:string -> max:string -> bool
(** [true] when no flow path leads from [min]'s rule to [max]'s rule —
    then the functional dependence test for the (min, max) pair must
    come out negative, and {!Fsa_core} may skip it.  Unknown rule names
    are conservatively dependent. *)

val independent_pairs : t -> int
(** Ordered rule pairs (distinct endpoints) proved independent. *)

val skeleton_independent_pairs : t -> int
(** The same count over the unrefined skeleton graph (kills ignored) —
    the baseline for reporting the refinement gain. *)

val rule_pairs : t -> int
(** All ordered rule pairs, [n * (n - 1)]. *)

(** {1 Security analyses} *)

type leak = {
  lk_source : string;  (** protected component *)
  lk_channel : string;  (** cross-instance channel it flows into *)
  lk_rules : string list;
      (** a shortest witness rule path: the first rule takes or reads
          the source, the last puts into the channel; empty when the
          protected component is itself a shared channel *)
}

val leaks : t -> leak list
(** Protected components with a flow path into a cross-instance
    channel, one shortest witness per (source, channel), sorted. *)

val unsanitized : t -> edge list
(** Cross-instance edges whose consumer has a trivial guard: data
    crosses a system boundary with no check at all. *)

val dead_sources : t -> string list
(** Entry rules from which no output rule is reachable: an
    attacker-facing action that can influence no observable effect.
    Empty when the model declares no output rules (then the notion is
    vacuous). *)

val unguarded_cycles : t -> string list list
(** Flow cycles (non-trivial SCCs, or self-loops) every rule of which
    is unguarded: unchecked feedback loops.  Each cycle is its sorted
    rule list; the list of cycles is sorted. *)


(** {1 Report} *)

type report = {
  r_rules : string list;
  r_components : string list;
  r_edges : edge list;
  r_kills : kill list;
  r_shared : string list;
  r_protected : string list;
  r_entries : string list;
  r_outputs : string list;
  r_leaks : leak list;
  r_unsanitized : edge list;
  r_dead : string list;
  r_cycles : string list list;
  r_independent_pairs : int;
  r_skeleton_independent_pairs : int;
  r_rule_pairs : int;
}

val analyse : t -> report

val pp_report : report Fmt.t

val report_to_json : report -> string
(** Deterministic JSON object (fixed key order, trailing newline). *)

val to_dot : t -> string
(** Graphviz rendering of the bipartite graph: components as boxes
    (shared channels doubled, protected ones filled), rules as
    ellipses, take edges dashed when reading, killed rule edges dotted
    and labelled with the deciding component. *)
