(** Reachability graphs of APA models (Definition 3 of the paper).

    States are numbered in breadth-first discovery order and printed
    [M-1], [M-2], ... in the style of the SH verification tool. *)

module Term = Fsa_term.Term
module Action = Fsa_term.Action
module State = Fsa_apa.Apa.State

type transition = { t_src : int; t_label : Action.t; t_dst : int }
type t

exception State_space_too_large of int

(** Exploration-time reduction hooks, supplied by {!Fsa_sym} (the LTS
    layer itself stays reduction-agnostic).  Both functions must be pure:
    they are applied transition by transition, and the state numbering
    is reproducible only if they are. *)
type reduction = {
  rd_canon : State.t -> State.t;
      (** canonical orbit representative, applied to every successor
          before interning (never to the initial state) *)
  rd_ample :
    State.t ->
    (Fsa_apa.Apa.rule * Action.t * State.t) list ->
    (Fsa_apa.Apa.rule * Action.t * State.t) list;
      (** restrict a state's enabled transitions to an ample subset *)
}

val no_reduction : reduction
(** Identity hooks: full exploration. *)

val explore :
  ?max_states:int ->
  ?reduce:reduction ->
  ?progress:Fsa_obs.Progress.t ->
  Fsa_apa.Apa.t ->
  t
(** Breadth-first state-space exploration from the initial state.  When
    [progress] is given it is ticked once per expanded state with the
    number of discovered states and the current frontier size.  With
    observability enabled ({!Fsa_obs.Metrics.set_enabled}), exploration
    records the [lts.*] counters and runs inside an [lts.explore] span.
    With [reduce], successor states are canonicalised and successor
    lists restricted before interning — the result is the reduced
    (quotient) graph.
    @raise State_space_too_large beyond [max_states] (default 1e6). *)

val product :
  ?progress:Fsa_obs.Progress.t -> rank:(Action.t -> int) -> t list -> t
(** The product of independent module graphs: the graph the whole APA
    would explore when its rules split into modules that can neither
    enable, disable nor feed each other, and no two of which write one
    state component (see DESIGN.md, "Compositional derivation").  Each
    module is the graph of the APA restricted to its module's rules, so
    every module starts in the APA's initial state.

    The product is represented, not built:
    - {!name}, {!nb_states} (Π Sᵢ), {!nb_transitions}
      (Σ Tᵢ·Π_{j≠i} Sⱼ), {!stats} (dead states Π Dᵢ, labels the union
      of the module alphabets), {!minima} (the union of the module
      minima), {!maxima} (the union of the module maxima when every
      module has a dead state, none otherwise) and {!alphabet} come from
      the module graphs;
    - {!deadlocks} come from one integer walk over the module graphs,
      run here, which numbers product states as {!explore} numbers the
      whole APA's: the successors of a product state are the modules'
      steps merged by [rank], the global declaration index of the rule
      whose firing carries the label;
    - every other accessor materialises the explicit product, through
      the same walk, on first use: the same states, ids and transitions
      as {!explore} of the whole APA.

    Nested products are flattened; a single module is returned as it
    is.  [progress] is ticked once per product state of the walk and
    finished at its end.
    @raise Invalid_argument on an empty list, a state count beyond
    [max_int], or a module state unreachable from its initial state. *)

val name : t -> string
val nb_states : t -> int
val nb_transitions : t -> int
val initial : t -> int
val state : t -> int -> State.t
val succ : t -> int -> transition list
val pred : t -> int -> transition list
val transitions : t -> transition list
(** All transitions as a fresh list; prefer {!iter_transitions} or
    {!fold_transitions} on hot paths — they do not materialize the
    list. *)

val iter_transitions : (transition -> unit) -> t -> unit
val fold_transitions : (transition -> 'a -> 'a) -> t -> 'a -> 'a

val of_edges : ?name:string -> nb_states:int -> transition list -> t
(** A synthetic graph over states [0 .. nb_states - 1] (state [0]
    initial, all states carrying {!State.empty}), for tests and for
    ingesting externally computed reachability graphs.
    @raise Invalid_argument on out-of-range endpoints. *)

val state_name : int -> string
val fold_states : (int -> 'a -> 'a) -> t -> 'a -> 'a
val alphabet : t -> Action.Set.t

val deadlocks : t -> int list
(** States without outgoing transitions ("+++ dead +++"). *)

val minima : t -> Action.Set.t
(** Actions leaving the initial state: the minima of the partial order of
    functionally dependent actions (Sect. 5.4). *)

val maxima : t -> Action.Set.t
(** Actions entering a dead state: the maxima. *)

val trace_to : t -> int -> Action.t list option
val words : max_len:int -> t -> Action.t list list

val reachable_without :
  t -> avoid:(Action.t -> bool) -> target:(Action.t -> bool) -> bool
(** Is a [target]-labelled transition reachable along a path containing no
    [avoid]-labelled transition? *)

val depends_on : t -> max_action:Action.t -> min_action:Action.t -> bool
(** Direct functional dependence test: [max_action] depends on
    [min_action] iff every path to an occurrence of [max_action] contains
    a prior occurrence of [min_action]. *)

val count_complete_runs : t -> int option
(** Number of maximal paths to dead states; [None] on cyclic graphs.
    Equals the number of linear extensions of the event poset for
    every-action-once scenarios. *)

type deadlock_report = { dr_complete : int list; dr_stuck : int list }

val classify_deadlocks : t -> complete:(State.t -> bool) -> deadlock_report
(** Split dead states by a completion predicate; stuck deadlocks indicate
    modelling errors (e.g. a message consumed by a component that cannot
    process it). *)

type stats = {
  nb_states : int;
  nb_transitions : int;
  nb_deadlocks : int;
  nb_labels : int;
}

val stats : t -> stats
val pp_stats : stats Fmt.t
val dot : ?name:string -> t -> string

val pp_min_max : t Fmt.t
(** The tool's minima/maxima summary in the format of Example 6. *)
