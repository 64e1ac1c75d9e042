(** Asynchronous Product Automata (Definition 2 of the paper).

    An APA is a family of state components (sets of data terms) and a
    family of elementary automata (rules) communicating via shared state
    components.  Rules are specified in a guarded consume/read/produce
    style matching the paper's state transition relations; each variable
    binding of a rule is one interpretation and yields one labelled state
    transition. *)

module Term = Fsa_term.Term
module Action = Fsa_term.Action
module Smap : Map.S with type key = string

(** Global states: one set of ground terms per state component.  A state
    of an APA is an array indexed by the APA's component order, each slot
    a sorted array of interned terms; successors share the slots their
    firing left unchanged, and the hash is a sum of per-(component, term)
    values updated incrementally by each firing.  Equality, order and
    hash treat a missing component as empty, so a state built by {!set}
    from {!empty} equals the APA state holding the same sets. *)
module State : sig
  type t

  val empty : t
  val get : string -> t -> Term.Set.t
  val set : string -> Term.Set.t -> t -> t
  val add_elt : string -> Term.t -> t -> t
  val remove_elt : string -> Term.t -> t -> t
  val mem_elt : string -> Term.t -> t -> bool
  val compare : t -> t -> int
  val equal : t -> t -> bool

  val hash : t -> int
  (** Consistent with [equal]; well mixed in its low bits. *)

  val components : t -> string list

  val map : comp:(string -> string) -> term:(Term.t -> Term.t) -> t -> t
  (** [map ~comp ~term s] renames every component key through [comp] and
      rewrites every stored element through [term].  Used by symmetry
      reduction ({!Fsa_sym}) to apply a component permutation to a
      global state; [comp] should be injective on the components of
      [s]. *)

  val pp : t Fmt.t
  val to_string : t -> string
end

type take = { t_component : string; t_pattern : Term.t; t_consume : bool }
type put = { p_component : string; p_template : Term.t }

type rule = {
  r_name : string;
  r_takes : take list;
  r_guard : Term.Subst.t -> bool;
  r_trivial_guard : bool;
      (** [true] when no guard was supplied to {!rule}: the guard closure
          is the constant [true].  Structural analyses use this to tell
          genuinely unguarded rules from opaque guard closures. *)
  r_puts : put list;
  r_label : Term.Subst.t -> Action.t;
  r_default_label : bool;
      (** [true] when no label closure was supplied to {!rule}: every
          firing is labelled [Action.make r_name].  Symmetry reduction
          relies on this — an opaque label closure could leak instance
          identities the state permutation cannot rewrite. *)
}

val take : ?consume:bool -> string -> Term.t -> take
val read : string -> Term.t -> take
(** [read c p] matches [p] in component [c] without removing it. *)

val put : string -> Term.t -> put

val rule :
  ?guard:(Term.Subst.t -> bool) ->
  ?label:(Term.Subst.t -> Action.t) ->
  takes:take list ->
  puts:put list ->
  string ->
  rule

val rule_name : rule -> string

val neighbourhood : rule -> string list
(** N(t): the state components the elementary automaton reads or writes. *)

type t

type error =
  | Unknown_component of string * string
  | Unbound_put_variable of string * string
  | Nonground_initial of string * Term.t
  | Duplicate_rule of string
  | Duplicate_component of string

val pp_error : error Fmt.t
val validate : t -> (unit, error list) result

val make : components:(string * Term.Set.t) list -> rules:rule list -> string -> t
(** @raise Invalid_argument on an ill-formed APA. *)

val name : t -> string
val components : t -> (string * Term.Set.t) list
val rules : t -> rule list

val rule_names : t -> string list
(** The sorted action alphabet under the default labelling (one action
    per rule name) — what spec-level [check] declarations and
    homomorphism keep sets may refer to. *)

val consumers : t -> string -> rule list
(** Rules with a consuming take on the given state component. *)

val readers : t -> string -> rule list
(** Rules with a non-consuming (read) take on the component. *)

val producers : t -> string -> rule list
(** Rules with a put into the component. *)

val initial_state : t -> State.t

val step : t -> State.t -> (rule * Action.t * State.t) list
(** All enabled transitions of all elementary automata in a state: rule
    by rule in declaration order, and within a rule in descending order
    of the matched elements.  Rules are compiled once per APA (by
    {!make}, {!prefix} and {!with_initial}); a rule with an empty take
    component is rejected before any matching. *)

val enabled_rules : t -> State.t -> rule list
val is_deadlocked : t -> State.t -> bool

val compose : name:string -> t list -> t
(** Glue APAs by identifying equally-named state components (shared
    memory); initial sets are unioned. *)

val prefix : ?keep:string list -> prefix:string -> t -> t
(** Rename all components and rules with a prefix, except the shared
    components listed in [keep]. *)

val restrict : rules:string list -> t -> t
(** The APA keeping every state component (with its initial contents)
    and only the named rules, in declaration order, under the same
    name: what one module of rules explores on its own. *)

val with_initial : string -> Term.Set.t -> t -> t
(** Replace the initial content of one state component. *)

val pp : t Fmt.t
