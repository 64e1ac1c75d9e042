(** First-order data terms.

    Terms represent the information items flowing through a system of
    systems: sensor readings ([sW]), positions ([pos1]), messages
    ([cam(pos1)]), warnings ([warn(pos1)]).  Variables occur in rule
    patterns and in generalised (first-order) requirements. *)

module String_map : Map.S with type key = string
module String_set : Set.S with type elt = string

type t =
  | Sym of string  (** atomic symbol, e.g. [sW] *)
  | Int of int  (** integer literal, e.g. a position coordinate *)
  | Var of string  (** variable, printed [?x] *)
  | App of string * t list  (** compound term, e.g. [cam(pos1)] *)

val compare : t -> t -> int
val compare_list : t list -> t list -> int
val equal : t -> t -> bool
val pp : t Fmt.t
val to_string : t -> string

val sym : string -> t
val int : int -> t
val var : string -> t

val app : string -> t list -> t
(** [app f args] is [App (f, args)], collapsed to [Sym f] when [args = []]. *)

val hash : t -> int
(** A structural hash consistent with {!equal}. *)

val intern : t -> t
(** Hash-consing: a canonical, physically-shared representative of the
    term (subterms included), equal to the argument.  Interned terms make
    the physical-equality fast paths of {!equal} and {!compare} fire, so
    the state-space exploration hot path compares pointers instead of
    walking structures.  Pools are per-domain; cross-domain physical
    sharing is not guaranteed (and not required for correctness). *)

val vars : t -> String_set.t
val is_ground : t -> bool
val size : t -> int

val map_vars : (string -> t option) -> t -> t
(** [map_vars f t] replaces each variable [v] by [f v] when defined. *)

val rename : string -> t -> t
(** [rename prefix t] prefixes every variable name, for freshness. *)

(** Substitutions: finite maps from variable names to terms. *)
module Subst : sig
  type term = t
  type t

  val empty : t
  val is_empty : t -> bool
  val singleton : string -> term -> t

  val add : string -> term -> t -> t option
  (** [add v t s] extends [s]; [None] if [v] is already bound to a
      different term. *)

  val find : string -> t -> term option
  val bindings : t -> (string * term) list
  val apply : t -> term -> term

  val merge : t -> t -> t option
  (** Union of two substitutions; [None] on a conflicting binding. *)

  val pp : t Fmt.t
end

val match_ : pattern:t -> target:t -> Subst.t option
(** One-way matching: a substitution [s] with [Subst.apply s pattern =
    target], if one exists. *)

val match_in : Subst.t -> pattern:t -> target:t -> Subst.t option
(** [match_in s ~pattern ~target] extends [s] by matching; equal to
    [Option.bind (match_ ~pattern ~target) (Subst.merge s)]. *)

val unify : t -> t -> Subst.t option
(** Syntactic unification with occurs-check. *)

val parse_term : Lexer.t -> t
(** Parse a term from an ongoing token stream.
    @raise Lexer.Error on malformed input. *)

val of_string : string -> (t, string) result
val of_string_exn : string -> t

module Set : Set.S with type elt = t
module Map : Map.S with type key = t
