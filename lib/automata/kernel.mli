(** The integer automata kernel: subset construction and Hopcroft
    minimisation over dense letter ids.

    The one implementation of both algorithms in the repository:
    {!Automata.Make} interns its label alphabet and calls it, and the
    shared abstraction engine of [Fsa_hom] erases reachability graphs
    straight into {!nfa} form.  Letter ids are [0 .. nb_letters - 1];
    callers that want label-stable output numbering assign them in label
    order. *)

exception Too_many_states of int
(** Raised by {!determinize} when it would materialise more subsets
    than its [max_states] bound (the bound is the argument). *)

type nfa = {
  nb_states : int;
  nb_letters : int;
  off : int array;
      (** [nb_states + 1] row offsets: the edges leaving [s] are
          [off.(s) .. off.(s + 1) - 1] *)
  lab : int array;  (** edge letter; [-1] for an erased (epsilon) edge *)
  dst : int array;  (** edge target *)
  starts : int array;
  final : Bytes.t;  (** [nb_states] bytes, non-zero = accepting *)
}
(** A nondeterministic automaton with epsilon edges, in CSR form. *)

type dfa = {
  d_states : int;
  d_letters : int;
  d_start : int;
  d_final : Bytes.t;  (** [d_states] bytes, non-zero = accepting *)
  d_delta : int array;
      (** [d_states * d_letters] targets, row-major; [-1] = no
          transition (partial DFAs reject there) *)
}

val is_final : Bytes.t -> int -> bool

val of_edges :
  nb_states:int ->
  nb_letters:int ->
  starts:int array ->
  final:Bytes.t ->
  ((int -> int -> int -> unit) -> unit) ->
  nfa
(** [of_edges ... iter] builds the CSR form of the edges [iter f] passes
    to [f src letter dst]; [iter] is run twice (count, then fill). *)

val relabel : nb_letters:int -> int array -> dfa -> nfa
(** [relabel ~nb_letters map d]: every transition of [d] on letter [l]
    becomes an edge on [map.(l)] ([-1] erases it).  The result
    recognises the image of [d]'s language under the letter map. *)

val determinize :
  ?max_states:int -> ?tick:(frontier:int -> unit) -> nfa -> dfa
(** Subset construction over reachable subsets.  Subsets are numbered in
    breadth-first discovery order, the start closure first, successors
    in ascending letter order; a subset accepts when it contains an
    accepting state.  [tick] is called once per materialised subset with
    the number of subsets still to expand.
    @raise Too_many_states beyond [max_states] subsets (default: no
    bound). *)

val minimize : ?tick:(frontier:int -> unit) -> dfa -> dfa
(** Hopcroft's partition refinement on the trimmed, completed automaton;
    the result is trim.  [tick] is called once per worklist batch (one
    (block, letter) splitter) with the number of batches still queued.
    Records [automata.minimize_runs], [automata.hopcroft_splits] and the
    [automata.minimize_states_in/out] gauges. *)
