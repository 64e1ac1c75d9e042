(** The canonical APA of a functional model: each action consumes one
    token per incoming flow and produces one per outgoing flow.  The
    generated reachability graph is the ideal lattice of the model's
    event poset, making the tool-assisted path available for every
    manual-path model — with identical action labels, so the two paths
    cross-validate through the identity map. *)

module Term = Fsa_term.Term
module Action = Fsa_term.Action
module Apa = Fsa_apa.Apa
module Sos = Fsa_model.Sos
module Flow = Fsa_model.Flow

val flow_component : Flow.t -> string
val pending_component : Action.t -> string
val out_component : Action.t -> string

val compile : ?name:string -> Sos.t -> Apa.t

val tool_analysis :
  ?max_states:int ->
  ?stakeholder:(Action.t -> Fsa_term.Agent.t) ->
  Sos.t ->
  Analysis.tool_report

val crosscheck :
  ?max_states:int ->
  ?stakeholder:(Action.t -> Fsa_term.Agent.t) ->
  Sos.t ->
  Analysis.crosscheck
