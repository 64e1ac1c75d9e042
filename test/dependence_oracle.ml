(* The two per-pair dependence tests the shared abstraction engine
   replaced on the tool path, kept as test oracles.  Each decides one
   (min, max) pair on its own: {!Fsa_hom.Hom.depends_abstract} erases
   the behaviour to [{min, max}] and inspects the minimal automaton
   (Sect. 5.5), {!Fsa_lts.Lts.depends_on} searches the reachability
   graph for a run reaching [max] without [min].  Slow, but independent
   of {!Fsa_core.Analysis.tool}: its matrix must equal both. *)

module Action = Fsa_term.Action
module Lts = Fsa_lts.Lts
module Hom = Fsa_hom.Hom
module Auth = Fsa_requirements.Auth

type matrix = (Action.t * (Action.t * bool) list) list
(** Rows per maximum, columns per minimum: the shape of
    {!Fsa_core.Analysis.tool_report.t_matrix}. *)

let matrix depends lts ~minima ~maxima : matrix =
  List.map
    (fun mx ->
      ( mx,
        List.map
          (fun mn -> (mn, depends lts ~min_action:mn ~max_action:mx))
          minima ))
    maxima

let abstract = matrix Hom.depends_abstract

let direct =
  matrix (fun lts ~min_action ~max_action ->
      Lts.depends_on lts ~max_action ~min_action)

(* The requirements a matrix derives, as the tool path derives them. *)
let requirements ~stakeholder (m : matrix) =
  List.concat_map
    (fun (mx, row) ->
      List.filter_map
        (fun (mn, dep) ->
          if dep then
            Some (Auth.make ~cause:mn ~effect:mx ~stakeholder:(stakeholder mx))
          else None)
        row)
    m
  |> Auth.normalise

(* The direct requirements of an APA, explored unreduced. *)
let direct_requirements ?max_states ~stakeholder apa =
  let lts = Lts.explore ?max_states apa in
  direct lts
    ~minima:(Action.Set.elements (Lts.minima lts))
    ~maxima:(Action.Set.elements (Lts.maxima lts))
  |> requirements ~stakeholder
