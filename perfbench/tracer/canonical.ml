(* The canonical token-game APA of a functional model, written as .fsa
   text so that it runs through the real CLI.

   It is the APA of Fsa_core.Apa_of_model.compile in the specification
   language: one component instance [E], one state per functional flow,
   one pending state (holding one token) per minimal action, one output
   state per maximal action, and one rule per action that takes a token
   from every incoming flow (or its pending state) and puts one on every
   outgoing flow (or its output state).  Its reachability graph is the
   lattice of order ideals of the model's event poset.

   The seed permutes only the order of the state and action
   declarations, so every seed yields the same model. *)

module Action = Fsa_term.Action
module Agent = Fsa_term.Agent
module Sos = Fsa_model.Sos
module Flow = Fsa_model.Flow
module Derive = Fsa_requirements.Derive
module Auth = Fsa_requirements.Auth

let instance = "E"

let sanitize s =
  String.map
    (fun c ->
      match c with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> c | _ -> '_')
    s

(* Distinct identifiers for a list of names, suffixing repeats with their
   position. *)
let distinct names =
  List.mapi
    (fun i n ->
      if List.length (List.filter (String.equal n) names) > 1 then
        Printf.sprintf "%s_%d" n i
      else n)
    names

(* The spec's rule name of every action of the model. *)
let rule_names sos =
  let actions = Sos.all_actions sos in
  List.combine actions
    (distinct (List.map (fun a -> sanitize (Action.label a)) actions))

let rule_of names a =
  snd (List.find (fun (b, _) -> Action.equal a b) names)

(* The transition label the tool path gives an action. *)
let tool_label names a = instance ^ "_" ^ rule_of names a

let shuffle rng xs =
  let a = Array.of_list xs in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

let spec ~seed sos =
  let names = rule_names sos in
  let flows = Sos.all_flows sos in
  let flow_names =
    List.combine flows
      (distinct
         (List.map
            (fun f ->
              Printf.sprintf "f_%s__%s"
                (rule_of names (Flow.src f))
                (rule_of names (Flow.dst f)))
            flows))
  in
  let flow_name f = List.assq f flow_names in
  let incoming a = List.filter (fun f -> Action.equal (Flow.dst f) a) flows in
  let outgoing a = List.filter (fun f -> Action.equal (Flow.src f) a) flows in
  let states =
    List.map (fun (_, n) -> Printf.sprintf "  state %s = { }" n) flow_names
    @ List.concat_map
        (fun (a, r) ->
          (if incoming a = [] then [ Printf.sprintf "  state p_%s = { t }" r ]
           else [])
          @
          if outgoing a = [] then [ Printf.sprintf "  state o_%s = { }" r ]
          else [])
        names
  in
  let rules =
    List.map
      (fun (a, r) ->
        let takes =
          match incoming a with
          | [] -> [ Printf.sprintf "take p_%s(t)" r ]
          | fs -> List.map (fun f -> Printf.sprintf "take %s(t)" (flow_name f)) fs
        in
        let puts =
          match outgoing a with
          | [] -> [ Printf.sprintf "put o_%s(t)" r ]
          | fs -> List.map (fun f -> Printf.sprintf "put %s(t)" (flow_name f)) fs
        in
        Printf.sprintf "  action %s: %s -> %s" r (String.concat ", " takes)
          (String.concat ", " puts))
      names
  in
  let rng = Random.State.make [| seed |] in
  String.concat "\n"
    ([ Printf.sprintf
         "// Canonical token-game APA of the functional model %s, one state \
          per flow and one rule per action; declaration order from seed %d."
         (Sos.name sos) seed;
       "component Canonical {" ]
    @ shuffle rng states @ shuffle rng rules
    @ [ "}"; Printf.sprintf "instance %s = Canonical(1)" instance; "" ])

let triple r =
  ( Action.to_string (Auth.cause r),
    Action.to_string (Auth.effect r),
    Agent.to_string (Auth.stakeholder r) )

(* Expected tool-path answer, from the manual path and the poset alone:
   the states are the order ideals of the event poset, the requirements
   are chi of Derive.of_sos renamed to the generator's labels.  The CLI
   assigns the stakeholder SYS to every label that is not a vehicle HMI
   action, which no generated label is. *)
let expected sos =
  let names = rule_names sos in
  let states = Fsa_model.Action_graph.P.count_ideals (Sos.poset sos) in
  let reqs =
    List.sort_uniq compare
      (List.map
         (fun r ->
           (tool_label names (Auth.cause r), tool_label names (Auth.effect r), "SYS"))
         (Derive.of_sos sos))
  in
  (states, reqs)
