(* Compositional derivation against the full product.  [Analysis.tool]
   explores an APA of independent composition modules module by module
   and answers from the module graphs; here every such run is compared
   with [Lts.explore] of the whole APA and with the per-pair dependence
   oracles (test/dependence_oracle.ml): statistics, dead-state ids,
   minima, maxima, the dependence matrix, the requirements and each
   requirement's minimal automaton must be equal, and the materialised
   product must be the explored graph, state for state. *)

module Term = Fsa_term.Term
module Action = Fsa_term.Action
module Apa = Fsa_apa.Apa
module Lts = Fsa_lts.Lts
module Hom = Fsa_hom.Hom
module Structural = Fsa_struct.Structural
module Sym = Fsa_sym.Sym
module Analysis = Fsa_core.Analysis
module Auth = Fsa_requirements.Auth

let stakeholder = Fsa_requirements.Derive.default_stakeholder
let sym = Term.sym
let var = Term.var
let set = Term.Set.of_list

(* ------------------------------------------------------------------ *)
(* Random multi-module APAs                                            *)
(* ------------------------------------------------------------------ *)

(* One module's parts: its components with initial contents, and its
   rules.  Components shared between modules ([cfg], [log]) are declared
   once, by [assemble]. *)
type part = { components : (string * Term.t list) list; rules : Apa.rule list }

(* A token chain [p_s0 -> .. -> p_s<len>] in the style of
   test_spec_random's components, with one or two tokens at the start
   (two bindings of one rule from one state).  Options: every step reads
   the shared read-only [cfg] under a guard; the first step also puts
   [done] into the shared write-only [log], next to a twin step that
   does not (the collision case); the first step carries a custom
   label. *)
let chain ~p ~len ~tokens ~reads ~logs ~custom =
  let place i = Printf.sprintf "%s_s%d" p i in
  let step i =
    let takes =
      Apa.take (place i) (var "x")
      :: (if reads then [ Apa.read "cfg" (var "c") ] else [])
    in
    let guard =
      if reads then
        Some
          (fun s -> not (Term.Subst.find "x" s = Term.Subst.find "c" s))
      else None
    in
    let puts =
      Apa.put (place (i + 1)) (var "x")
      :: (if logs && i = 0 then [ Apa.put "log" (sym "done") ] else [])
    in
    let label =
      if custom && i = 0 then
        Some
          (fun s ->
            Action.make ~args:[ Option.get (Term.Subst.find "x" s) ] (p ^ "_moved"))
      else None
    in
    Apa.rule ?guard ?label ~takes ~puts (Printf.sprintf "%s_step%d" p i)
  in
  let twin =
    if logs then
      [ Apa.rule
          ~takes:[ Apa.take (place 0) (var "x") ]
          ~puts:[ Apa.put (place 1) (var "x") ]
          (p ^ "_quiet") ]
    else []
  in
  { components =
      (place 0, List.init tokens (fun k -> sym (Printf.sprintf "t%d" k)))
      :: List.init len (fun i -> (place (i + 1), []));
    rules = List.init len step @ twin }

(* A module that never dies: a token flips between [on] and [off], and a
   non-consuming rule records what it reads. *)
let cyclic ~p =
  let c = p ^ "_c" and seen = p ^ "_seen" in
  { components = [ (c, [ sym "on" ]); (seen, []) ];
    rules =
      [ Apa.rule ~takes:[ Apa.take c (sym "on") ] ~puts:[ Apa.put c (sym "off") ]
          (p ^ "_flip");
        Apa.rule ~takes:[ Apa.take c (sym "off") ] ~puts:[ Apa.put c (sym "on") ]
          (p ^ "_flop");
        Apa.rule ~takes:[ Apa.read c (var "x") ] ~puts:[ Apa.put seen (var "x") ]
          (p ^ "_peek") ] }

(* [order] permutes the rule declarations: the successors of a product
   state then interleave the modules' rules, as [Apa.step] lists them. *)
let assemble ?(order = Fun.id) name parts =
  let shared = [ ("cfg", set [ sym "t1" ]); ("log", Term.Set.empty) ] in
  Apa.make
    ~components:
      (shared
      @ List.concat_map
          (fun pt -> List.map (fun (c, ts) -> (c, set ts)) pt.components)
          parts)
    ~rules:(order (List.concat_map (fun pt -> pt.rules) parts))
    name

let gen_part i =
  let open QCheck2.Gen in
  let p = Printf.sprintf "m%d" i in
  frequency
    [ ( 5,
        let* len = int_range 1 3 in
        let* tokens = int_range 1 2 in
        let* reads = bool in
        let* logs = bool in
        let* custom = frequency [ (9, return false); (1, return true) ] in
        return (chain ~p ~len ~tokens ~reads ~logs ~custom) );
      (1, return (cyclic ~p)) ]

let gen_apa =
  let open QCheck2.Gen in
  let* n = int_range 2 3 in
  let* parts = flatten_l (List.init n gen_part) in
  let* rules = shuffle_l (List.concat_map (fun pt -> pt.rules) parts) in
  return (assemble ~order:(fun _ -> rules) "random" parts)

(* ------------------------------------------------------------------ *)
(* The comparison                                                      *)
(* ------------------------------------------------------------------ *)

let actions = Alcotest.(list (testable Action.pp Action.equal))

let same_graph what (composed : Lts.t) (full : Lts.t) =
  Alcotest.(check int) (what ^ ": states") (Lts.nb_states full)
    (Lts.nb_states composed);
  for i = 0 to Lts.nb_states full - 1 do
    if not (Apa.State.equal (Lts.state composed i) (Lts.state full i)) then
      Alcotest.failf "%s: state %s differs" what (Lts.state_name i);
    let edges g =
      List.map (fun tr -> (tr.Lts.t_label, tr.Lts.t_dst)) (Lts.succ g i)
    in
    if
      not
        (List.equal
           (fun (a, d) (b, e) -> Action.equal a b && d = e)
           (edges composed) (edges full))
    then Alcotest.failf "%s: successors of %s differ" what (Lts.state_name i)
  done

(* Everything the composed tool path answers equals the full product's
   answer and the per-pair oracles'. *)
let check_against_full what apa =
  let r = Analysis.tool ~stakeholder apa in
  let full = Lts.explore apa in
  let stats = Alcotest.testable Lts.pp_stats ( = ) in
  Alcotest.check stats (what ^ ": stats") (Lts.stats full) r.Analysis.t_stats;
  Alcotest.check stats (what ^ ": stats of t_lts") (Lts.stats full)
    (Lts.stats r.Analysis.t_lts);
  Alcotest.(check (list int)) (what ^ ": dead-state ids") (Lts.deadlocks full)
    (Lts.deadlocks r.Analysis.t_lts);
  let minima = Action.Set.elements (Lts.minima full)
  and maxima = Action.Set.elements (Lts.maxima full) in
  Alcotest.check actions (what ^ ": minima") minima r.Analysis.t_minima;
  Alcotest.check actions (what ^ ": maxima") maxima r.Analysis.t_maxima;
  Alcotest.check actions (what ^ ": alphabet")
    (Action.Set.elements (Lts.alphabet full))
    (Action.Set.elements (Lts.alphabet r.Analysis.t_lts));
  let oracle = Dependence_oracle.abstract full ~minima ~maxima in
  let matrix = Alcotest.(list (pair (testable Action.pp Action.equal)
                                 (list (pair (testable Action.pp Action.equal) bool)))) in
  Alcotest.check matrix (what ^ ": matrix = abstract oracle") oracle
    r.Analysis.t_matrix;
  Alcotest.check matrix (what ^ ": matrix = direct oracle")
    (Dependence_oracle.direct full ~minima ~maxima)
    r.Analysis.t_matrix;
  let reqs = Alcotest.testable Auth.pp_set ( = ) in
  Alcotest.check reqs (what ^ ": requirements")
    (Dependence_oracle.requirements ~stakeholder oracle)
    r.Analysis.t_requirements;
  List.iter
    (fun req ->
      let c = Auth.cause req and e = Auth.effect req in
      let want = Hom.minimal_automaton (Hom.preserve [ c; e ]) full in
      let got =
        Hom.Shared.minimal_automaton (Option.get r.Analysis.t_engine)
          ~min_action:c ~max_action:e
      in
      Alcotest.(check (pair int int))
        (Fmt.str "%s: automaton of %a" what Auth.pp req)
        (Hom.A.Dfa.nb_states want, Hom.A.Dfa.nb_transitions want)
        (Hom.A.Dfa.nb_states got, Hom.A.Dfa.nb_transitions got))
    r.Analysis.t_requirements;
  (match r.Analysis.t_engine with
  | None -> ()
  | Some e ->
    let direct =
      Hom.Shared.build ~alphabet:(Hom.Shared.alphabet e) ~minima ~maxima full
    in
    Alcotest.(check int) (what ^ ": quotient size")
      (Hom.A.Dfa.nb_states (Hom.Shared.dfa direct))
      (Hom.Shared.nb_states e);
    Alcotest.(check bool) (what ^ ": quotient = the full product's") true
      (Hom.A.Dfa.isomorphic (Hom.Shared.dfa e) (Hom.Shared.dfa direct));
    Alcotest.(check bool) (what ^ ": early pairs") true
      (Hom.Pair_set.equal (Hom.Shared.early e) (Hom.Shared.early direct));
    List.iter
      (fun mx ->
        List.iter
          (fun mn ->
            if
              not
                (Hom.A.Dfa.isomorphic
                   (Hom.Shared.minimal_automaton e ~min_action:mn
                      ~max_action:mx)
                   (Hom.minimal_automaton (Hom.preserve [ mn; mx ]) full))
            then
              Alcotest.failf "%s: minimal automaton of (%a, %a)" what Action.pp
                mn Action.pp mx)
          minima)
      maxima);
  same_graph what r.Analysis.t_lts full

let modules apa = Structural.composition_modules (Structural.of_apa apa)

let prop_composed_equals_full =
  QCheck2.Test.make ~count:60 ~name:"composed tool = full product and oracles"
    ~print:(Fmt.to_to_string Apa.pp) gen_apa (fun apa ->
      check_against_full "random" apa;
      true)

(* The generator must actually reach the composed path: most draws
   split into two or more modules. *)
let test_generator_composes () =
  let rand = Random.State.make [| 16 |] in
  let draws = List.init 40 (fun _ -> QCheck2.Gen.generate1 ~rand gen_apa) in
  let composed = List.filter (fun a -> List.length (modules a) >= 2) draws in
  Alcotest.(check bool) "most random specs have several modules" true
    (List.length composed >= 20)

(* Two modules put [done] into one write-only component, one of them
   also on a twin path that does not.  Interference alone leaves them
   independent (two puts commute), but APA states are sets: after both
   have moved, "logged by A" and "logged by B only" are one state of the
   APA and two of the product.  Composition modules merge them. *)
let collision_apa () =
  assemble "collision"
    [ chain ~p:"a" ~len:1 ~tokens:1 ~reads:false ~logs:true ~custom:false;
      chain ~p:"b" ~len:1 ~tokens:1 ~reads:false ~logs:true ~custom:false ]

let test_shared_put_collision () =
  let apa = collision_apa () in
  let plan = Sym.por_plan apa (Structural.of_apa apa) in
  Alcotest.(check int) "interference modules keep the two apart" 2
    (List.length (Sym.por_modules plan));
  Alcotest.(check int) "composition modules merge them" 1
    (List.length (modules apa));
  let por_product =
    List.fold_left
      (fun acc m ->
        acc
        * Lts.nb_states
            (Lts.explore (Apa.restrict ~rules:m.Sym.m_rules apa)))
      1 (Sym.por_modules plan)
  in
  Alcotest.(check (pair int int)) "the APA has fewer states than the product"
    (7, 9)
    (Lts.nb_states (Lts.explore apa), por_product);
  check_against_full "collision" apa

(* A cyclic module has no dead state, so the product has none and no
   maxima, although the other modules have theirs. *)
let test_cyclic_module () =
  let apa =
    assemble "cyclic"
      [ chain ~p:"a" ~len:2 ~tokens:2 ~reads:true ~logs:false ~custom:false;
        cyclic ~p:"c" ]
  in
  Alcotest.(check int) "two modules" 2 (List.length (modules apa));
  let r = Analysis.tool ~stakeholder apa in
  Alcotest.(check int) "no maxima" 0 (List.length r.Analysis.t_maxima);
  check_against_full "cyclic" apa

(* A custom label keeps the single-product path (two modules could
   label steps alike); its answers are the full product's anyway. *)
let test_custom_label () =
  let apa =
    assemble "custom"
      [ chain ~p:"a" ~len:2 ~tokens:1 ~reads:false ~logs:false ~custom:true;
        chain ~p:"b" ~len:1 ~tokens:2 ~reads:false ~logs:false ~custom:false ]
  in
  check_against_full "custom" apa

(* The bundled fleet: four modules of 13 states, answered without the
   28 561-state product, and identical to it. *)
let test_fleet () =
  match Test_check.spec_dir () with
  | None -> ()
  | Some dir ->
    let apa =
      Fsa_spec.Elaborate.apa_of_spec
        (Fsa_spec.Parser.parse_file (Filename.concat dir "evita_fleet.fsa"))
    in
    Alcotest.(check (list int)) "four modules of 13 states" [ 13; 13; 13; 13 ]
      (List.map
         (fun rules -> Lts.nb_states (Lts.explore (Apa.restrict ~rules apa)))
         (modules apa));
    check_against_full "evita_fleet" apa

(* The product's bound is the explored product's: the same typed error
   past [max_states], however small each module is. *)
let test_bound () =
  let apa =
    assemble "bound"
      [ chain ~p:"a" ~len:3 ~tokens:1 ~reads:false ~logs:false ~custom:false;
        chain ~p:"b" ~len:3 ~tokens:1 ~reads:false ~logs:false ~custom:false ]
  in
  Alcotest.(check int) "16 states" 16 (Lts.nb_states (Lts.explore apa));
  Alcotest.(check bool) "16 fit a bound of 16" true
    (Lts.nb_states (Analysis.tool ~max_states:16 ~stakeholder apa).Analysis.t_lts
    = 16);
  match Analysis.tool ~max_states:15 ~stakeholder apa with
  | _ -> Alcotest.fail "a bound of 15 must fail"
  | exception Lts.State_space_too_large 15 -> ()

(* The request deadline reaches the numbering walk: a progress callback
   raising past the modules' state counts stops [Analysis.tool] there. *)
exception Stop

let test_progress_stops_walk () =
  let apa =
    assemble "deadline"
      [ chain ~p:"a" ~len:3 ~tokens:1 ~reads:false ~logs:false ~custom:false;
        chain ~p:"b" ~len:3 ~tokens:1 ~reads:false ~logs:false ~custom:false ]
  in
  let progress =
    Fsa_obs.Progress.create ~every_n:1 ~every_ns:Int64.max_int (fun u ->
        (* only the walk counts from 11 to 16: module explorations stay
           at or below 4 + 4, the engines' builds start past 16 *)
        if (not u.Fsa_obs.Progress.u_final) && u.Fsa_obs.Progress.u_count > 10
        then if u.Fsa_obs.Progress.u_count <= 16 then raise Stop else raise Exit)
  in
  match Analysis.tool ~progress ~stakeholder apa with
  | _ -> Alcotest.fail "the walk must tick past 10"
  | exception Stop -> ()

let suite =
  [ QCheck_alcotest.to_alcotest prop_composed_equals_full;
    Alcotest.test_case "generator reaches composition" `Quick
      test_generator_composes;
    Alcotest.test_case "shared-put collision" `Quick test_shared_put_collision;
    Alcotest.test_case "cyclic module" `Quick test_cyclic_module;
    Alcotest.test_case "custom label" `Quick test_custom_label;
    Alcotest.test_case "evita_fleet" `Quick test_fleet;
    Alcotest.test_case "product bound" `Quick test_bound;
    Alcotest.test_case "progress stops the walk" `Quick
      test_progress_stops_walk ]
