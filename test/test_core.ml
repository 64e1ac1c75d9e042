(* Tests for Fsa_core.Analysis: the two analysis paths and their
   cross-validation. *)

module Action = Fsa_term.Action
module Agent = Fsa_term.Agent
module Auth = Fsa_requirements.Auth
module Analysis = Fsa_core.Analysis
module S = Fsa_vanet.Scenario
module V = Fsa_vanet.Vehicle_apa

let auth = Alcotest.testable Auth.pp Auth.equal

let test_manual_report () =
  let r = Analysis.manual S.two_vehicles in
  Alcotest.(check int) "3 requirements" 3 (List.length r.Analysis.m_requirements);
  Alcotest.(check int) "chi matches requirements" 3 (List.length r.Analysis.m_chi);
  Alcotest.(check int) "every requirement classified" 3
    (List.length r.Analysis.m_classified);
  Alcotest.(check int) "3 incoming boundary actions" 3
    (List.length r.Analysis.m_boundary.Fsa_model.Sos.incoming);
  Alcotest.(check int) "1 outgoing boundary action" 1
    (List.length r.Analysis.m_boundary.Fsa_model.Sos.outgoing)

let test_tool_report_two_vehicles () =
  let r = Analysis.tool ~stakeholder:V.stakeholder (V.two_vehicles ()) in
  Alcotest.(check int) "13 states" 13 r.Analysis.t_stats.Fsa_lts.Lts.nb_states;
  Alcotest.(check (list auth)) "Sect. 5.4 requirement set"
    [ Auth.make ~cause:(V.v_pos 1) ~effect:(V.v_show 2)
        ~stakeholder:(Agent.concrete "D" 2);
      Auth.make ~cause:(V.v_sense 1) ~effect:(V.v_show 2)
        ~stakeholder:(Agent.concrete "D" 2);
      Auth.make ~cause:(V.v_pos 2) ~effect:(V.v_show 2)
        ~stakeholder:(Agent.concrete "D" 2) ]
    r.Analysis.t_requirements

let test_tool_report_four_vehicles () =
  let r = Analysis.tool ~stakeholder:V.stakeholder (V.four_vehicles ()) in
  Alcotest.(check int) "169 states" 169 r.Analysis.t_stats.Fsa_lts.Lts.nb_states;
  Alcotest.(check int) "6 requirements (Sect. 5.5)" 6
    (List.length r.Analysis.t_requirements);
  (* the matrix covers all (max, min) combinations *)
  Alcotest.(check int) "2 maxima rows" 2 (List.length r.Analysis.t_matrix);
  List.iter
    (fun (_, row) -> Alcotest.(check int) "6 minima columns" 6 (List.length row))
    r.Analysis.t_matrix

(* The tool path's abstraction-based verdicts derive the same
   requirements as the direct test on the reachability graph. *)
let test_methods_agree () =
  List.iter
    (fun apa ->
      let direct =
        Dependence_oracle.direct_requirements ~stakeholder:V.stakeholder apa
      in
      let abstract = Analysis.tool ~stakeholder:V.stakeholder apa in
      Alcotest.(check bool)
        (Fsa_apa.Apa.name apa ^ ": direct = abstract")
        true
        (Auth.equal_set direct abstract.Analysis.t_requirements))
    [ V.two_vehicles (); V.four_vehicles (); V.chain 3; V.chain 4 ]

let test_crosscheck_agreement () =
  List.iter
    (fun (apa, sos) ->
      let tool = Analysis.tool ~stakeholder:V.stakeholder apa in
      let manual = Analysis.manual sos in
      let c =
        Analysis.crosscheck ~map:V.manual_action_of_label
          ~manual_requirements:manual.Analysis.m_requirements
          ~tool_requirements:tool.Analysis.t_requirements
      in
      Alcotest.(check bool) (Fsa_apa.Apa.name apa ^ " agrees") true c.Analysis.c_agree)
    [ (V.two_vehicles (), S.chain_concrete 2);
      (V.four_vehicles (), S.pairs_concrete 2);
      (V.chain 3, S.chain_concrete 3);
      (V.chain 5, S.chain_concrete 5) ]

let test_crosscheck_detects_differences () =
  let tool = Analysis.tool ~stakeholder:V.stakeholder (V.two_vehicles ()) in
  let manual = Analysis.manual (S.chain_concrete 2) in
  (* inject a spurious manual requirement *)
  let spurious =
    Auth.make
      ~cause:(Action.of_string_exn "pos(GPS_9, pos)")
      ~effect:(Action.of_string_exn "show(HMI_2, warn)")
      ~stakeholder:(Agent.concrete "D" 2)
  in
  let c =
    Analysis.crosscheck ~map:V.manual_action_of_label
      ~manual_requirements:(spurious :: manual.Analysis.m_requirements)
      ~tool_requirements:tool.Analysis.t_requirements
  in
  Alcotest.(check bool) "disagreement detected" false c.Analysis.c_agree;
  Alcotest.(check (list auth)) "manual-only requirement reported" [ spurious ]
    c.Analysis.c_manual_only;
  (* and a tool action without a manual image is reported *)
  let c2 =
    Analysis.crosscheck
      ~map:(fun _ -> None)
      ~manual_requirements:[]
      ~tool_requirements:tool.Analysis.t_requirements
  in
  Alcotest.(check bool) "unmapped actions detected" false c2.Analysis.c_agree;
  Alcotest.(check bool) "unmapped list non-empty" true (c2.Analysis.c_unmapped <> [])

let test_max_states_plumbing () =
  match
    Analysis.tool ~max_states:5 ~stakeholder:V.stakeholder (V.two_vehicles ())
  with
  | _ -> Alcotest.fail "bound must propagate"
  | exception Fsa_lts.Lts.State_space_too_large _ -> ()

let test_reports_render () =
  let manual = Analysis.manual S.three_vehicles in
  let text = Fmt.str "%a" Analysis.pp_manual_report manual in
  Alcotest.(check bool) "manual report mentions policy" true
    (let sub = "policy" in
     let rec contains i =
       i + String.length sub <= String.length text
       && (String.sub text i (String.length sub) = sub || contains (i + 1))
     in
     contains 0);
  let tool = Analysis.tool ~stakeholder:V.stakeholder (V.two_vehicles ()) in
  let text2 = Fmt.str "%a" Analysis.pp_tool_report tool in
  Alcotest.(check bool) "tool report mentions minima" true
    (let sub = "minima" in
     let rec contains i =
       i + String.length sub <= String.length text2
       && (String.sub text2 i (String.length sub) = sub || contains (i + 1))
     in
     contains 0)

let suite =
  [ Alcotest.test_case "manual report" `Quick test_manual_report;
    Alcotest.test_case "tool report (2 vehicles)" `Quick test_tool_report_two_vehicles;
    Alcotest.test_case "tool report (4 vehicles)" `Quick test_tool_report_four_vehicles;
    Alcotest.test_case "direct = abstract" `Quick test_methods_agree;
    Alcotest.test_case "crosscheck agreement" `Quick test_crosscheck_agreement;
    Alcotest.test_case "crosscheck detects differences" `Quick test_crosscheck_detects_differences;
    Alcotest.test_case "max_states plumbing" `Quick test_max_states_plumbing;
    Alcotest.test_case "reports render" `Quick test_reports_render ]
