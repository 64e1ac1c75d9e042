(* Tests for spec check declarations and the Fsa_report
   requirements-report subsystem (stable SR-* ids, golden
   cross-configuration bodies, coverage identities). *)

module Parser = Fsa_spec.Parser
module Elaborate = Fsa_spec.Elaborate
module Ast = Fsa_spec.Ast
module Pattern = Fsa_mc.Pattern
module Lts = Fsa_lts.Lts
module R = Fsa_report.Report
module Analysis = Fsa_core.Analysis
module Sym = Fsa_sym.Sym
module Apa = Fsa_apa.Apa
module Classify = Fsa_requirements.Classify
module S = Fsa_vanet.Scenario

let contains s sub =
  let rec go i =
    i + String.length sub <= String.length s
    && (String.sub s i (String.length sub) = sub || go (i + 1))
  in
  go 0

(* ------------------------------------------------------------------ *)
(* Check declarations                                                  *)
(* ------------------------------------------------------------------ *)

let test_parse_checks () =
  let decls =
    Parser.parse_string
      {|
      check precedence V1_sense V2_show
      check absence V2_rec before V1_send
      check existence V2_show after V1_send
      check universality V1_pos globally
      |}
  in
  Alcotest.(check int) "four declarations" 4 (List.length decls);
  match decls with
  | [ Ast.D_check c1; Ast.D_check c2; Ast.D_check c3; Ast.D_check c4 ] ->
    Alcotest.(check string) "kind" "precedence" c1.Ast.ck_kind;
    Alcotest.(check (list string)) "args" [ "V1_sense"; "V2_show" ] c1.Ast.ck_args;
    Alcotest.(check (option (pair string string))) "before scope"
      (Some ("before", "V1_send"))
      c2.Ast.ck_scope;
    Alcotest.(check (option (pair string string))) "after scope"
      (Some ("after", "V1_send"))
      c3.Ast.ck_scope;
    Alcotest.(check (option (pair string string))) "globally is default" None
      c4.Ast.ck_scope
  | _ -> Alcotest.fail "check declarations expected"

let test_parse_check_errors () =
  let fails input =
    match Parser.parse_string input with
    | _ -> false
    | exception Fsa_spec.Loc.Error _ -> true
  in
  Alcotest.(check bool) "unknown kind" true (fails "check frobnicate X");
  Alcotest.(check bool) "missing argument" true (fails "check precedence X")

let spec_with_checks =
  {|
  component Vehicle {
    state esp = { }
    state gps = { }
    state bus = { }
    state hmi = { }
    shared net
    action sense: take esp(_x) -> put bus(_x)
    action pos:   take gps(_p) -> put bus(_p)
    action send:  take bus(sW), take bus(_p) when position(_p)
                  -> put net(cam(self, _p))
    action rec:   take net(cam(_v, _p)) when _v != self -> put bus(warn(_p))
    action show:  take bus(warn(_p)), take bus(_q)
                  when position(_q) && near(_p, _q) -> put hmi(warn)
  }
  instance V1 = Vehicle(1) { esp = { sW }, gps = { pos1 } }
  instance V2 = Vehicle(2) { gps = { pos2 } }

  check precedence V1_sense V2_show
  check existence V2_show
  check absence V1_show
  check precedence V2_show V1_sense
  |}

let test_elaborate_and_evaluate_checks () =
  let spec = Parser.parse_string spec_with_checks in
  let patterns = Elaborate.patterns_of_spec spec in
  Alcotest.(check int) "four patterns" 4 (List.length patterns);
  let lts = Lts.explore (Elaborate.apa_of_spec spec) in
  let results =
    List.map (fun (d, p) -> (d, (Pattern.check lts p).Pattern.holds_)) patterns
  in
  Alcotest.(check (list (pair string bool))) "verdicts"
    [ ("check precedence V1_sense V2_show", true);
      ("check existence V2_show", true);
      ("check absence V1_show", true);
      ("check precedence V2_show V1_sense", false) ]
    results

let test_shipped_spec_checks_hold () =
  let dir =
    List.find_opt Sys.file_exists
      [ "examples/specs"; "../../../examples/specs" ]
  in
  match dir with
  | None -> ()
  | Some dir ->
    List.iter
      (fun file ->
        let spec = Parser.parse_file (Filename.concat dir file) in
        let patterns = Elaborate.patterns_of_spec spec in
        Alcotest.(check bool) (file ^ " ships checks") true (patterns <> []);
        let lts = Lts.explore (Elaborate.apa_of_spec spec) in
        List.iter
          (fun (d, p) ->
            Alcotest.(check bool) (file ^ ": " ^ d) true
              (Pattern.check lts p).Pattern.holds_)
          patterns)
      [ "two_vehicles.fsa"; "smart_grid.fsa"; "platoon.fsa" ]

(* ------------------------------------------------------------------ *)
(* Pretty-printer round trips                                          *)
(* ------------------------------------------------------------------ *)

let test_pretty_roundtrip_inline () =
  let spec = Parser.parse_string spec_with_checks in
  let printed = Fsa_spec.Pretty.to_string spec in
  let reparsed = Parser.parse_string printed in
  Alcotest.(check bool) "AST round trip" true (Fsa_spec.Pretty.equal spec reparsed)

let test_pretty_roundtrip_files () =
  let dir =
    List.find_opt Sys.file_exists
      [ "examples/specs"; "../../../examples/specs" ]
  in
  match dir with
  | None -> ()
  | Some dir ->
    List.iter
      (fun file ->
        let spec = Parser.parse_file (Filename.concat dir file) in
        let reparsed = Parser.parse_string (Fsa_spec.Pretty.to_string spec) in
        Alcotest.(check bool) (file ^ " round trips") true
          (Fsa_spec.Pretty.equal spec reparsed))
      [ "two_vehicles.fsa"; "four_vehicles.fsa"; "evita_onboard.fsa";
        "smart_grid.fsa"; "platoon.fsa" ]

let test_pretty_preserves_behaviour () =
  let spec = Parser.parse_string spec_with_checks in
  let reparsed = Parser.parse_string (Fsa_spec.Pretty.to_string spec) in
  let states ast = Lts.nb_states (Lts.explore (Elaborate.apa_of_spec ast)) in
  Alcotest.(check int) "same state space" (states spec) (states reparsed)

(* ------------------------------------------------------------------ *)
(* Fsa_report: requirement reports                                     *)
(* ------------------------------------------------------------------ *)

let test_pp_class_unattributed () =
  Alcotest.(check string) "empty policy list renders explicitly"
    "policy-induced (unattributed)"
    (Fmt.str "%a" Classify.pp_class (Classify.Policy_induced []));
  let s =
    Fmt.str "%a" Classify.pp_class (Classify.Policy_induced [ "p1"; "p2" ])
  in
  Alcotest.(check bool) "attributed list names its policies" true
    (contains s "policy-induced (availability): p1" && contains s "p2")

(* Build a tool-path report the way the server does, parameterised by
   reduction. *)
let build_report ?reduce spec =
  let apa = Elaborate.apa_of_spec spec in
  let sigs = Elaborate.guard_signatures spec in
  let plan =
    Option.map
      (fun k -> Sym.plan ~guard_sig:(fun r -> List.assoc_opt r sigs) k apa)
      reduce
  in
  let tr =
    Analysis.tool ?reduce:plan ~stakeholder:Fsa_vanet.Vehicle_apa.stakeholder apa
  in
  let rpt =
    R.of_tool
      ~origins:(R.origins_of_skeleton (Elaborate.skeleton_of_spec spec))
      ~soses:(Elaborate.sos_list spec)
      ~alphabet:(Apa.rule_names apa)
      ~digest:(Elaborate.digest_of_spec ~parts:[ `Apa; `Models ] spec)
      ~settings:
        { R.sg_path = "tool";
          sg_method = "abstract";
          sg_engine = "shared-v1";
          sg_reduce =
            (match reduce with
            | None -> "none"
            | Some k -> Sym.kind_to_string k);
          sg_prune = "none";
          sg_max_states = 1_000_000 }
      tr
  in
  (tr, rpt)

let example_specs () =
  match Test_check.spec_dir () with
  | None -> []
  | Some dir ->
    List.filter_map
      (fun path ->
        match Parser.parse_file path with
        | exception _ -> None
        | spec -> (
          match Elaborate.apa_of_spec spec with
          | exception (Fsa_spec.Loc.Error _ | Invalid_argument _) -> None
          | _ -> Some (Filename.basename path, spec)))
      (Test_check.example_files dir)

(* The report body (ids, digests, classes, scores, ranks, verification
   tags, endpoints, action traceability) is invariant across every
   reduction kind: golden byte-for-byte on both emitters.  Settings/pair-statistics blocks legitimately differ,
   which is exactly what [~body_only] excludes. *)
let test_golden_across_configs () =
  let specs = example_specs () in
  Alcotest.(check bool) "at least one example spec" true (specs <> []);
  List.iter
    (fun (name, spec) ->
      let _, base = build_report spec in
      let base_json = R.to_json_string ~body_only:true base in
      let base_md = R.to_markdown ~body_only:true base in
      List.iter
        (fun reduce ->
          let _, rpt = build_report ~reduce spec in
          let label =
            Printf.sprintf "%s/--reduce %s" name (Sym.kind_to_string reduce)
          in
          Alcotest.(check string)
            (label ^ ": JSON body golden") base_json
            (R.to_json_string ~body_only:true rpt);
          Alcotest.(check string)
            (label ^ ": Markdown body golden") base_md
            (R.to_markdown ~body_only:true rpt);
          let ranks = List.map (fun it -> it.R.it_rank) rpt.R.r_items in
          Alcotest.(check (list int))
            (label ^ ": ranks are a permutation of 1..n")
            (List.init (List.length ranks) (fun i -> i + 1))
            (List.sort compare ranks))
        [ Sym.Sym; Sym.Sym_por ])
    specs

(* Two from-scratch runs over the same spec must agree byte-for-byte on
   the *full* report, run-dependent blocks included. *)
let test_full_report_deterministic () =
  List.iter
    (fun (name, spec) ->
      let _, a = build_report spec in
      let _, b = build_report spec in
      Alcotest.(check string) (name ^ ": full JSON deterministic")
        (R.to_json_string a) (R.to_json_string b);
      Alcotest.(check string) (name ^ ": full Markdown deterministic")
        (R.to_markdown a) (R.to_markdown b))
    (List.filter
       (fun (n, _) -> n = "two_vehicles.fsa" || n = "smart_grid.fsa")
       (example_specs ()))

let ids_and_digests rpt =
  List.map (fun it -> (it.R.it_id, it.R.it_digest)) rpt.R.r_items

(* SR ids survive reformatting (pretty-print round trip) and
   declaration permutation: identity is content-derived, not
   positional. *)
let test_id_stability () =
  let spec = Parser.parse_string Test_store.spec_text in
  let _, base = build_report spec in
  Alcotest.(check bool) "spec derives requirements" true
    (base.R.r_items <> []);
  let reformatted = Parser.parse_string (Fsa_spec.Pretty.to_string spec) in
  let _, r1 = build_report reformatted in
  Alcotest.(check (list (pair string string)))
    "ids stable under reformatting" (ids_and_digests base)
    (ids_and_digests r1);
  let permuted = Parser.parse_string Test_store.spec_text_permuted in
  let _, r2 = build_report permuted in
  Alcotest.(check (list (pair string string)))
    "ids stable under declaration permutation" (ids_and_digests base)
    (ids_and_digests r2);
  Alcotest.(check string) "model digest stable too" base.R.r_digest
    r2.R.r_digest

(* covered + uncovered = total, tested + pruned = total, dependent +
   independent = total, and tested must reconcile with the analysis's
   own non-pruned pair rows (what the server surfaces as
   timings.pair_quantiles). *)
let check_coverage_identities label (tr, rpt) =
  let cov = rpt.R.r_coverage in
  Alcotest.(check int) (label ^ ": covered + uncovered = total")
    cov.R.cv_actions_total
    (cov.R.cv_actions_covered + List.length cov.R.cv_actions_uncovered);
  let p = cov.R.cv_pairs in
  Alcotest.(check int) (label ^ ": tested + pruned = total") p.R.pc_total
    (p.R.pc_tested + p.R.pc_pruned);
  Alcotest.(check int) (label ^ ": dependent + independent = total")
    p.R.pc_total
    (p.R.pc_dependent + p.R.pc_independent);
  let tested_rows =
    List.length
      (List.filter
         (fun t -> not t.Analysis.pt_pruned)
         tr.Analysis.t_timings.Analysis.ph_pairs)
  in
  Alcotest.(check int)
    (label ^ ": tested matches the analysis pair rows")
    tested_rows p.R.pc_tested;
  Alcotest.(check int)
    (label ^ ": every requirement is a dependent pair")
    (List.length rpt.R.r_items)
    p.R.pc_dependent

let test_coverage_identities () =
  List.iter
    (fun (name, spec) ->
      check_coverage_identities name (build_report spec))
    (List.filter
       (fun (n, _) -> n = "two_vehicles.fsa" || n = "four_vehicles.fsa")
       (example_specs ()))

(* The manual path: degenerate pair coverage, endpoints resolved through
   the sos components, sequential ids. *)
let test_manual_report () =
  let sos = S.two_vehicles in
  let mr = Analysis.manual sos in
  let rpt = R.of_manual ~digest:"testdigest" sos mr in
  Alcotest.(check (list string)) "sequential ids"
    (List.mapi (fun i _ -> Printf.sprintf "SR-%04d" (i + 1)) rpt.R.r_items)
    (List.map (fun it -> it.R.it_id) rpt.R.r_items);
  let p = rpt.R.r_coverage.R.cv_pairs in
  Alcotest.(check int) "tested = total" p.R.pc_total p.R.pc_tested;
  Alcotest.(check int) "dependent = total" p.R.pc_total p.R.pc_dependent;
  Alcotest.(check int) "nothing pruned" 0 p.R.pc_pruned;
  Alcotest.(check int) "nothing independent" 0 p.R.pc_independent;
  List.iter
    (fun it ->
      Alcotest.(check bool)
        (it.R.it_id ^ ": endpoints attributed to components") true
        (it.R.it_cause.R.ep_instance <> None
        && it.R.it_effect.R.ep_instance <> None))
    rpt.R.r_items;
  Alcotest.(check string) "deterministic emission"
    (R.to_json_string rpt)
    (R.to_json_string (R.of_manual ~digest:"testdigest" sos mr))

let suite =
  [ Alcotest.test_case "parse checks" `Quick test_parse_checks;
    Alcotest.test_case "check parse errors" `Quick test_parse_check_errors;
    Alcotest.test_case "elaborate and evaluate" `Quick test_elaborate_and_evaluate_checks;
    Alcotest.test_case "shipped spec checks hold" `Quick test_shipped_spec_checks_hold;
    Alcotest.test_case "pretty round trip (inline)" `Quick test_pretty_roundtrip_inline;
    Alcotest.test_case "pretty round trip (files)" `Quick test_pretty_roundtrip_files;
    Alcotest.test_case "pretty preserves behaviour" `Quick test_pretty_preserves_behaviour;
    Alcotest.test_case "pp_class unattributed" `Quick
      test_pp_class_unattributed;
    Alcotest.test_case "golden bodies across configs" `Quick
      test_golden_across_configs;
    Alcotest.test_case "full report deterministic" `Quick
      test_full_report_deterministic;
    Alcotest.test_case "SR ids stable" `Quick test_id_stability;
    Alcotest.test_case "coverage identities" `Quick test_coverage_identities;
    Alcotest.test_case "manual-path report" `Quick test_manual_report ]
