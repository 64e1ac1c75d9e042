(* Tests for the shared multi-pair abstraction engine: dependence
   matrices equal to the per-pair oracles of {!Dependence_oracle} on
   every bundled example spec, minimal-automaton equivalence, the
   on-the-fly early-decision pass, the quotient-cache hooks at the
   analysis level, and the engine-versioned store keys at the server
   level (entries of another engine generation must never replay). *)

module Action = Fsa_term.Action
module Apa = Fsa_apa.Apa
module Lts = Fsa_lts.Lts
module Hom = Fsa_hom.Hom
module Analysis = Fsa_core.Analysis
module Auth = Fsa_requirements.Auth
module Parser = Fsa_spec.Parser
module Elaborate = Fsa_spec.Elaborate
module Server = Fsa_server.Server
module Exec = Fsa_server.Server.Exec
module Json = Fsa_store.Json
module Store = Fsa_store.Store
module V = Fsa_vanet.Vehicle_apa

let render r = Fmt.str "%a" Analysis.pp_tool_report r

(* ------------------------------------------------------------------ *)
(* Equivalence with the per-pair oracles                               *)
(* ------------------------------------------------------------------ *)

let flat m =
  List.concat_map
    (fun (mx, row) ->
      List.map
        (fun (mn, dep) -> (Action.to_string mn, Action.to_string mx, dep))
        row)
    m

let matrix = Alcotest.(list (triple string string bool))

(* The reduce axis is pinned separately (test_sym "reduced == unreduced
   on example specs"), so the oracles run on the unreduced graph. *)
let test_engine_equals_oracles () =
  match Test_check.spec_dir () with
  | None -> ()
  | Some dir ->
    let analysed = ref 0 in
    List.iter
      (fun path ->
        match Parser.parse_file path with
        | exception _ -> ()
        | spec -> (
          match Elaborate.apa_of_spec spec with
          | exception (Fsa_spec.Loc.Error _ | Invalid_argument _) -> ()
          | apa ->
            incr analysed;
            let name = Filename.basename path in
            let r = Analysis.tool ~stakeholder:V.stakeholder apa in
            let lts = r.Analysis.t_lts in
            let minima = r.Analysis.t_minima
            and maxima = r.Analysis.t_maxima in
            let engine = flat r.Analysis.t_matrix in
            Alcotest.check matrix
              (name ^ ": matrix = per-pair abstraction")
              (flat (Dependence_oracle.abstract lts ~minima ~maxima))
              engine;
            let direct = Dependence_oracle.direct lts ~minima ~maxima in
            Alcotest.check matrix (name ^ ": matrix = direct test")
              (flat direct) engine;
            Alcotest.(check bool)
              (name ^ ": requirement sets identical")
              true
              (Auth.equal_set
                 (Dependence_oracle.requirements ~stakeholder:V.stakeholder
                    direct)
                 r.Analysis.t_requirements)))
      (Test_check.example_files dir);
    Alcotest.(check bool) "at least one spec analysed" true (!analysed > 0)

(* The shared engine must actually answer the pairs: its timing section
   is present and the per-pair rows keep only the compare stage (the
   erase/determinise/minimise cost lives in the shared build). *)
let test_shared_timing_section () =
  let r = Analysis.tool ~stakeholder:V.stakeholder (V.four_vehicles ()) in
  match r.Analysis.t_timings.Analysis.ph_shared with
  | None -> Alcotest.fail "expected a shared timing section"
  | Some s ->
    Alcotest.(check bool) "fresh build" false s.Analysis.sh_cached;
    Alcotest.(check bool) "quotient has states" true (s.Analysis.sh_dfa_states > 0);
    Alcotest.(check bool)
      "alphabet covers minima and maxima" true
      (s.Analysis.sh_alphabet_size
      = List.length r.Analysis.t_minima + List.length r.Analysis.t_maxima);
    List.iter
      (fun pt ->
        if not pt.Analysis.pt_pruned then (
          Alcotest.(check bool)
            "per-pair erase stage empty" true
            (pt.Analysis.pt_erase_ns = 0L);
          Alcotest.(check bool)
            "per-pair determinise stage empty" true
            (pt.Analysis.pt_determinise_ns = 0L);
          Alcotest.(check bool)
            "per-pair minimise stage empty" true
            (pt.Analysis.pt_minimise_ns = 0L)))
      r.Analysis.t_timings.Analysis.ph_pairs

(* ------------------------------------------------------------------ *)
(* The engine itself: verdicts, projection, early decisions            *)
(* ------------------------------------------------------------------ *)

let engine_of lts minima maxima =
  let alphabet =
    Action.Set.union (Action.Set.of_list minima) (Action.Set.of_list maxima)
  in
  Hom.Shared.build ~alphabet ~minima ~maxima lts

let test_engine_verdicts_match_per_pair () =
  let r = Analysis.tool ~stakeholder:V.stakeholder (V.four_vehicles ()) in
  let lts = r.Analysis.t_lts in
  let minima = r.Analysis.t_minima and maxima = r.Analysis.t_maxima in
  let e = engine_of lts minima maxima in
  (* a cached engine (quotient injected, graph never walked) must give
     the same verdicts, with the early-decision pass skipped *)
  let e' =
    Hom.Shared.build ~dfa:(Hom.Shared.dfa e)
      ~alphabet:(Hom.Shared.alphabet e) ~minima ~maxima lts
  in
  Alcotest.(check bool) "injected quotient reports cached" true
    (Hom.Shared.cached e');
  Alcotest.(check int) "no early pass on a cached engine" 0
    (Hom.Shared.early_count e');
  List.iter
    (fun mn ->
      List.iter
        (fun mx ->
          let expected =
            Hom.depends_abstract lts ~min_action:mn ~max_action:mx
          in
          Alcotest.(check bool)
            (Fmt.str "verdict (%a, %a)" Action.pp mn Action.pp mx)
            expected
            (Hom.Shared.depends e ~min_action:mn ~max_action:mx);
          Alcotest.(check bool)
            (Fmt.str "cached verdict (%a, %a)" Action.pp mn Action.pp mx)
            expected
            (Hom.Shared.depends e' ~min_action:mn ~max_action:mx))
        maxima)
    minima

let test_engine_minimal_automata () =
  let r = Analysis.tool ~stakeholder:V.stakeholder (V.four_vehicles ()) in
  let lts = r.Analysis.t_lts in
  let minima = r.Analysis.t_minima and maxima = r.Analysis.t_maxima in
  let e = engine_of lts minima maxima in
  List.iter
    (fun mn ->
      List.iter
        (fun mx ->
          let shared = Hom.Shared.minimal_automaton e ~min_action:mn ~max_action:mx in
          let legacy = Hom.minimal_automaton (Hom.preserve [ mn; mx ]) lts in
          Alcotest.(check bool)
            (Fmt.str "isomorphic (%a, %a)" Action.pp mn Action.pp mx)
            true
            (Hom.A.Dfa.isomorphic shared legacy);
          (* the exported artefact: canonical renderings byte-identical *)
          Alcotest.(check string)
            (Fmt.str "canonical dot (%a, %a)" Action.pp mn Action.pp mx)
            (Hom.A.Dfa.dot (Hom.A.Dfa.canonicalize legacy))
            (Hom.A.Dfa.dot (Hom.A.Dfa.canonicalize shared)))
        maxima)
    minima

let test_engine_rejects_foreign_pair () =
  let r = Analysis.tool ~stakeholder:V.stakeholder (V.two_vehicles ()) in
  let e = engine_of r.Analysis.t_lts r.Analysis.t_minima r.Analysis.t_maxima in
  let foreign = Action.make "not_in_alphabet" in
  Alcotest.(check bool) "pair outside the alphabet raises" true
    (match
       Hom.Shared.depends e ~min_action:foreign
         ~max_action:(List.hd r.Analysis.t_maxima)
     with
    | _ -> false
    | exception Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* The integer kernel against the label-keyed oracles                  *)
(* ------------------------------------------------------------------ *)

module O = Automata_oracle.Shared

(* The shared engine on [lts] against the oracle pipeline: the quotient
   is isomorphic to [minimize_moore (determinize (image (preserve
   alphabet)))], the early-decided pairs are the oracle pass's, and every
   verdict equals the label-keyed target-before-avoid search on the
   oracle quotient.  (Per-pair verdicts recomputed from the whole graph
   are pinned by "engine = oracles".)  [Error] names the first
   disagreement. *)
let agrees_with_oracle lts =
  let minima = Action.Set.elements (Lts.minima lts)
  and maxima = Action.Set.elements (Lts.maxima lts) in
  let alphabet =
    Action.Set.union (Action.Set.of_list minima) (Action.Set.of_list maxima)
  in
  if Action.Set.is_empty alphabet then Ok ()
  else
    let e = Hom.Shared.build ~alphabet ~minima ~maxima lts in
    let oracle_quotient =
      O.minimal_automaton (Hom.preserve (Action.Set.elements alphabet)) lts
    in
    if not (Hom.A.Dfa.isomorphic (Hom.Shared.dfa e) oracle_quotient) then
      Error "shared quotient differs from the oracle's"
    else if
      not
        (Hom.Pair_set.equal (Hom.Shared.early e)
           (O.early_pairs ~minima ~maxima lts))
    then Error "early-decided pairs differ from the oracle's"
    else
      match
        List.find_opt
          (fun (mn, mx) ->
            Hom.Shared.depends e ~min_action:mn ~max_action:mx
            = Hom.dfa_has_target_before_avoid oracle_quotient ~avoid:mn
                ~target:mx)
          (List.concat_map
             (fun mn -> List.map (fun mx -> (mn, mx)) maxima)
             minima)
      with
      | Some (mn, mx) ->
        Error (Fmt.str "verdict (%a, %a) differs" Action.pp mn Action.pp mx)
      | None -> Ok ()

let test_kernel_equals_oracle_on_examples () =
  match Test_check.spec_dir () with
  | None -> ()
  | Some dir ->
    List.iter
      (fun path ->
        match Elaborate.apa_of_spec (Parser.parse_file path) with
        | exception _ -> ()
        | apa -> (
          match agrees_with_oracle (Lts.explore apa) with
          | Ok () -> ()
          | Error msg -> Alcotest.failf "%s: %s" (Filename.basename path) msg))
      (Test_check.example_files dir)

let prop_kernel_equals_oracle_on_random_specs =
  QCheck2.Test.make ~name:"kernel = oracle on random specs" ~count:60
    Test_spec_random.gen_spec (fun spec ->
      match Elaborate.apa_of_spec spec with
      | exception Fsa_spec.Loc.Error _ -> true
      | apa -> (
        match agrees_with_oracle (Lts.explore apa) with
        | Ok () -> true
        | Error msg -> QCheck2.Test.fail_report msg))

(* The quotient sizes and early decisions the benchmark's two workloads
   report, pinned at the analysis level. *)
let test_quotient_pins () =
  let shared r =
    match r.Analysis.t_timings.Analysis.ph_shared with
    | Some s -> (s.Analysis.sh_dfa_states, s.Analysis.sh_early_pairs)
    | None -> Alcotest.fail "expected a shared timing section"
  in
  let module Evita = Fsa_vanet.Evita in
  let canonical =
    Analysis.tool ~stakeholder:Evita.stakeholder
      (Fsa_core.Apa_of_model.compile Evita.model)
  in
  Alcotest.(check int) "E5: 80 460 states" 80460
    (Lts.nb_states canonical.Analysis.t_lts);
  Alcotest.(check (pair int int)) "E5: quotient states / early pairs"
    (1512, 34) (shared canonical);
  match Test_check.spec_dir () with
  | None -> ()
  | Some dir ->
    let fleet =
      Analysis.tool ~stakeholder:V.stakeholder
        (Elaborate.apa_of_spec
           (Parser.parse_file (Filename.concat dir "evita_fleet.fsa")))
    in
    Alcotest.(check (pair int int)) "evita_fleet: quotient states / early pairs"
      (6561, 36) (shared fleet)

(* The request deadline covers the shared build: progress keeps ticking
   past exploration (once per subset and Hopcroft batch), so a callback
   raising there surfaces from [Analysis.tool] as itself.  Only
   exploration finishes the reporter: the callback never sees a final
   report after the exploration's. *)
exception Stop

let test_progress_covers_shared_build () =
  let apa = V.four_vehicles () in
  let states = Lts.nb_states (Lts.explore apa) in
  let updates = ref [] in
  let progress stop_after =
    Fsa_obs.Progress.create ~every_n:1 ~every_ns:Int64.max_int (fun u ->
        updates := u :: !updates;
        if
          (not u.Fsa_obs.Progress.u_final)
          && u.Fsa_obs.Progress.u_count > stop_after
        then raise Stop)
  in
  ignore
    (Analysis.tool ~progress:(progress max_int) ~stakeholder:V.stakeholder apa);
  let shared_ticks =
    List.filter (fun u -> u.Fsa_obs.Progress.u_count > states) !updates
  in
  Alcotest.(check bool) "the shared build ticks past exploration" true
    (shared_ticks <> []);
  Alcotest.(check bool) "no final report from the shared build" true
    (List.for_all (fun u -> not u.Fsa_obs.Progress.u_final) shared_ticks);
  Alcotest.(check bool) "a raising tick surfaces from Analysis.tool" true
    (match
       Analysis.tool ~progress:(progress (states + 2))
         ~stakeholder:V.stakeholder apa
     with
    | _ -> false
    | exception Stop -> true)

(* A determinisation bomb: 12 states whose image needs 2^8 subsets.  From
   the hub q1, the erased [x] forks a chain remembering which of the last
   eight letters was an [a]; [a] and [b] are maxima (they also enter the
   dead state), [s] is the only minimum, [x] is erased.  The subset
   bound is the request's [max_states]. *)
let bomb_source =
  let chain =
    List.init 7 (fun i -> Printf.sprintf "e(q%d, q%d)" (i + 3) (i + 4))
  in
  String.concat "\n"
    [ "component Bomb {";
      "  state st = { q0 }";
      "  state ea = { "
      ^ String.concat ", " ([ "e(q1, q1)"; "e(q1, dead)"; "e(q2, q3)" ] @ chain)
      ^ " }";
      "  state eb = { "
      ^ String.concat ", " ([ "e(q1, q1)"; "e(q1, dead)" ] @ chain)
      ^ " }";
      "  action s: take st(q0) -> put st(q1)";
      "  action x: take st(q1) -> put st(q2)";
      "  action a: take st(_p), read ea(e(_p, _q)) -> put st(_q)";
      "  action b: take st(_p), read eb(e(_p, _q)) -> put st(_q)";
      "}";
      "instance B = Bomb(1) { }";
      "" ]

let test_determinisation_bomb () =
  (* the engine on a synthetic graph: q0 -s-> q1, q1 -a/b-> q1 and
     dead, q1 -x-> q2 -a-> q3, then a/b along the chain to q10 *)
  let tr s l d = { Lts.t_src = s; t_label = Action.make l; t_dst = d } in
  let edges =
    [ tr 0 "s" 1; tr 1 "a" 1; tr 1 "b" 1; tr 1 "a" 11; tr 1 "b" 11;
      tr 1 "x" 2; tr 2 "a" 3 ]
    @ List.concat_map (fun i -> [ tr i "a" (i + 1); tr i "b" (i + 1) ])
        (List.init 7 (fun i -> i + 3))
  in
  let lts = Lts.of_edges ~nb_states:12 edges in
  let minima = [ Action.make "s" ]
  and maxima = [ Action.make "a"; Action.make "b" ] in
  let alphabet = Action.Set.of_list (minima @ maxima) in
  Alcotest.(check bool) "unbounded build succeeds" true
    (Hom.A.Dfa.nb_states
       (Hom.Shared.dfa (Hom.Shared.build ~alphabet ~minima ~maxima lts))
    > 0);
  Alcotest.(check bool) "bounded build raises the typed error" true
    (match Hom.Shared.build ~max_states:100 ~alphabet ~minima ~maxima lts with
    | _ -> false
    | exception Lts.State_space_too_large 100 -> true);
  (* the same bomb as a spec, through the analysis and the server *)
  let apa = Elaborate.apa_of_spec (Parser.parse_string bomb_source) in
  Alcotest.(check int) "exploration fits the bound" 12
    (Lts.nb_states (Lts.explore ~max_states:100 apa));
  Alcotest.(check bool) "Analysis.tool raises State_space_too_large" true
    (match Analysis.tool ~max_states:100 ~stakeholder:V.stakeholder apa with
    | _ -> false
    | exception Lts.State_space_too_large 100 -> true);
  let reply =
    Server.handle_line (Server.config ())
      (Json.to_string
         (Json.Obj
            [ ("id", Json.Int 1);
              ("op", Json.Str "requirements");
              ("source", Json.Str bomb_source);
              ("max_states", Json.Int 100) ]))
  in
  let kind =
    match Json.parse reply with
    | Ok r ->
      Option.bind (Json.member "error" r) (fun e ->
          Option.bind (Json.member "kind" e) Json.to_str)
    | Error _ -> None
  in
  Alcotest.(check (option string)) "server answers too_large"
    (Some "too_large") kind

(* ------------------------------------------------------------------ *)
(* Quotient-cache hooks (analysis level)                               *)
(* ------------------------------------------------------------------ *)

(* four_vehicles is two composition modules (one per radio cluster), so
   the cache sees one quotient per module alphabet. *)
let test_quotient_cache_hooks () =
  let apa = V.four_vehicles () in
  let stakeholder = V.stakeholder in
  let stored = ref [] in
  let finds = ref 0 and stores = ref 0 in
  let qc =
    { Analysis.qc_find =
        (fun ~alphabet ->
          incr finds;
          List.assoc_opt alphabet !stored);
      qc_store =
        (fun ~alphabet dfa ->
          incr stores;
          stored := (alphabet, dfa) :: !stored) }
  in
  let r1 = Analysis.tool ~quotient_cache:qc ~stakeholder apa in
  let modules = List.length !stored in
  Alcotest.(check int) "one quotient per module alphabet" 2 modules;
  Alcotest.(check int) "miss consults the cache once per module" modules
    !finds;
  Alcotest.(check int) "fresh quotients are stored" modules !stores;
  (match r1.Analysis.t_timings.Analysis.ph_shared with
  | Some s -> Alcotest.(check bool) "first run is uncached" false s.Analysis.sh_cached
  | None -> Alcotest.fail "expected a shared timing section");
  let r2 = Analysis.tool ~quotient_cache:qc ~stakeholder apa in
  Alcotest.(check int) "hit consults the cache" (2 * modules) !finds;
  Alcotest.(check int) "hit is not re-stored" modules !stores;
  (match r2.Analysis.t_timings.Analysis.ph_shared with
  | Some s -> Alcotest.(check bool) "second run is cached" true s.Analysis.sh_cached
  | None -> Alcotest.fail "expected a shared timing section");
  Alcotest.(check string) "reports byte-identical across hit and miss"
    (render r1) (render r2)

(* ------------------------------------------------------------------ *)
(* Store integration (server level)                                    *)
(* ------------------------------------------------------------------ *)

let parse s = Parser.parse_string s

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path s =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc s)

let contains ~affix s =
  let n = String.length affix and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = affix || go (i + 1)) in
  go 0

let entries_of_kind dir kind =
  let affix = Printf.sprintf "\"kind\":%S" kind in
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".json")
  |> List.filter_map (fun f ->
         let path = Filename.concat dir f in
         if contains ~affix (read_file path) then Some path else None)

let shared_cached o =
  match
    Option.bind
      (Option.bind (Json.member "timings" o.Exec.oc_result)
         (Json.member "shared"))
      (Json.member "cached")
  with
  | Some (Json.Bool b) -> b
  | _ -> Alcotest.fail "result has no timings.shared.cached member"

let with_store f () =
  let dir = Test_store.tmp_dir () in
  Fun.protect
    ~finally:(fun () -> Test_store.rm_rf dir)
    (fun () -> f (Store.open_ ~dir ()) dir)

(* Requirements outcomes are keyed with the engine version: a run
   replays its own entry, while an entry written under another engine
   stamp (the retired per-pair engine's, here) never replays. *)
let test_engine_cache_keys =
  with_store (fun st _dir ->
      let spec = parse Test_store.spec_text in
      let digest =
        Elaborate.digest_of_spec ~parts:[ `Apa; `Models ] spec
      in
      let key engine =
        Store.cache_key ~digest ~kind:"requirements"
          ~params:[ ("max_states", "1000000"); ("engine", engine) ]
      in
      Store.add st
        { Store.e_key = key "per-pair";
          e_kind = "requirements";
          e_result = Json.Obj [];
          e_output = "entry of another engine";
          e_exit = 0 };
      let cfg = Server.config ~store:st () in
      let run () = Exec.run cfg ~op:Exec.Requirements ~file:"a.fsa" spec in
      let o1 = run () in
      Alcotest.(check bool) "other engine's entry does not replay" false
        o1.Exec.oc_cached;
      Alcotest.(check bool) "outcome stored under the engine stamp" true
        (Store.find st ~key:(key "shared-v1") <> None);
      let o2 = run () in
      Alcotest.(check bool) "own outcome replays" true o2.Exec.oc_cached;
      Alcotest.(check string) "identical replay" o1.Exec.oc_output
        o2.Exec.oc_output)

(* An entry written under the pre-engine key format (no ["engine"]
   param — what earlier releases produced) must never replay as a
   shared-pass result. *)
let test_pre_engine_entry_not_replayed =
  with_store (fun st _dir ->
      let spec = parse Test_store.spec_text in
      let digest = Elaborate.digest_of_spec ~parts:[ `Apa ] spec in
      let stale_key =
        Store.cache_key ~digest ~kind:"requirements"
          ~params:[ ("max_states", "1000000"); ("method", "abstract") ]
      in
      Store.add st
        { Store.e_key = stale_key;
          e_kind = "requirements";
          e_result = Json.Obj [];
          e_output = "stale pre-engine entry";
          e_exit = 0 };
      let cfg = Server.config ~store:st () in
      let o = Exec.run cfg ~op:Exec.Requirements ~file:"a.fsa" spec in
      Alcotest.(check bool) "stale entry is not replayed" false o.Exec.oc_cached;
      Alcotest.(check bool) "fresh report computed" false
        (String.equal o.Exec.oc_output "stale pre-engine entry"))

(* The shared quotient is persisted under kind ["quotient"] and reused
   when the outcome entry is gone; corrupt or bogus quotient entries
   are silent misses with identical verdicts. *)
let test_quotient_reuse_and_corruption =
  with_store (fun st dir ->
      let cfg = Server.config ~store:st () in
      let spec = parse Test_store.spec_text in
      let run () = Exec.run cfg ~op:Exec.Requirements ~file:"a.fsa" spec in
      let delete_outcome () =
        match entries_of_kind dir "requirements" with
        | [ p ] -> Sys.remove p
        | ps ->
          Alcotest.failf "expected one requirements entry, found %d"
            (List.length ps)
      in
      let quotient_entry () =
        match entries_of_kind dir "quotient" with
        | [ q ] -> q
        | qs ->
          Alcotest.failf "expected one quotient entry, found %d"
            (List.length qs)
      in
      let o1 = run () in
      Alcotest.(check bool) "first run computes" false o1.Exec.oc_cached;
      Alcotest.(check bool) "first run builds the quotient fresh" false
        (shared_cached o1);
      ignore (quotient_entry ());
      (* outcome gone, quotient kept: the engine is rebuilt from the
         store without re-walking the graph *)
      delete_outcome ();
      let o2 = run () in
      Alcotest.(check bool) "outcome is a miss" false o2.Exec.oc_cached;
      Alcotest.(check bool) "quotient is a hit" true (shared_cached o2);
      Alcotest.(check bool) "requirements identical off the cached quotient"
        true
        (Json.member "requirements" o2.Exec.oc_result
        = Json.member "requirements" o1.Exec.oc_result);
      Alcotest.(check string) "rendered report identical" o1.Exec.oc_output
        o2.Exec.oc_output;
      (* truncated entry bytes: fails the store checksum, so a miss *)
      delete_outcome ();
      (let q = quotient_entry () in
       let s = read_file q in
       write_file q (String.sub s 0 (String.length s / 2)));
      let o3 = run () in
      Alcotest.(check bool) "corrupt quotient entry is a miss" false
        (shared_cached o3);
      Alcotest.(check string) "verdicts unchanged after corruption"
        o1.Exec.oc_output o3.Exec.oc_output;
      (* well-formed entry, bogus payload: the DFA decoder must reject
         it rather than trust the bytes *)
      delete_outcome ();
      (let q = quotient_entry () in
       let key = Filename.remove_extension (Filename.basename q) in
       Store.add st
         { Store.e_key = key;
           e_kind = "quotient";
           e_result = Json.Str "not a dfa";
           e_output = "";
           e_exit = 0 });
      let o4 = run () in
      Alcotest.(check bool) "bogus quotient payload is a miss" false
        (shared_cached o4);
      Alcotest.(check string) "verdicts unchanged after bogus payload"
        o1.Exec.oc_output o4.Exec.oc_output)

let suite =
  [ Alcotest.test_case "engine = oracles" `Slow test_engine_equals_oracles;
    Alcotest.test_case "shared timing section" `Quick
      test_shared_timing_section;
    Alcotest.test_case "engine verdicts = per-pair" `Quick
      test_engine_verdicts_match_per_pair;
    Alcotest.test_case "projected minimal automata" `Quick
      test_engine_minimal_automata;
    Alcotest.test_case "foreign pair rejected" `Quick
      test_engine_rejects_foreign_pair;
    Alcotest.test_case "kernel = oracle on examples" `Quick
      test_kernel_equals_oracle_on_examples;
    QCheck_alcotest.to_alcotest prop_kernel_equals_oracle_on_random_specs;
    Alcotest.test_case "quotient pins" `Slow test_quotient_pins;
    Alcotest.test_case "progress covers the shared build" `Quick
      test_progress_covers_shared_build;
    Alcotest.test_case "determinisation bomb" `Quick
      test_determinisation_bomb;
    Alcotest.test_case "quotient cache hooks" `Quick
      test_quotient_cache_hooks;
    Alcotest.test_case "engine-versioned cache keys" `Quick
      test_engine_cache_keys;
    Alcotest.test_case "pre-engine entry never replays" `Quick
      test_pre_engine_entry_not_replayed;
    Alcotest.test_case "quotient reuse and corruption" `Quick
      test_quotient_reuse_and_corruption ]
