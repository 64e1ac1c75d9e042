(* The default analysis paths of the CLI and the server, decomposed into
   calls of each layer's public functions, each inside its own span.

   [request] mirrors Fsa_server.Server.handle_line and Exec.run on the
   default settings (abstract method, shared engine, no pruning, no
   reduction unless the request asks for one, 1 000 000 states) and
   answers with a response line of the same shape, so its verdicts can
   be compared with the production answers. *)

module Action = Fsa_term.Action
module Agent = Fsa_term.Agent
module Apa = Fsa_apa.Apa
module Lts = Fsa_lts.Lts
module Hom = Fsa_hom.Hom
module Sos = Fsa_model.Sos
module Auth = Fsa_requirements.Auth
module Derive = Fsa_requirements.Derive
module Classify = Fsa_requirements.Classify
module Parser = Fsa_spec.Parser
module Elaborate = Fsa_spec.Elaborate
module Analysis = Fsa_core.Analysis
module Report = Fsa_report.Report
module Store = Fsa_store.Store
module Json = Fsa_store.Json
module Check = Fsa_check.Check
module Sym = Fsa_sym.Sym

let span = Spans.with_
let max_states = 1_000_000
let stakeholder = Fsa_vanet.Vehicle_apa.stakeholder

(* Work counts the decomposition sees directly. *)
let states_explored = ref 0
let quotient_states = ref []
let early_decided = ref 0
let report_bytes = ref 0
let representatives = ref 0

(* Save the work counts; the returned function puts them back. *)
let save_counts () =
  let s = !states_explored and q = !quotient_states and e = !early_decided
  and b = !report_bytes and r = !representatives in
  fun () ->
    states_explored := s;
    quotient_states := q;
    early_decided := e;
    report_bytes := b;
    representatives := r

let elapsed f =
  let t0 = Spans.now () in
  let v = f () in
  (v, Int64.sub (Spans.now ()) t0)

let actions_json set =
  Json.List (List.map (fun a -> Json.Str (Action.to_string a)) set)

let requirements_json reqs =
  Json.List
    (List.map
       (fun r ->
         Json.Obj
           [ ("cause", Json.Str (Action.to_string (Auth.cause r)));
             ("effect", Json.Str (Action.to_string (Auth.effect r)));
             ("stakeholder", Json.Str (Agent.to_string (Auth.stakeholder r)))
           ])
       reqs)

let summary lts =
  let st = Lts.stats lts in
  Json.Obj
    [ ("states", Json.Int st.Lts.nb_states);
      ("transitions", Json.Int st.Lts.nb_transitions);
      ("labels", Json.Int st.Lts.nb_labels);
      ( "deadlocks",
        Json.List (List.map (fun i -> Json.Int i) (Lts.deadlocks lts)) );
      ("minima", actions_json (Action.Set.elements (Lts.minima lts)));
      ("maxima", actions_json (Action.Set.elements (Lts.maxima lts))) ]

let explore apa =
  let lts = span "lts.explore" (fun () -> Lts.explore ~max_states apa) in
  states_explored := !states_explored + Lts.nb_states lts;
  lts

let settings =
  { Report.sg_path = "tool";
    sg_method = "abstract";
    sg_engine = "shared-v1";
    sg_reduce = "none";
    sg_prune = "none";
    sg_max_states = max_states }

(* The shared quotient as the server's quotient cache stores it. *)
let dfa_to_json dfa =
  let module D = Hom.A.Dfa in
  Json.Obj
    [ ("states", Json.Int (D.nb_states dfa));
      ("start", Json.Int (D.start dfa));
      ( "finals",
        Json.List
          (List.map
             (fun i -> Json.Int i)
             (Fsa_automata.Automata.Int_set.elements (D.finals dfa))) );
      ( "edges",
        Json.List
          (List.map
             (fun (s, l, d) ->
               Json.List [ Json.Int s; Json.Str (Action.to_string l); Json.Int d ])
             (D.transitions dfa)) ) ]

let dfa_of_json j =
  let module D = Hom.A.Dfa in
  let int k = Option.bind (Json.member k j) Json.to_int in
  match (int "states", int "start", Json.member "finals" j, Json.member "edges" j) with
  | Some n, Some start, Some (Json.List finals), Some (Json.List edges) ->
    let delta = Array.make n Hom.A.Lmap.empty in
    List.iter
      (function
        | Json.List [ Json.Int s; Json.Str l; Json.Int d ] ->
          delta.(s) <- Hom.A.Lmap.add (Action.of_string_exn l) d delta.(s)
        | _ -> ())
      edges;
    let finals =
      Fsa_automata.Automata.Int_set.of_list
        (List.filter_map Json.to_int finals)
    in
    Some (D.create ~nb_states:n ~start ~finals ~delta)
  | _ -> None

(* The server's cache of the shared quotient, keyed by the APA digest
   and the erased alphabet. *)
let quotient_key spec alphabet =
  let digest =
    span "spec.elaborate" (fun () -> Elaborate.digest_of_spec ~parts:[ `Apa ] spec)
  in
  Store.cache_key ~digest ~kind:"quotient"
    ~params:
      [ ("engine", "shared-v1");
        ("max_states", string_of_int max_states);
        ( "alphabet",
          Store.digest_hex
            (String.concat "\x00"
               (List.map Action.to_string (Action.Set.elements alphabet))) ) ]

(* Analysis.tool on its default path, then the report the requirements
   result embeds.  With a store, the shared quotient is looked up and
   stored as Exec.run does. *)
let tool_path ?store spec =
  let apa = span "spec.elaborate" (fun () -> Elaborate.apa_of_spec spec) in
  let lts, explore_ns = elapsed (fun () -> explore apa) in
  let (minima, maxima), min_max_ns =
    elapsed @@ fun () ->
    span "lts.min_max" (fun () ->
        ( Action.Set.elements (Lts.minima lts),
          Action.Set.elements (Lts.maxima lts) ))
  in
  let alphabet =
    Action.Set.union (Action.Set.of_list minima) (Action.Set.of_list maxima)
  in
  let engine, build_ns =
    elapsed @@ fun () ->
    if Action.Set.is_empty alphabet then None
    else
      let qkey = Option.map (fun st -> (st, quotient_key spec alphabet)) store in
      let dfa =
        Option.bind qkey (fun (st, key) ->
            Option.bind
              (span "store.find" (fun () -> Store.find st ~key))
              (fun e -> dfa_of_json e.Store.e_result))
      in
      span "hom.shared_build" @@ fun () ->
      let e = Hom.Shared.build ?dfa ~alphabet ~minima ~maxima lts in
      let bt = Hom.Shared.timing e in
      Spans.program_child "automata.determinise"
        ~offset_ns:bt.Hom.Shared.sb_erase_ns
        ~dur_ns:bt.Hom.Shared.sb_determinise_ns;
      Spans.program_child "automata.minimise"
        ~offset_ns:
          (Int64.add bt.Hom.Shared.sb_erase_ns
             bt.Hom.Shared.sb_determinise_ns)
        ~dur_ns:bt.Hom.Shared.sb_minimise_ns;
      quotient_states :=
        Hom.A.Dfa.nb_states (Hom.Shared.dfa e) :: !quotient_states;
      early_decided := !early_decided + Hom.Shared.early_count e;
      (match qkey with
      | Some (st, key) when not (Hom.Shared.cached e) ->
        span "store.add" (fun () ->
            Store.add st
              { Store.e_key = key;
                e_kind = "quotient";
                e_result = dfa_to_json (Hom.Shared.dfa e);
                e_output = "";
                e_exit = 0 })
      | _ -> ());
      Some e
  in
  let pairs = ref [] in
  let matrix, compare_ns =
    elapsed @@ fun () ->
    span "hom.compare" @@ fun () ->
    List.map
      (fun mx ->
        ( mx,
          List.map
            (fun mn ->
              match engine with
              | None -> (mn, false)
              | Some e ->
                let dep, dt =
                  Hom.Shared.depends_timed e ~min_action:mn ~max_action:mx
                in
                pairs :=
                  { Analysis.pt_min = mn;
                    pt_max = mx;
                    pt_pruned = false;
                    pt_pruned_by = None;
                    pt_erase_ns = dt.Hom.dt_erase_ns;
                    pt_determinise_ns = dt.Hom.dt_determinise_ns;
                    pt_minimise_ns = dt.Hom.dt_minimise_ns;
                    pt_compare_ns = dt.Hom.dt_compare_ns }
                  :: !pairs;
                (mn, dep))
            minima ))
      maxima
  in
  let requirements, derive_ns =
    elapsed @@ fun () ->
    span "requirements.tool_derive" @@ fun () ->
    List.concat_map
      (fun (mx, row) ->
        List.filter_map
          (fun (mn, dep) ->
            if dep then
              Some (Auth.make ~cause:mn ~effect:mx ~stakeholder:(stakeholder mx))
            else None)
          row)
      matrix
    |> Auth.normalise
  in
  let shared =
    Option.map
      (fun e ->
        let bt = Hom.Shared.timing e in
        { Analysis.sh_alphabet_size = Action.Set.cardinal (Hom.Shared.alphabet e);
          sh_dfa_states = Hom.A.Dfa.nb_states (Hom.Shared.dfa e);
          sh_cached = false;
          sh_early_pairs = Hom.Shared.early_count e;
          sh_erase_ns = bt.Hom.Shared.sb_erase_ns;
          sh_determinise_ns = bt.Hom.Shared.sb_determinise_ns;
          sh_minimise_ns = bt.Hom.Shared.sb_minimise_ns;
          sh_early_ns = bt.Hom.Shared.sb_early_ns })
      engine
  in
  let tr =
    { Analysis.t_lts = lts;
      t_stats = Lts.stats lts;
      t_minima = minima;
      t_maxima = maxima;
      t_matrix = matrix;
      t_requirements = requirements;
      t_timings =
        { Analysis.ph_explore_ns = explore_ns;
          ph_min_max_ns = min_max_ns;
          ph_matrix_ns = Int64.add build_ns compare_ns;
          ph_derive_ns = derive_ns;
          ph_pairs = List.rev !pairs;
          ph_shared = shared };
      t_reduction = None;
      t_engine = engine }
  in
  let origins, soses, digest =
    span "spec.elaborate" @@ fun () ->
    ( Elaborate.skeleton_of_spec spec,
      Elaborate.sos_list spec,
      Elaborate.digest_of_spec ~parts:[ `Apa; `Models ] spec )
  in
  let rpt =
    span "report.build" @@ fun () ->
    Report.of_tool
      ~origins:(Report.origins_of_skeleton origins)
      ~soses ~alphabet:(Apa.rule_names apa) ~digest ~settings tr
  in
  (tr, rpt)

let render_report_json rpt =
  span "report.render" @@ fun () ->
  let j = Report.to_json rpt in
  report_bytes := !report_bytes + String.length (Json.to_string j);
  j

(* The manual path of Analysis.manual, one layer call at a time. *)
let manual sos =
  let poset = span "model.poset" (fun () -> Sos.poset sos) in
  let requirements =
    span "requirements.manual_derive" (fun () -> Derive.of_sos sos)
  in
  let classified =
    span "requirements.classify" (fun () ->
        Classify.classify_all sos requirements)
  in
  span "model.shape" @@ fun () ->
  { Analysis.m_sos = sos;
    m_stats = Sos.stats sos;
    m_boundary = Sos.boundary sos;
    m_chi = Fsa_model.Action_graph.P.chi poset;
    m_requirements = requirements;
    m_classified = classified }

(* ---------------------------------------------------------------- *)
(* Requests                                                          *)
(* ---------------------------------------------------------------- *)

exception Failed of string * string

let fail kind msg = raise (Failed (kind, msg))

let requirements_result ?store spec =
  let tr, rpt = tool_path ?store spec in
  let report = render_report_json rpt in
  ( Json.Obj
      [ ("summary", summary tr.Analysis.t_lts);
        ("requirements", requirements_json tr.Analysis.t_requirements);
        ("report", report) ],
    span "core.render" (fun () -> Fmt.str "%a@." Analysis.pp_tool_report tr),
    0 )

let report_result ?store spec =
  let env = span "spec.elaborate" (fun () -> Elaborate.env_of_spec spec) in
  if env.Elaborate.instances <> [] then begin
    let _, rpt = tool_path ?store spec in
    let j = render_report_json rpt in
    (j, span "report.render" (fun () -> Report.to_markdown rpt), 0)
  end
  else begin
    let soses, digest =
      span "spec.elaborate" @@ fun () ->
      (Elaborate.sos_list spec, Elaborate.digest_of_spec ~parts:[ `Models ] spec)
    in
    match soses with
    | [ s ] ->
      let m = manual s in
      let r = span "report.build" (fun () -> Report.of_manual ~digest s m) in
      let j = render_report_json r in
      (j, span "report.render" (fun () -> Report.to_markdown r), 0)
    | _ -> fail "bad_request" "the benchmark replays reports of one sos"
  end

let reach_result ~reduce spec =
  let apa = span "spec.elaborate" (fun () -> Elaborate.apa_of_spec spec) in
  match reduce with
  | None ->
    let lts = explore apa in
    (summary lts, "", 0)
  | Some kind ->
    let sigs =
      span "spec.elaborate" (fun () -> Elaborate.guard_signatures spec)
    in
    let pl =
      span "sym.plan" (fun () ->
          Sym.plan ~guard_sig:(fun r -> List.assoc_opt r sigs) kind apa)
    in
    let lts =
      span "sym.quotient" (fun () -> Analysis.quotient ~max_states pl apa)
    in
    representatives := !representatives + Lts.nb_states lts;
    (summary lts, "", 0)

let check_result ~file spec =
  let ds = span "check.spec" (fun () -> Check.spec ~file spec) in
  let rendered =
    span "check.render" (fun () -> Fsa_check.Diagnostic.render_json ds)
  in
  let result =
    match Json.parse rendered with Ok j -> j | Error _ -> Json.Str rendered
  in
  (result, rendered, if Fsa_check.Diagnostic.has_errors ds then 1 else 0)

let member_str req k = Option.bind (Json.member k req) Json.to_str

let response ~id fields = Json.Obj (("id", id) :: fields)

let error_response ~id kind message =
  response ~id
    [ ("ok", Json.Bool false);
      ( "error",
        Json.Obj [ ("kind", Json.Str kind); ("message", Json.Str message) ] ) ]

(* One request line to one response line, through [store] (None: no
   cache, as the one-shot CLI runs). *)
let request ?store line =
  let parsed = span "server.json_parse" (fun () -> Json.parse line) in
  let resp =
    match parsed with
    | Error msg -> error_response ~id:Json.Null "parse_error" msg
    | Ok req -> (
      let id = Option.value (Json.member "id" req) ~default:Json.Null in
      try
        let op =
          match member_str req "op" with
          | Some ("requirements" | "report" | "reach" | "check" as op) -> op
          | Some op -> fail "bad_request" (Printf.sprintf "unknown op %S" op)
          | None -> fail "bad_request" "missing or non-string \"op\""
        in
        let file, spec =
          match (member_str req "source", member_str req "spec") with
          | Some src, _ ->
            ("<request>", span "spec.parse" (fun () -> Parser.parse_string src))
          | None, Some path ->
            (path, span "spec.parse" (fun () -> Parser.parse_file path))
          | None, None -> fail "bad_request" "missing \"source\" or \"spec\""
        in
        let reduce =
          match member_str req "reduce" with
          | None -> None
          | Some s -> (
            match Sym.kind_of_string s with
            | Some k -> Some k
            | None -> fail "bad_request" (Printf.sprintf "unknown reduce %S" s))
        in
        let compute () =
          match op with
          | "requirements" -> requirements_result ?store spec
          | "report" -> report_result ?store spec
          | "reach" -> reach_result ~reduce spec
          | _ -> check_result ~file spec
        in
        let ok (result, exit_, cached) =
          response ~id
            [ ("ok", Json.Bool true);
              ("cached", Json.Bool cached);
              ("exit", Json.Int exit_);
              ("result", result) ]
        in
        match store with
        | Some st when op <> "check" ->
          let digest =
            span "spec.elaborate" (fun () ->
                Elaborate.digest_of_spec
                  ~parts:
                    (if op = "reach" then [ `Apa ] else [ `Apa; `Models ])
                  spec)
          in
          let params =
            ("max_states", string_of_int max_states)
            :: (match reduce with
               | None -> []
               | Some k -> [ ("reduce", Sym.kind_to_string k) ])
          in
          let key = Store.cache_key ~digest ~kind:op ~params in
          (match span "store.find" (fun () -> Store.find st ~key) with
          | Some e -> ok (e.Store.e_result, e.Store.e_exit, true)
          | None ->
            let result, output, exit_ = compute () in
            span "store.add" (fun () ->
                Store.add st
                  { Store.e_key = key;
                    e_kind = op;
                    e_result = result;
                    e_output = output;
                    e_exit = exit_ });
            ok (result, exit_, false))
        | _ ->
          let result, _, exit_ = compute () in
          ok (result, exit_, false)
      with
      | Failed (kind, msg) -> error_response ~id kind msg
      | Fsa_spec.Loc.Error (loc, msg) ->
        error_response ~id "parse_error"
          (Fmt.str "%a" Fsa_spec.Loc.pp_exn (loc, msg))
      | Sys_error msg -> error_response ~id "io_error" msg
      | Invalid_argument msg -> error_response ~id "bad_request" msg)
  in
  span "server.json_print" (fun () -> Json.to_string resp)
