(* The functional security analysis methodology — the paper's primary
   contribution, as a library facade over the substrates.

   Two analysis paths produce the set of authenticity requirements of a
   system of systems:

   - the *manual* path (Sect. 4): functional model -> partial order zeta*
     -> restriction chi to (minima x maxima) -> auth(x, y, stakeholder(y));

   - the *tool* path (Sect. 5): APA model -> reachability graph ->
     minima/maxima identification -> functional dependence test of each
     (min, max) pair by abstraction with an alphabetic homomorphism and
     inspection of the minimal automaton.

   Both paths are implemented and can be cross-validated against each
   other via a label correspondence. *)

module Action = Fsa_term.Action
module Agent = Fsa_term.Agent
module Sos = Fsa_model.Sos
module Auth = Fsa_requirements.Auth
module Derive = Fsa_requirements.Derive
module Classify = Fsa_requirements.Classify
module Lts = Fsa_lts.Lts
module Hom = Fsa_hom.Hom

let log_src = Logs.Src.create "fsa.core" ~doc:"analysis pipeline phases"

module Log = (val Logs.src_log log_src)

module Span = Fsa_obs.Span
module Progress = Fsa_obs.Progress

(* ------------------------------------------------------------------ *)
(* Manual path                                                         *)
(* ------------------------------------------------------------------ *)

type manual_report = {
  m_sos : Sos.t;
  m_stats : Sos.stats;
  m_boundary : Sos.boundary;
  m_chi : (Action.t * Action.t) list;
  m_requirements : Auth.t list;
  m_classified : (Auth.t * Classify.class_) list;
}

let manual ?(stakeholder = Derive.default_stakeholder) sos =
  Span.with_ ~cat:"core" "manual" @@ fun () ->
  let poset = Span.with_ ~cat:"core" "manual.poset" (fun () -> Sos.poset sos) in
  let requirements =
    Span.with_ ~cat:"core" "manual.derive" (fun () ->
        Derive.of_sos ~stakeholder sos)
  in
  let classified =
    Span.with_ ~cat:"core" "manual.classify" (fun () ->
        Classify.classify_all sos requirements)
  in
  Log.debug (fun m ->
      m "manual path %s: %d requirements" (Sos.name sos)
        (List.length requirements));
  { m_sos = sos;
    m_stats = Sos.stats sos;
    m_boundary = Sos.boundary sos;
    m_chi = Fsa_model.Action_graph.P.chi poset;
    m_requirements = requirements;
    m_classified = classified }

let pp_manual_report ppf r =
  Fmt.pf ppf
    "@[<v>== manual functional security analysis: %s ==@,\
     model: %a@,\
     incoming boundary actions: @[%a@]@,\
     outgoing boundary actions: @[%a@]@,\
     requirements:@,%a@]"
    (Sos.name r.m_sos) Sos.pp_stats r.m_stats
    Fmt.(list ~sep:comma Action.pp)
    r.m_boundary.Sos.incoming
    Fmt.(list ~sep:comma Action.pp)
    r.m_boundary.Sos.outgoing
    Fmt.(list ~sep:cut (fun ppf rc -> Fmt.pf ppf "- %a" Classify.pp_classified rc))
    r.m_classified

(* ------------------------------------------------------------------ *)
(* Tool path                                                           *)
(* ------------------------------------------------------------------ *)

(* Wall-clock breakdown of one (min, max) dependence test.  The shared
   engine does the erase/determinise/minimise work once for all pairs
   (see [shared_timing]), so only the compare stage is per pair. *)
type pair_timing = {
  pt_min : Action.t;
  pt_max : Action.t;
  pt_pruned : bool;
  pt_pruned_by : string option;
      (* ["static"] (skeleton reachability, under an ample-set
         reduction); [None] when tested *)
  pt_erase_ns : int64;
  pt_determinise_ns : int64;
  pt_minimise_ns : int64;
  pt_compare_ns : int64;
}

(* The shared engine's one-off cost and shape: what the per-pair
   erase/determinise/minimise columns of [ph_pairs] no longer contain
   when the shared path answered the pairs. *)
type shared_timing = {
  sh_alphabet_size : int;
  sh_dfa_states : int;
  sh_cached : bool;  (** the shared quotient came from the store *)
  sh_early_pairs : int;  (** pairs decided during the single pass *)
  sh_erase_ns : int64;
  sh_determinise_ns : int64;
  sh_minimise_ns : int64;
  sh_early_ns : int64;
}

type phase_timings = {
  ph_explore_ns : int64;
  ph_min_max_ns : int64;
  ph_matrix_ns : int64;
  ph_derive_ns : int64;
  ph_pairs : pair_timing list;
  ph_shared : shared_timing option;
}

(* What --reduce actually did: the size of the reduced exploration (the
   states and transitions that underwent rule matching), the order of
   the symmetry group explored under (always the trivial one), and —
   when the plan could not be applied soundly — why the run fell back to
   unreduced exploration. *)
type reduction_info = {
  ri_kind : string;  (** ["sym"], ["por"] or ["sym+por"] *)
  ri_reduced_states : int;
  ri_reduced_transitions : int;
  ri_group_order : float;
  ri_fallback : string option;
}

type tool_report = {
  t_lts : Lts.t;
  t_stats : Lts.stats;
  t_minima : Action.t list;
  t_maxima : Action.t list;
  t_matrix : (Action.t * (Action.t * bool) list) list;
  t_requirements : Auth.t list;
  t_timings : phase_timings;
  t_reduction : reduction_info option;
  t_engine : Hom.Shared.engine option;
}

(* Hook for caching the shared intermediate quotient.  The store lives
   above this library (lib/core does not depend on lib/store), so the
   analysis takes the cache as a pair of callbacks; the server wires
   them to [Fsa_store] entries keyed by spec digest + erased-alphabet
   digest + engine version. *)
type quotient_cache = {
  qc_find : alphabet:Action.t list -> Hom.A.Dfa.t option;
  qc_store : alphabet:Action.t list -> Hom.A.Dfa.t -> unit;
}

module Sym = Fsa_sym.Sym
module Apa = Fsa_apa.Apa

(* Static dependence pruning, forced on by an ample-set reduction (see
   [tool]).  [prune mn mx] answers [true] only when it is sound to skip
   the dependence test and record "independent": the LTS must be
   labelled by rule names (the default labelling — an action with an
   actor, arguments or a label outside the rule names disables pruning
   for the whole run), and the token-flow graph of the net skeleton must
   admit no path from [mn]'s rule to [mx]'s rule.  Then no firing of
   [mx] can consume or read (transitively) anything [mn] produced:
   deleting [mn]'s firings and their downward flow closure from any run
   leaves a valid run still containing [mx], so the functional
   dependence test is negative by construction and pruning cannot
   change the result.

   [indep] is the flow-independence matrix the reduction plan already
   built for its ample-set modules. *)
let default_labelled_rules apa =
  List.for_all (fun r -> r.Apa.r_default_label) (Apa.rules apa)

let rule_name_labelled apa lts =
  let rule_names = Apa.rule_names apa in
  default_labelled_rules apa
  || Action.Set.for_all
       (fun a ->
         Action.equal a (Action.make (Action.label a))
         && List.mem (Action.label a) rule_names)
       (Lts.alphabet lts)

let static_pruner ~indep apa lts =
  if not (rule_name_labelled apa lts) then fun _ _ -> false
  else
    fun mn mx ->
      not (Action.equal mn mx)
      && Lazy.force indep (Action.label mn) (Action.label mx)

let c_pairs_pruned = Fsa_struct.Structural.pairs_pruned

(* ------------------------------------------------------------------ *)
(* Reduced exploration (--reduce)                                      *)
(* ------------------------------------------------------------------ *)

let reduction_hooks pl =
  { Lts.rd_canon = Option.value (Sym.canon_fn pl) ~default:Fun.id;
    rd_ample = Option.value (Sym.ample_fn pl) ~default:(fun _ succs -> succs) }

let quotient ?(max_states = 1_000_000) ?progress pl apa =
  Lts.explore ~max_states ~reduce:(reduction_hooks pl) ?progress apa

(* Exact maxima of the FULL graph, recovered module-locally.

   An ample-reduced graph cannot answer the maxima question directly:
   its dead states are only ever entered by whatever module the
   scheduler ran last, so plain [Lts.maxima] loses every other module's
   final actions.  But interference modules are fully independent
   subsystems — no rule of one can enable, disable or feed another — so
   the full graph is exactly their product, and the product's maxima
   decompose:

   - a product state is dead iff every module is locally dead, and by
     independence every combination of locally reachable states is
     reachable, so [a] (of module [i]) enters a dead product state iff
     [a] enters a dead state of module [i]'s local graph and every
     other module can die;
   - the reduced graph has a dead state iff every module can locally
     die (a reduced dead state is a genuine product dead state, and
     conversely termination of the chosen modules drives every module
     to a local dead end when it has one).

   So: no dead state in the reduced graph means no full maxima at all;
   otherwise the full maxima are the union of each module's local
   maxima, each computed by exploring that module's rules alone
   ({!Apa.restrict}, as composition explores its modules) — the local
   graphs are tiny (the product divides into them). *)
let por_maxima ?(max_states = 1_000_000) po apa lts =
  if Lts.deadlocks lts = [] then Action.Set.empty
  else
    List.fold_left
      (fun acc m ->
        let local =
          Lts.explore ~max_states (Apa.restrict ~rules:m.Sym.m_rules apa)
        in
        Action.Set.union acc (Lts.maxima local))
      Action.Set.empty (Sym.por_modules po)

(* The composition modules derivation explores one by one, when there
   are at least two.  Custom labels could give two modules one action,
   so composition needs the default rule-name labelling. *)
let composition_modules apa =
  if not (default_labelled_rules apa) then []
  else
    match
      Fsa_struct.Structural.composition_modules
        (Fsa_struct.Structural.of_apa apa)
    with
    | [ _ ] -> []
    | modules -> modules

(* Explore each module's sub-APA and represent the APA's graph as their
   product ({!Lts.product}).  [max_states] bounds the product, as it
   bounds exploring the whole APA: a module beyond it fails while
   exploring, and the product's state count is checked arithmetically
   before the numbering walk.  [progress] counts the modules' states,
   then the walk's product states; only the walk finishes it. *)
let explore_composed ~max_states ?progress apa modules =
  let explored = ref 0 in
  let graphs =
    List.map
      (fun rules ->
        let g =
          Lts.explore ~max_states
            ?progress:(Option.map (Progress.offset ~by:!explored) progress)
            (Apa.restrict ~rules apa)
        in
        explored := !explored + Lts.nb_states g;
        g)
      modules
  in
  ignore
    (List.fold_left
       (fun acc g ->
         let n = Lts.nb_states g in
         if acc > max_states / n then
           raise (Lts.State_space_too_large max_states);
         acc * n)
       1 graphs);
  let rank = Hashtbl.create 64 in
  List.iteri (fun i r -> Hashtbl.replace rank r.Apa.r_name i) (Apa.rules apa);
  let lts =
    Lts.product ?progress
      ~rank:(fun a -> Hashtbl.find rank (Action.label a))
      graphs
  in
  (lts, graphs)

let tool ?(max_states = 1_000_000) ?reduce ?quotient_cache ?progress
    ~stakeholder apa =
  Span.with_ ~cat:"core" "tool" @@ fun () ->
  let timed f =
    let t0 = Span.now_ns () in
    let v = f () in
    (v, Int64.sub (Span.now_ns ()) t0)
  in
  (* Derivation always explores the concrete graph: a plan's symmetry
     component only shrinks [quotient] (reach statistics), and the tool
     applies just its ample-set component.  That leans on static
     pruning, which needs the default rule-name labelling, so models
     with custom labels fall back to unreduced exploration (recorded in
     [ri_fallback]). *)
  let eff_reduce, fallback =
    match reduce with
    | None -> (None, None)
    | Some pl when default_labelled_rules apa -> (Some pl, None)
    | Some pl ->
      let reason =
        "model has custom action labels; explored unreduced"
      in
      Log.warn (fun m ->
          m "--reduce %s: %s" (Sym.kind_to_string pl.Sym.pl_kind) reason);
      (None, Some reason)
  in
  let por =
    Option.bind eff_reduce (fun pl ->
        match (pl.Sym.pl_por, Sym.ample_fn pl) with
        | Some po, Some ample -> Some (pl, po, ample)
        | _ -> None)
  in
  (* Unreduced, an APA of independent modules is explored module by
     module and represented as their product; the dependence engine is
     then one engine per module ({!Hom.Shared.product}). *)
  let modules = if por = None then composition_modules apa else [] in
  let (lts, module_graphs), ph_explore_ns =
    timed @@ fun () ->
    Span.with_ ~cat:"core" "tool.explore" (fun () ->
        match modules with
        | [] ->
          ( Lts.explore ~max_states
              ?reduce:
                (Option.map
                   (fun (_, _, rd_ample) ->
                     { Lts.rd_canon = Fun.id; rd_ample })
                   por)
              ?progress apa,
            [] )
        | _ -> explore_composed ~max_states ?progress apa modules)
  in
  (* An active ample-set reduction drops interleavings of rules from
     different interference modules, with two consequences downstream:
     maxima are recovered module-locally ({!por_maxima}), and the
     dependence test on the reduced graph could spuriously report
     cross-module pairs as dependent, so static pruning is forced on —
     flow-independent pairs are settled by the (sound) structural
     argument in both the reduced and the unreduced run, and same-module
     pairs project to the same module-local runs either way. *)
  let (minima, maxima), ph_min_max_ns =
    timed @@ fun () ->
    Span.with_ ~cat:"core" "tool.min_max" (fun () ->
        let maxima =
          match por with
          | Some (_, po, _) -> por_maxima ~max_states po apa lts
          | None -> Lts.maxima lts
        in
        (Action.Set.elements (Lts.minima lts), Action.Set.elements maxima))
  in
  let pruned =
    match por with
    | Some (pl, _, _) -> static_pruner ~indep:pl.Sym.pl_indep apa lts
    | None -> fun _ _ -> false
  in
  let pair_timings = ref [] in
  let (matrix, engine), ph_matrix_ns =
    timed @@ fun () ->
    Span.with_ ~cat:"core" "tool.dependence_matrix" @@ fun () ->
    (* The shared engine: erase once to the union alphabet of all
       surviving pairs, determinise/minimise the shared image, then
       answer every pair from it.  Statically pruned pairs contribute
       nothing to the alphabet — their verdict never touches the
       automaton. *)
    let surviving_minima =
      List.filter
        (fun mn -> List.exists (fun mx -> not (pruned mn mx)) maxima)
        minima
    and surviving_maxima =
      List.filter
        (fun mx -> List.exists (fun mn -> not (pruned mn mx)) minima)
        maxima
    in
    (* one engine over the pair actions of [g]; the quotient cache holds
       one entry per alphabet *)
    let build ?progress ~minima ~maxima g =
      let alphabet =
        Action.Set.union (Action.Set.of_list minima) (Action.Set.of_list maxima)
      in
      if Action.Set.is_empty alphabet then None
      else begin
        let alist = Action.Set.elements alphabet in
        let dfa =
          Option.bind quotient_cache (fun qc -> qc.qc_find ~alphabet:alist)
        in
        let e =
          Hom.Shared.build ?dfa ~max_states ?progress ~alphabet ~minima
            ~maxima g
        in
        (match quotient_cache with
        | Some qc when not (Hom.Shared.cached e) ->
          qc.qc_store ~alphabet:alist (Hom.Shared.dfa e)
        | _ -> ());
        Some e
      end
    in
    let engine =
      match module_graphs with
      | [] ->
        build ?progress ~minima:surviving_minima ~maxima:surviving_maxima lts
      | graphs -> (
        (* default labels are rule names *)
        let in_module rules =
          List.filter (fun a -> List.mem (Action.label a) rules)
        in
        (* the builds' ticks continue past the product's count *)
        let progress =
          Option.map (Progress.offset ~by:(Lts.nb_states lts)) progress
        in
        let module_engine rules g =
          build ?progress
            ~minima:(in_module rules surviving_minima)
            ~maxima:(in_module rules surviving_maxima)
            g
        in
        match List.filter_map Fun.id (List.map2 module_engine modules graphs) with
        | [] -> None
        | parts -> Some (Hom.Shared.product ~max_states parts))
    in
    let verdict mn mx =
      if pruned mn mx then begin
        Fsa_obs.Metrics.incr c_pairs_pruned;
        ( false,
          Some "static",
          { Hom.dt_erase_ns = 0L;
            dt_determinise_ns = 0L;
            dt_minimise_ns = 0L;
            dt_compare_ns = 0L } )
      end
      else
        (* a tested pair lies in the alphabet, so the engine exists *)
        let dep, dt =
          Hom.Shared.depends_timed (Option.get engine) ~min_action:mn
            ~max_action:mx
        in
        (dep, None, dt)
    in
    let matrix =
      List.map
        (fun mx ->
          ( mx,
            List.map
              (fun mn ->
                let dep, by, dt = verdict mn mx in
                pair_timings :=
                  { pt_min = mn;
                    pt_max = mx;
                    pt_pruned = by <> None;
                    pt_pruned_by = by;
                    pt_erase_ns = dt.Hom.dt_erase_ns;
                    pt_determinise_ns = dt.Hom.dt_determinise_ns;
                    pt_minimise_ns = dt.Hom.dt_minimise_ns;
                    pt_compare_ns = dt.Hom.dt_compare_ns }
                  :: !pair_timings;
                (mn, dep))
              minima ))
        maxima
    in
    (matrix, engine)
  in
  let requirements, ph_derive_ns =
    timed @@ fun () ->
    Span.with_ ~cat:"core" "tool.derive" @@ fun () ->
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
  Log.debug (fun m ->
      m "tool path %s: %d states (%d modules), %d minima x %d maxima, \
         %d requirements"
        (Lts.name lts) (Lts.nb_states lts)
        (max 1 (List.length module_graphs))
        (List.length minima) (List.length maxima)
        (List.length requirements));
  (* the tool path never applies symmetry: the group it explored under
     is the trivial one *)
  let t_reduction =
    match reduce with
    | None -> None
    | Some pl ->
      Some
        { ri_kind = Sym.kind_to_string pl.Sym.pl_kind;
          ri_reduced_states = Lts.nb_states lts;
          ri_reduced_transitions = Lts.nb_transitions lts;
          ri_group_order = 1.;
          ri_fallback = fallback }
  in
  { t_lts = lts;
    t_stats = Lts.stats lts;
    t_minima = minima;
    t_maxima = maxima;
    t_matrix = matrix;
    t_requirements = requirements;
    t_timings =
      { ph_explore_ns;
        ph_min_max_ns;
        ph_matrix_ns;
        ph_derive_ns;
        ph_pairs = List.rev !pair_timings;
        ph_shared =
          Option.map
            (fun e ->
              let bt = Hom.Shared.timing e in
              { sh_alphabet_size =
                  Action.Set.cardinal (Hom.Shared.alphabet e);
                sh_dfa_states = Hom.Shared.nb_states e;
                sh_cached = Hom.Shared.cached e;
                sh_early_pairs = Hom.Shared.early_count e;
                sh_erase_ns = bt.Hom.Shared.sb_erase_ns;
                sh_determinise_ns = bt.Hom.Shared.sb_determinise_ns;
                sh_minimise_ns = bt.Hom.Shared.sb_minimise_ns;
                sh_early_ns = bt.Hom.Shared.sb_early_ns })
            engine };
    t_reduction;
    t_engine = engine }

let matrix_pairs r =
  List.concat_map
    (fun (mx, row) -> List.map (fun (mn, dep) -> (mn, mx, dep)) row)
    r.t_matrix

let pp_tool_report ppf r =
  let pp_row ppf (mx, row) =
    Fmt.pf ppf "%a depends on: @[%a@]" Action.pp mx
      Fmt.(list ~sep:comma Action.pp)
      (List.filter_map (fun (mn, d) -> if d then Some mn else None) row)
  in
  Fmt.pf ppf
    "@[<v>== tool-assisted analysis: %s ==@,\
     reachability graph: %a@,\
     minima: @[%a@]@,\
     maxima: @[%a@]@,\
     dependence:@,%a@,\
     requirements:@,%a@]"
    (Lts.name r.t_lts) Lts.pp_stats r.t_stats
    Fmt.(list ~sep:comma Action.pp)
    r.t_minima
    Fmt.(list ~sep:comma Action.pp)
    r.t_maxima
    Fmt.(list ~sep:cut pp_row)
    r.t_matrix Auth.pp_set r.t_requirements

(* ------------------------------------------------------------------ *)
(* Cross-validation of the two paths                                   *)
(* ------------------------------------------------------------------ *)

type crosscheck = {
  c_agree : bool;
  c_manual_only : Auth.t list;
  c_tool_only : Auth.t list;
  c_unmapped : Action.t list;  (* tool actions without a manual image *)
}

(* Translate the tool path's requirements into the manual action
   vocabulary via [map] (e.g. V1_sense -> sense(ESP_1, sW)) and compare
   requirement sets.  Stakeholders are compared as well, so [map] must be
   paired with consistent stakeholder assignments on both sides. *)
let crosscheck ~map ~manual_requirements ~tool_requirements =
  let unmapped = ref [] in
  let translate r =
    match map (Auth.cause r), map (Auth.effect r) with
    | Some cause, Some effect ->
      Some (Auth.make ~cause ~effect ~stakeholder:(Auth.stakeholder r))
    | None, _ ->
      unmapped := Auth.cause r :: !unmapped;
      None
    | _, None ->
      unmapped := Auth.effect r :: !unmapped;
      None
  in
  let tool_translated = List.filter_map translate tool_requirements in
  let manual_only = Auth.diff manual_requirements tool_translated in
  let tool_only = Auth.diff tool_translated manual_requirements in
  { c_agree = manual_only = [] && tool_only = [] && !unmapped = [];
    c_manual_only = manual_only;
    c_tool_only = tool_only;
    c_unmapped = List.sort_uniq Action.compare !unmapped }

let pp_crosscheck ppf c =
  if c.c_agree then Fmt.pf ppf "both analysis paths agree"
  else
    Fmt.pf ppf
      "@[<v>analysis paths disagree:@,manual only: %a@,tool only: %a@,\
       unmapped tool actions: @[%a@]@]"
      Auth.pp_set c.c_manual_only Auth.pp_set c.c_tool_only
      Fmt.(list ~sep:comma Action.pp)
      c.c_unmapped
