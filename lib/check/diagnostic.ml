(* Unified diagnostics: stable codes, severities, source spans and
   deterministic renderers. *)

module Loc = Fsa_spec.Loc

type severity = Error | Warning | Info

let pp_severity ppf = function
  | Error -> Fmt.string ppf "error"
  | Warning -> Fmt.string ppf "warning"
  | Info -> Fmt.string ppf "info"

let severity_to_string = function
  | Error -> "error"
  | Warning -> "warning"
  | Info -> "info"

let severity_rank = function Error -> 0 | Warning -> 1 | Info -> 2

type t = {
  code : string;
  severity : severity;
  file : string option;
  loc : Loc.t option;
  message : string;
}

let make ?file ?loc ~severity ~code fmt =
  Fmt.kstr (fun message -> { code; severity; file; loc; message }) fmt

let error ?file ?loc ~code fmt = make ?file ?loc ~severity:Error ~code fmt
let warning ?file ?loc ~code fmt = make ?file ?loc ~severity:Warning ~code fmt
let info ?file ?loc ~code fmt = make ?file ?loc ~severity:Info ~code fmt

let compare a b =
  let file_cmp =
    Option.compare String.compare a.file b.file
  in
  if file_cmp <> 0 then file_cmp
  else
    let loc_cmp = Option.compare Loc.compare a.loc b.loc in
    if loc_cmp <> 0 then loc_cmp
    else
      (* code before severity: two findings on the same line keep a
         stable code order instead of interleaving by severity *)
      let code_cmp = String.compare a.code b.code in
      if code_cmp <> 0 then code_cmp
      else
        let sev_cmp =
          Int.compare (severity_rank a.severity) (severity_rank b.severity)
        in
        if sev_cmp <> 0 then sev_cmp
        else String.compare a.message b.message

let sort ds = List.sort compare ds

let promote_warnings ds =
  List.map
    (fun d -> if d.severity = Warning then { d with severity = Error } else d)
    ds

let count sev ds = List.length (List.filter (fun d -> d.severity = sev) ds)
let has_errors ds = List.exists (fun d -> d.severity = Error) ds

let summary ds =
  if ds = [] then "no findings"
  else
    let plural n word = Printf.sprintf "%d %s%s" n word (if n = 1 then "" else "s") in
    [ (count Error ds, "error"); (count Warning ds, "warning");
      (count Info ds, "note") ]
    |> List.filter (fun (n, _) -> n > 0)
    |> List.map (fun (n, w) -> plural n w)
    |> String.concat ", "

(* ------------------------------------------------------------------ *)
(* Code registry                                                       *)
(* ------------------------------------------------------------------ *)

let registry =
  [ ("FSA000", Error, "the specification does not parse or elaborate");
    ("FSA001", Error,
     "dead rule: a take pattern can never match any producible term");
    ("FSA002", Error,
     "a put template uses a variable not bound by any take pattern");
    ("FSA003", Warning,
     "a guard references a variable not bound by any take pattern");
    ("FSA004", Info,
     "write-only state component: its contents are never read");
    ("FSA005", Warning,
     "unused state component: no rule ever reads or writes it");
    ("FSA006", Info,
     "inert rule: it reads a component that never holds any data in this \
      instantiation");
    ("FSA007", Error, "a rule references an undeclared state component");
    ("FSA010", Warning,
     "consume/consume race: two rules remove unifiable terms from the same \
      component");
    ("FSA011", Warning,
     "consume/read race: one rule removes terms another rule reads");
    ("FSA020", Error,
     "a check declaration names an action outside the APA's alphabet");
    ("FSA021", Warning,
     "vacuous check declaration: it names an action no rule can emit");
    ("FSA022", Error,
     "a homomorphism keep set names an action outside the APA's alphabet");
    ("FSA023", Warning,
     "the homomorphism erases the entire alphabet: the abstraction is \
      vacuous");
    ("FSA030", Error, "isolated action: no functional flows at all");
    ("FSA031", Info, "component with no external interaction");
    ("FSA032", Error, "action is both a system input and a system output");
    ("FSA033", Info, "policy tag used by a single flow (typo?)");
    ("FSA034", Error, "system output influenced by no system input");
    ("FSA035", Info, "heavy external fan-in (undocumented merge logic?)");
    ("FSA040", Info,
     "component bounded by a place invariant of the net skeleton");
    ("FSA041", Warning,
     "state space certified infinite: an unguarded rule re-enables itself \
      with a strictly growing term");
    ("FSA042", Info,
     "potentially unbounded component: positive net production and no \
      covering place invariant");
    ("FSA043", Info,
     "transition invariant: a multiset of rules whose firing leaves the \
      skeleton marking unchanged (cyclic behaviour)");
    ("FSA044", Info,
     "structurally dead-lockable: a siphon without an initially marked \
      trap can drain and permanently disable its consumers");
    ("FSA045", Info,
     "deadlock-free at skeleton level: every minimal siphon contains an \
      initially marked trap");
    ("FSA046", Info,
     "statically independent rule pairs: no token flow connects them, so \
      their functional dependence tests are negative by construction");
    ("FSA047", Info,
     "initially marked trap: these components can never all drain");
    ("FSA048", Info,
     "structural analysis truncated: siphon/trap enumeration exceeded its \
      budget");
    ("FSA050", Info,
     "symmetry orbit: interchangeable instances, explored once per \
      equivalence class under --reduce sym");
    ("FSA051", Info,
     "same-shape instances are not interchangeable (guards, rule sets or \
      ambiguous correspondence)");
    ("FSA052", Info,
     "symmetry orbit not reducible: an instance identity leaks outside \
      the orbit's own components");
    ("FSA053", Info,
     "rule interference modules: statically independent subsystems, \
      usable as ample sets under --reduce por");
    ("FSA054", Info,
     "same-shape instances differ in their initial contents");
    ("FSA055", Info,
     "predicted symmetry reduction factor for --reduce sym");
    ("FSA056", Info,
     "interference module unusable as an ample set: a rule does not \
      consume, or intra-module token flow is cyclic");
    ("FSA057", Info,
     "guard equivalence attested by syntactic signature only: symmetry \
      soundness assumes the guard builtins treat the instances alike");
    ("FSA058", Info,
     "reduction available: the model qualifies for --reduce");
    ("FSA060", Warning,
     "confidentiality leak: a protected component flows into a \
      cross-instance channel");
    ("FSA061", Info,
     "unsanitized cross-instance flow: data crosses a system boundary \
      into a rule with no guard");
    ("FSA062", Info,
     "dead attack surface: an initially enabled rule influences no \
      output rule");
    ("FSA063", Info,
     "unguarded flow cycle: a feedback loop no guard ever checks");
    ("FSA064", Info,
     "guard-killed flow edges: statically decided guards sever token \
      flows the net skeleton admits");
    ("FSA065", Info,
     "flow-independent action pairs beyond the skeleton baseline: their \
      functional dependence tests are negative by construction") ]

let describe code =
  List.find_map
    (fun (c, _, d) -> if String.equal c code then Some d else None)
    registry

(* ------------------------------------------------------------------ *)
(* Text rendering                                                      *)
(* ------------------------------------------------------------------ *)

let pp ppf d =
  (match d.file with Some f -> Fmt.pf ppf "%s:" f | None -> ());
  (match d.loc with
  | Some l when not (Loc.is_dummy l) -> Fmt.pf ppf "%d:%d:" l.Loc.line l.Loc.col
  | Some _ | None -> ());
  if d.file <> None || d.loc <> None then Fmt.sp ppf ();
  Fmt.pf ppf "%a[%s]: %s" pp_severity d.severity d.code d.message

let source_line content n =
  let rec go i line =
    if line = n then
      let stop =
        match String.index_from_opt content i '\n' with
        | Some j -> j
        | None -> String.length content
      in
      Some (String.sub content i (stop - i))
    else
      match String.index_from_opt content i '\n' with
      | Some j -> go (j + 1) (line + 1)
      | None -> None
  in
  if n < 1 then None else go 0 1

(* The quoted source line with a caret underline covering the span (or to
   the end of the line for multi-line spans). *)
let underline buf content (l : Loc.t) =
  match source_line content l.Loc.line with
  | None -> ()
  | Some line ->
    let prefix = Printf.sprintf "  %d | " l.Loc.line in
    Buffer.add_string buf prefix;
    Buffer.add_string buf line;
    Buffer.add_char buf '\n';
    Buffer.add_string buf (String.make (String.length prefix - 2) ' ');
    Buffer.add_string buf "| ";
    let start = max 1 l.Loc.col in
    let stop =
      if l.Loc.end_line > l.Loc.line then String.length line
      else min (max l.Loc.end_col start) (max (String.length line) start)
    in
    Buffer.add_string buf (String.make (start - 1) ' ');
    Buffer.add_char buf '^';
    if stop > start then Buffer.add_string buf (String.make (stop - start) '~');
    Buffer.add_char buf '\n'

let render_text ?(sources = []) ds =
  let buf = Buffer.create 256 in
  List.iter
    (fun d ->
      Buffer.add_string buf (Fmt.str "%a" pp d);
      Buffer.add_char buf '\n';
      (match d.loc with
      | Some l when not (Loc.is_dummy l) -> (
        match Option.bind d.file (fun f -> List.assoc_opt f sources) with
        | Some content -> underline buf content l
        | None -> ())
      | Some _ | None -> ()))
    (sort ds);
  Buffer.add_string buf (summary ds);
  Buffer.add_char buf '\n';
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* JSON rendering                                                      *)
(* ------------------------------------------------------------------ *)

let render_json ds =
  let buf = Buffer.create 256 in
  let str s =
    Buffer.add_char buf '"';
    Fsa_obs.Metrics.json_escape buf s;
    Buffer.add_char buf '"'
  in
  Buffer.add_string buf "[";
  List.iteri
    (fun i d ->
      if i > 0 then Buffer.add_string buf ",";
      Buffer.add_string buf "\n  {";
      (match d.file with
      | Some f ->
        Buffer.add_string buf "\"file\": ";
        str f;
        Buffer.add_string buf ", "
      | None -> ());
      Buffer.add_string buf "\"code\": ";
      str d.code;
      Buffer.add_string buf ", \"severity\": ";
      str (severity_to_string d.severity);
      (match d.loc with
      | Some l when not (Loc.is_dummy l) ->
        Buffer.add_string buf
          (Printf.sprintf
             ", \"line\": %d, \"col\": %d, \"endLine\": %d, \"endCol\": %d"
             l.Loc.line l.Loc.col l.Loc.end_line l.Loc.end_col)
      | Some _ | None -> ());
      Buffer.add_string buf ", \"message\": ";
      str d.message;
      Buffer.add_string buf "}")
    (sort ds);
  Buffer.add_string buf (if ds = [] then "]\n" else "\n]\n");
  Buffer.contents buf
