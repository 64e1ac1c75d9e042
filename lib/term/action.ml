(* Atomic actions of the functional model, e.g. [sense(ESP_1, sW)],
   [send(cam(pos))] or [show(HMI_w, warn)].  An action has a label, an
   optional acting component and data arguments.  Actions are the vertices
   of functional flow graphs and the transition labels of APA behaviours. *)

type t = { label : string; actor : Agent.t option; args : Term.t list }

let make ?actor ?(args = []) label = { label; actor; args }

let label t = t.label
let actor t = t.actor
let args t = t.args

(* Rules build their default label once, so the transition sorts of
   exploration mostly compare physically equal actions. *)
let compare a b =
  if a == b then 0
  else
  let c = String.compare a.label b.label in
  if c <> 0 then c
  else
    let c = Option.compare Agent.compare a.actor b.actor in
    if c <> 0 then c else Term.compare_list a.args b.args

let equal a b = a == b || compare a b = 0

(* Break-free for the same reason as {!Term.pp}. *)
let pp ppf t =
  match t.actor, t.args with
  | None, [] -> Fmt.string ppf t.label
  | None, args ->
    Fmt.pf ppf "%s(%a)" t.label Fmt.(list ~sep:(any ", ") Term.pp) args
  | Some actor, [] -> Fmt.pf ppf "%s(%a)" t.label Agent.pp actor
  | Some actor, args ->
    Fmt.pf ppf "%s(%a, %a)" t.label Agent.pp actor
      Fmt.(list ~sep:(any ", ") Term.pp)
      args

let to_string t = Fmt.str "%a" pp t

(* A short, unambiguous identifier in the style of the SH verification
   tool's transition names, e.g. [V1_send] for [send(CU_1, cam(pos))] when
   the communication unit belongs to vehicle [V_1].  The [system] argument
   names the enclosing system instance. *)
let tool_name ?system t =
  match system with
  | Some s -> Printf.sprintf "%s_%s" s t.label
  | None -> (
    match t.actor with
    | None -> t.label
    | Some a -> Printf.sprintf "%s_%s" (Agent.to_string a) t.label)

let reindex f t = { t with actor = Option.map (Agent.reindex f) t.actor }

let map_args f t = { t with args = List.map f t.args }

let is_parameterised t =
  (match t.actor with Some a -> Agent.is_parameterised a | None -> false)
  || List.exists (fun a -> not (Term.is_ground a)) t.args

(* The shape of an action forgets the instance index of the actor: used to
   recognise families of requirements that differ only in the instance. *)
type shape = { s_label : string; s_role : string option; s_args : Term.t list }

let shape t =
  { s_label = t.label;
    s_role = Option.map Agent.role t.actor;
    s_args = t.args }

let compare_shape a b =
  let c = String.compare a.s_label b.s_label in
  if c <> 0 then c
  else
    let c = Option.compare String.compare a.s_role b.s_role in
    if c <> 0 then c else Term.compare_list a.s_args b.s_args

let pp_shape ppf s =
  let role = match s.s_role with None -> "" | Some r -> r ^ "_x, " in
  Fmt.pf ppf "%s(%s%a)" s.s_label role Fmt.(list ~sep:comma Term.pp) s.s_args

(* Parsing.  An action is written [label], [label(args)] or
   [label(Actor, args)]: the first argument is taken as the actor when it is
   a bare identifier that parses as an indexed or well-known role written in
   capitals (e.g. ESP_1, GPS_w, RSU, HMI_2).  This is the convention used in
   the paper's Table 1. *)
let looks_like_agent = function
  | Term.Sym s ->
    s <> "" && s.[0] >= 'A' && s.[0] <= 'Z'
  | Term.Int _ | Term.Var _ | Term.App _ -> false

let of_string s =
  let lx = Lexer.make s in
  match
    let label =
      match Lexer.next lx with
      | Lexer.Ident id -> id
      | _ -> raise (Lexer.Error ("expected an action label", 0))
    in
    if Lexer.at_eof lx then { label; actor = None; args = [] }
    else begin
      Lexer.expect lx Lexer.Lparen ~what:"(";
      let rec collect acc =
        let t = Term.parse_term lx in
        match Lexer.next lx with
        | Lexer.Comma -> collect (t :: acc)
        | Lexer.Rparen -> List.rev (t :: acc)
        | _ -> raise (Lexer.Error ("expected ',' or ')'", 0))
      in
      let all = collect [] in
      match all with
      | first :: rest when looks_like_agent first ->
        let actor =
          match first with
          | Term.Sym name -> Agent.of_string name
          | _ -> assert false
        in
        { label; actor = Some actor; args = rest }
      | args -> { label; actor = None; args }
    end
  with
  | action ->
    if Lexer.at_eof lx then Ok action
    else Error (Printf.sprintf "trailing input in action %S" s)
  | exception Lexer.Error (msg, pos) ->
    Error (Printf.sprintf "parse error in action %S at %d: %s" s pos msg)

let of_string_exn s =
  match of_string s with Ok a -> a | Error msg -> invalid_arg msg

module Set = Set.Make (struct
  type nonrec t = t

  let compare = compare
end)

module Map = Map.Make (struct
  type nonrec t = t

  let compare = compare
end)
