(* First-order data terms: the information items flowing through a system of
   systems, e.g. [cam(pos1)], [sW], [warn(pos2)].  Variables stand for yet
   unknown data (used by pattern matching in APA rules and by requirement
   generalisation). *)

module String_map = Map.Make (String)
module String_set = Set.Make (String)

type t =
  | Sym of string
  | Int of int
  | Var of string
  | App of string * t list

(* Interned terms (below) make physically-equal representatives common on
   the exploration hot path, so every comparison starts with a pointer
   check before falling back to the structural walk. *)
let rec compare a b =
  if a == b then 0
  else
  match a, b with
  | Sym x, Sym y -> String.compare x y
  | Sym _, _ -> -1
  | _, Sym _ -> 1
  | Int x, Int y -> Stdlib.compare x y
  | Int _, _ -> -1
  | _, Int _ -> 1
  | Var x, Var y -> String.compare x y
  | Var _, _ -> -1
  | _, Var _ -> 1
  | App (f, xs), App (g, ys) ->
    let c = String.compare f g in
    if c <> 0 then c else compare_list xs ys

and compare_list xs ys =
  match xs, ys with
  | [], [] -> 0
  | [], _ :: _ -> -1
  | _ :: _, [] -> 1
  | x :: xs', y :: ys' ->
    let c = compare x y in
    if c <> 0 then c else compare_list xs' ys'

let equal a b = a == b || compare a b = 0

(* Deliberately break-free: printed terms serve as stable identifiers
   (DOT node ids, test expectations). *)
let rec pp ppf = function
  | Sym s -> Fmt.string ppf s
  | Int i -> Fmt.int ppf i
  | Var v -> Fmt.pf ppf "?%s" v
  | App (f, args) -> Fmt.pf ppf "%s(%a)" f Fmt.(list ~sep:(any ", ") pp) args

let to_string t = Fmt.str "%a" pp t

let sym s = Sym s
let int i = Int i
let var v = Var v

let app f args = if args = [] then Sym f else App (f, args)

(* A cheap structural hash; collision-tolerant users pair it with
   [equal]. *)
let rec hash = function
  | Sym s -> 0x531 * Hashtbl.hash s
  | Int i -> 0x9e5 * (i + 1)
  | Var v -> 0x2cb * Hashtbl.hash v
  | App (f, args) ->
    List.fold_left
      (fun acc a -> (acc * 31) + hash a)
      (0x7f1 * Hashtbl.hash f)
      args
    land max_int

(* Hash-consing.  [intern t] returns a canonical representative of [t]
   whose subterms are themselves canonical, so that repeatedly produced
   terms (the same message flowing through the same rule on every path of
   the exploration) become physically equal and the [==] fast paths in
   [compare]/[equal] fire.  Pools are per-domain (no locking): two domains
   may intern the same term into distinct representatives, which costs the
   fast path across domains but never affects correctness — [equal] falls
   back to the structural walk. *)
module Pool = Hashtbl.Make (struct
  type nonrec t = t

  let equal = equal
  let hash = hash
end)

let pool_key = Domain.DLS.new_key (fun () -> Pool.create 1024)

let rec intern t =
  let pool = Domain.DLS.get pool_key in
  match Pool.find_opt pool t with
  | Some u -> u
  | None ->
    let u =
      match t with
      | Sym _ | Int _ | Var _ -> t
      | App (f, args) ->
        let args' = List.map intern args in
        if List.for_all2 ( == ) args args' then t else App (f, args')
    in
    Pool.replace pool u u;
    u

let rec vars = function
  | Sym _ | Int _ -> String_set.empty
  | Var v -> String_set.singleton v
  | App (_, args) ->
    List.fold_left
      (fun acc a -> String_set.union acc (vars a))
      String_set.empty args

let is_ground t = String_set.is_empty (vars t)

let rec size = function
  | Sym _ | Int _ | Var _ -> 1
  | App (_, args) -> List.fold_left (fun acc a -> acc + size a) 1 args

let rec map_vars f = function
  | (Sym _ | Int _) as t -> t
  | Var v as t -> ( match f v with Some u -> u | None -> t)
  | App (g, args) -> App (g, List.map (map_vars f) args)

let rename prefix t = map_vars (fun v -> Some (Var (prefix ^ v))) t

(* Substitutions: finite maps from variable names to terms. *)
module Subst = struct
  type term = t

  type nonrec t = t String_map.t

  let empty = String_map.empty
  let singleton v t = String_map.singleton v t
  let find v s = String_map.find_opt v s
  let bindings s = String_map.bindings s
  let is_empty = String_map.is_empty

  let add v t s =
    match String_map.find_opt v s with
    | None -> Some (String_map.add v t s)
    | Some t' -> if equal t t' then Some s else None

  let apply s t = map_vars (fun v -> String_map.find_opt v s) t

  (* Merge two substitutions; [None] on conflicting bindings. *)
  let merge s1 s2 =
    String_map.fold
      (fun v t acc ->
        match acc with None -> None | Some s -> add v t s)
      s2 (Some s1)

  let pp ppf s =
    let pp_binding ppf (v, t) = Fmt.pf ppf "%s := %a" v pp t in
    Fmt.pf ppf "{%a}" Fmt.(list ~sep:semi pp_binding) (bindings s)
end

(* One-way pattern matching: extend [sub] to a substitution [s] such that
   [Subst.apply s pattern = target].  The target must be ground for the
   result to be a true matcher, but we do not enforce this.  Extending in
   place gives the same result as [Subst.merge sub (match_ ...)] without
   building the intermediate substitution. *)
let match_in sub ~pattern ~target =
  let rec go s pattern target =
    match s with
    | None -> None
    | Some sub -> (
      match pattern, target with
      | Var v, t -> Subst.add v t sub
      | Sym a, Sym b -> if String.equal a b then s else None
      | Int a, Int b -> if a = b then s else None
      | App (f, xs), App (g, ys) ->
        if String.equal f g && List.length xs = List.length ys then
          List.fold_left2 go s xs ys
        else None
      | (Sym _ | Int _ | App _), _ -> None)
  in
  go (Some sub) pattern target

let match_ ~pattern ~target = match_in Subst.empty ~pattern ~target

(* Syntactic unification (no occurs-check shortcuts taken: terms are small). *)
let unify a b =
  let rec occurs v = function
    | Var w -> String.equal v w
    | Sym _ | Int _ -> false
    | App (_, args) -> List.exists (occurs v) args
  in
  let rec go s a b =
    match s with
    | None -> None
    | Some sub -> (
      let a = Subst.apply sub a and b = Subst.apply sub b in
      match a, b with
      | Var v, t | t, Var v ->
        if equal (Var v) t then s
        else if occurs v t then None
        else
          (* apply the new binding to the existing range *)
          let sub = String_map.map (map_vars (fun w ->
            if String.equal w v then Some t else None)) sub in
          Subst.add v t sub
      | Sym x, Sym y -> if String.equal x y then s else None
      | Int x, Int y -> if x = y then s else None
      | App (f, xs), App (g, ys) ->
        if String.equal f g && List.length xs = List.length ys then
          List.fold_left2 go s xs ys
        else None
      | (Sym _ | Int _ | App _), _ -> None)
  in
  go (Some Subst.empty) a b

(* Parsing.  Grammar: term := ident [ '(' term {',' term} ')' ] | int
   An identifier starting with a capital letter stays a symbol; variables are
   written with a leading '?' in output but parsed from a leading underscore
   or from the dedicated [var] constructor — in textual input we treat
   single lowercase identifiers as symbols and identifiers prefixed with '_'
   as variables, which keeps the paper's notation unchanged. *)
let parse_term lx =
  let rec term () =
    match Lexer.next lx with
    | Lexer.Int i -> Int i
    | Lexer.Ident id ->
      if Lexer.peek lx = Lexer.Lparen then (
        Lexer.expect lx Lexer.Lparen ~what:"(";
        let args = args [] in
        App (id, args))
      else if String.length id > 1 && id.[0] = '_' then
        Var (String.sub id 1 (String.length id - 1))
      else Sym id
    | _ -> raise (Lexer.Error ("expected a term", 0))
  and args acc =
    let a = term () in
    match Lexer.next lx with
    | Lexer.Comma -> args (a :: acc)
    | Lexer.Rparen -> List.rev (a :: acc)
    | _ -> raise (Lexer.Error ("expected ',' or ')'", 0))
  in
  term ()

let of_string s =
  let lx = Lexer.make s in
  match parse_term lx with
  | t ->
    if Lexer.at_eof lx then Ok t
    else Error (Printf.sprintf "trailing input in term %S" s)
  | exception Lexer.Error (msg, pos) ->
    Error (Printf.sprintf "parse error in term %S at %d: %s" s pos msg)

let of_string_exn s =
  match of_string s with Ok t -> t | Error msg -> invalid_arg msg

module Set = Set.Make (struct
  type nonrec t = t

  let compare = compare
end)

module Map = Map.Make (struct
  type nonrec t = t

  let compare = compare
end)
