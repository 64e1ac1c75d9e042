(* The map-based explorer that the compact-state exploration core
   replaced, kept as a test oracle.  States map component names to term
   sets; every rule is re-matched in every state by unification, take by
   take; the state table hashes and compares whole maps.  Slow, but
   simple enough to trust: {!Fsa_lts.Lts.explore} must produce the same
   states, in the same order, with the same transitions. *)

module Term = Fsa_term.Term
module Action = Fsa_term.Action
module Apa = Fsa_apa.Apa
module Smap = Map.Make (String)

module State = struct
  type t = Term.Set.t Smap.t

  let get name s =
    match Smap.find_opt name s with Some set -> set | None -> Term.Set.empty

  let set name v s = Smap.add name v s
  let add_elt name e s = set name (Term.Set.add e (get name s)) s
  let remove_elt name e s = set name (Term.Set.remove e (get name s)) s
  let compare = Smap.compare Term.Set.compare

  let hash s =
    Smap.fold
      (fun name set acc ->
        let h =
          Term.Set.fold (fun t acc -> acc + Term.hash t) set (Hashtbl.hash name)
        in
        ((acc * 31) + h) land max_int)
      s 17

  (* The printed form of {!Apa.State.pp}. *)
  let pp ppf s =
    let pp_comp ppf (name, set) =
      Fmt.pf ppf "%s = {%a}" name
        Fmt.(list ~sep:comma Term.pp)
        (Term.Set.elements set)
    in
    Fmt.pf ppf "@[<v>%a@]" Fmt.(list ~sep:cut pp_comp) (Smap.bindings s)

  let to_string s = Fmt.str "%a" pp s
end

module Table = Hashtbl.Make (struct
  type t = State.t

  let equal a b = State.compare a b = 0
  let hash = State.hash
end)

let initial apa =
  List.fold_left
    (fun s (c, init) -> State.set c init s)
    Smap.empty (Apa.components apa)

type binding = { subst : Term.Subst.t; consumed : (string * Term.t) list }

(* Extend every binding by one matched element per take, folding each
   component's set in [Term.compare] order.  Distinct consuming takes of
   one component must match distinct elements. *)
let match_takes state takes =
  let step acc tk =
    List.concat_map
      (fun b ->
        Term.Set.fold
          (fun elt acc' ->
            let already_consumed =
              List.exists
                (fun (c, e) ->
                  String.equal c tk.Apa.t_component && Term.equal e elt)
                b.consumed
            in
            if tk.Apa.t_consume && already_consumed then acc'
            else
              match Term.match_ ~pattern:tk.Apa.t_pattern ~target:elt with
              | None -> acc'
              | Some s -> (
                match Term.Subst.merge b.subst s with
                | None -> acc'
                | Some subst ->
                  let consumed =
                    if tk.Apa.t_consume then
                      (tk.Apa.t_component, elt) :: b.consumed
                    else b.consumed
                  in
                  { subst; consumed } :: acc'))
          (State.get tk.Apa.t_component state)
          [])
      acc
  in
  List.fold_left step [ { subst = Term.Subst.empty; consumed = [] } ] takes

let apply rule state b =
  let state =
    List.fold_left (fun s (c, e) -> State.remove_elt c e s) state b.consumed
  in
  List.fold_left
    (fun s p ->
      State.add_elt p.Apa.p_component
        (Term.Subst.apply b.subst p.Apa.p_template)
        s)
    state rule.Apa.r_puts

let step apa state =
  List.concat_map
    (fun r ->
      match_takes state r.Apa.r_takes
      |> List.filter (fun b -> r.Apa.r_guard b.subst)
      |> List.map (fun b -> (r.Apa.r_label b.subst, apply r state b)))
    (Apa.rules apa)

type lts = {
  states : State.t array;  (* in breadth-first discovery order *)
  transitions : (int * Action.t * int) list;
      (* sorted by source, label, then target *)
}

let explore apa =
  let index = Table.create 1024 in
  let queue = Queue.create () in
  let states = ref [] and edges = ref [] and nb = ref 0 in
  let intern s =
    match Table.find_opt index s with
    | Some id -> id
    | None ->
      let id = !nb in
      incr nb;
      Table.replace index s id;
      states := s :: !states;
      Queue.add (id, s) queue;
      id
  in
  ignore (intern (initial apa));
  while not (Queue.is_empty queue) do
    let src, s = Queue.pop queue in
    List.iter
      (fun (label, dst) -> edges := (src, label, intern dst) :: !edges)
      (step apa s)
  done;
  let order (s1, l1, d1) (s2, l2, d2) =
    let c = Int.compare s1 s2 in
    if c <> 0 then c
    else
      let c = Action.compare l1 l2 in
      if c <> 0 then c else Int.compare d1 d2
  in
  { states = Array.of_list (List.rev !states);
    transitions = List.sort order !edges }
