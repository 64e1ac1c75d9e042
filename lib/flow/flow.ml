(* Static information-flow analysis: the guard-refined def-use graph of
   an APA, taint reachability over it, and the security analyses behind
   the FSA060-FSA069 diagnostics.

   Everything is deterministic: rules and components keep their APA
   declaration order, edge and kill lists are sorted by (source index,
   target index, component), reachability is a memoized DFS in index
   order. *)

module Term = Fsa_term.Term
module Apa = Fsa_apa.Apa
module Span = Fsa_obs.Span
module Metrics = Fsa_obs.Metrics

type attribution = {
  at_instance : string -> string option;
  at_guard_vars : string -> string list option;
}

let heuristic_attribution =
  { at_instance =
      (fun r ->
        match String.index_opt r '_' with
        | Some i when i > 0 -> Some (String.sub r 0 i)
        | _ -> None);
    at_guard_vars = (fun _ -> None) }

type edge = {
  e_src : string;
  e_dst : string;
  e_component : string;
  e_consume : bool;
  e_cross : bool;
  e_unguarded : bool;
}

type kill = {
  k_src : string;
  k_dst : string;
  k_component : string;
  k_bindings : (string * Term.t) list;
}

type info = {
  i_rule : Apa.rule;
  i_instance : string option;
  i_guard_vars : string list option;
}

type t = {
  g_rules : string array;
  g_infos : info array;
  g_index : (string, int) Hashtbl.t;
  g_components : string list;
  g_edges : edge list;
  g_kills : kill list;
  g_adj : int list array;  (* guard-refined successors *)
  g_skel_adj : int list array;  (* unrefined skeleton successors *)
  g_shared : string list;
  g_protected : string list;
  g_entries : string list;
  g_outputs : string list;
  g_memo : (int, bool array) Hashtbl.t;
  g_skel_memo : (int, bool array) Hashtbl.t;
}

(* Would the consumer's guard reject every token this (put, take) pair
   can deliver?  Sound only when the unifier binds every variable the
   guard inspects to a ground term: a most general unifier factors every
   concrete producer/consumer match, so a ground binding is forced in
   all of them, and a guard that is [false] on the forced bindings is
   [false] on every instance.  Anything uncertain — unknown guard
   variables, partial bindings, a guard that raises — keeps the edge. *)
let guard_kills info sub pat =
  let r = info.i_rule in
  if r.Apa.r_trivial_guard then None
  else
    match info.i_guard_vars with
    | None -> None
    | Some gvs ->
      let bound =
        List.fold_left
          (fun acc v ->
            let t = Term.Subst.apply sub (Term.Var ("s" ^ v)) in
            if Term.is_ground t then (v, t) :: acc else acc)
          []
          (Term.String_set.elements (Term.vars pat))
      in
      if not (List.for_all (fun v -> List.mem_assoc v bound) gvs) then None
      else
        let subst =
          List.fold_left
            (fun s (v, t) ->
              match Term.Subst.add v t s with Some s -> s | None -> s)
            Term.Subst.empty bound
        in
        let rejected = try not (r.Apa.r_guard subst) with _ -> false in
        if rejected then
          Some
            (List.sort
               (fun (a, _) (b, _) -> String.compare a b)
               (List.filter (fun (v, _) -> List.mem v gvs) bound))
        else None

let protected_needles =
  [ "key"; "secret"; "priv"; "credential"; "token"; "passw" ]

let looks_protected name =
  let lower = String.lowercase_ascii name in
  let contains needle =
    let nl = String.length needle and l = String.length lower in
    let rec go i = i + nl <= l && (String.sub lower i nl = needle || go (i + 1)) in
    go 0
  in
  List.exists contains protected_needles

let build ?(attribution = heuristic_attribution) apa =
  Span.with_ ~cat:"flow" "flow.build" @@ fun () ->
  let rules = Array.of_list (Apa.rules apa) in
  let n = Array.length rules in
  let names = Array.map Apa.rule_name rules in
  let index = Hashtbl.create (2 * n) in
  Array.iteri (fun i r -> Hashtbl.replace index r i) names;
  let infos =
    Array.map
      (fun r ->
        { i_rule = r;
          i_instance = attribution.at_instance r.Apa.r_name;
          i_guard_vars = attribution.at_guard_vars r.Apa.r_name })
      rules
  in
  let adj = Array.make n [] and skel_adj = Array.make n [] in
  let edges = ref [] and kills = ref [] in
  for i = 0 to n - 1 do
    let src = rules.(i) in
    for j = 0 to n - 1 do
      let dst = rules.(j) in
      (* per shared component: surviving (consume?) pairs and killed
         pairs with their forcing bindings *)
      let surviving = ref [] and killed = ref [] and any = ref false in
      List.iter
        (fun (p : Apa.put) ->
          List.iter
            (fun (tk : Apa.take) ->
              if String.equal p.Apa.p_component tk.Apa.t_component then
                match
                  Term.unify
                    (Term.rename "p" p.Apa.p_template)
                    (Term.rename "s" tk.Apa.t_pattern)
                with
                | None -> ()
                | Some sub -> (
                  any := true;
                  match guard_kills infos.(j) sub tk.Apa.t_pattern with
                  | Some bindings ->
                    killed := (p.Apa.p_component, bindings) :: !killed
                  | None ->
                    surviving :=
                      (p.Apa.p_component, tk.Apa.t_consume) :: !surviving))
            dst.Apa.r_takes)
        src.Apa.r_puts;
      let surviving = List.rev !surviving and killed = List.rev !killed in
      if !any then skel_adj.(i) <- j :: skel_adj.(i);
      if surviving <> [] then adj.(i) <- j :: adj.(i);
      let cross =
        match (infos.(i).i_instance, infos.(j).i_instance) with
        | Some a, Some b -> not (String.equal a b)
        | _ -> false
      in
      let components =
        List.sort_uniq String.compare (List.map fst surviving)
      in
      List.iter
        (fun c ->
          edges :=
            { e_src = names.(i);
              e_dst = names.(j);
              e_component = c;
              e_consume =
                List.exists
                  (fun (c', cons) -> String.equal c c' && cons)
                  surviving;
              e_cross = cross;
              e_unguarded = dst.Apa.r_trivial_guard }
            :: !edges)
        components;
      let killed_components =
        List.sort_uniq String.compare (List.map fst killed)
      in
      List.iter
        (fun c ->
          kills :=
            { k_src = names.(i);
              k_dst = names.(j);
              k_component = c;
              k_bindings =
                List.assoc c killed (* first kill on this component *) }
            :: !kills)
        killed_components
    done
  done;
  Array.iteri (fun i l -> adj.(i) <- List.rev l) adj;
  Array.iteri (fun i l -> skel_adj.(i) <- List.rev l) skel_adj;
  let touching c =
    Array.to_list infos
    |> List.filter (fun info ->
           List.exists
             (fun (tk : Apa.take) -> String.equal tk.Apa.t_component c)
             info.i_rule.Apa.r_takes
           || List.exists
                (fun (p : Apa.put) -> String.equal p.Apa.p_component c)
                info.i_rule.Apa.r_puts)
  in
  let components = List.map fst (Apa.components apa) in
  let shared =
    List.filter
      (fun c ->
        let instances =
          List.sort_uniq String.compare
            (List.filter_map (fun info -> info.i_instance) (touching c))
        in
        List.length instances >= 2)
      components
    |> List.sort String.compare
  in
  let protected_ =
    List.filter looks_protected components |> List.sort String.compare
  in
  let initial = Apa.initial_state apa in
  let entries =
    Array.to_list infos
    |> List.filter (fun info ->
           List.for_all
             (fun (tk : Apa.take) ->
               Term.Set.exists
                 (fun t ->
                   Option.is_some
                     (Term.match_ ~pattern:tk.Apa.t_pattern ~target:t))
                 (Apa.State.get tk.Apa.t_component initial))
             info.i_rule.Apa.r_takes)
    |> List.map (fun info -> info.i_rule.Apa.r_name)
  in
  let consumed_components =
    Array.to_list rules
    |> List.concat_map (fun r ->
           List.map (fun (tk : Apa.take) -> tk.Apa.t_component) r.Apa.r_takes)
    |> List.sort_uniq String.compare
  in
  let outputs =
    Array.to_list rules
    |> List.filter (fun r ->
           List.for_all
             (fun (p : Apa.put) ->
               not (List.mem p.Apa.p_component consumed_components))
             r.Apa.r_puts)
    |> List.map (fun r -> r.Apa.r_name)
  in
  { g_rules = names;
    g_infos = infos;
    g_index = index;
    g_components = components;
    g_edges = List.rev !edges;
    g_kills = List.rev !kills;
    g_adj = adj;
    g_skel_adj = skel_adj;
    g_shared = shared;
    g_protected = protected_;
    g_entries = entries;
    g_outputs = outputs;
    g_memo = Hashtbl.create 16;
    g_skel_memo = Hashtbl.create 16 }

let rules g = Array.to_list g.g_rules
let components g = g.g_components
let edges g = g.g_edges
let kills g = g.g_kills

let instance_of g r =
  match Hashtbl.find_opt g.g_index r with
  | None -> None
  | Some i -> g.g_infos.(i).i_instance

let guarded g r =
  match Hashtbl.find_opt g.g_index r with
  | None -> false
  | Some i -> not g.g_infos.(i).i_rule.Apa.r_trivial_guard

let shared_channels g = g.g_shared
let protected_components g = g.g_protected
let entry_rules g = g.g_entries
let output_rules g = g.g_outputs

let reachable adj i =
  let n = Array.length adj in
  let seen = Array.make n false in
  let rec go i =
    if not seen.(i) then begin
      seen.(i) <- true;
      List.iter go adj.(i)
    end
  in
  go i;
  seen

let reach_set memo adj i =
  match Hashtbl.find_opt memo i with
  | Some seen -> seen
  | None ->
    let seen = reachable adj i in
    Hashtbl.replace memo i seen;
    seen

let reaches g src dst =
  match (Hashtbl.find_opt g.g_index src, Hashtbl.find_opt g.g_index dst) with
  | Some i, Some j -> (reach_set g.g_memo g.g_adj i).(j)
  | _ -> true

let independent g ~min ~max =
  match (Hashtbl.find_opt g.g_index min, Hashtbl.find_opt g.g_index max) with
  | Some i, Some j -> not (reach_set g.g_memo g.g_adj i).(j)
  | _ -> false

let count_independent memo adj n =
  let count = ref 0 in
  for i = 0 to n - 1 do
    let seen = reach_set memo adj i in
    for j = 0 to n - 1 do
      if i <> j && not seen.(j) then incr count
    done
  done;
  !count

let independent_pairs g =
  count_independent g.g_memo g.g_adj (Array.length g.g_rules)

let skeleton_independent_pairs g =
  count_independent g.g_skel_memo g.g_skel_adj (Array.length g.g_rules)

let rule_pairs g =
  let n = Array.length g.g_rules in
  n * (n - 1)

(* ------------------------------------------------------------------ *)
(* Security analyses                                                   *)
(* ------------------------------------------------------------------ *)

type leak = {
  lk_source : string;
  lk_channel : string;
  lk_rules : string list;
}

let takes_component g i c =
  List.exists
    (fun (tk : Apa.take) -> String.equal tk.Apa.t_component c)
    g.g_infos.(i).i_rule.Apa.r_takes

let puts_component g i c =
  List.exists
    (fun (p : Apa.put) -> String.equal p.Apa.p_component c)
    g.g_infos.(i).i_rule.Apa.r_puts

(* Shortest rule path from a reader of [src] to a writer of [channel]
   in the refined graph, by multi-source BFS in index order. *)
let leak_path g ~src ~channel =
  let n = Array.length g.g_rules in
  let parent = Array.make n (-2) in
  let queue = Queue.create () in
  let hit = ref None in
  for i = 0 to n - 1 do
    if !hit = None && takes_component g i src then begin
      parent.(i) <- -1;
      if puts_component g i channel then hit := Some i
      else Queue.add i queue
    end
  done;
  while !hit = None && not (Queue.is_empty queue) do
    let i = Queue.pop queue in
    List.iter
      (fun j ->
        if !hit = None && parent.(j) = -2 then begin
          parent.(j) <- i;
          if puts_component g j channel then hit := Some j
          else Queue.add j queue
        end)
      g.g_adj.(i)
  done;
  match !hit with
  | None -> None
  | Some last ->
    let rec unwind acc i =
      if parent.(i) = -1 then g.g_rules.(i) :: acc
      else unwind (g.g_rules.(i) :: acc) parent.(i)
    in
    Some (unwind [] last)

let leaks g =
  List.concat_map
    (fun src ->
      if List.mem src g.g_shared then
        [ { lk_source = src; lk_channel = src; lk_rules = [] } ]
      else
        List.filter_map
          (fun channel ->
            match leak_path g ~src ~channel with
            | None -> None
            | Some path ->
              Some { lk_source = src; lk_channel = channel; lk_rules = path })
          g.g_shared)
    g.g_protected

let unsanitized g =
  List.filter (fun e -> e.e_cross && e.e_unguarded) g.g_edges

let dead_sources g =
  if g.g_outputs = [] then []
  else
    List.filter
      (fun entry ->
        not (List.exists (fun out -> reaches g entry out) g.g_outputs))
      g.g_entries

(* Tarjan's SCC algorithm, iterative-enough for our rule counts.  A
   cycle is a non-trivial SCC or a self-loop; it is reported when every
   rule on it is unguarded. *)
let unguarded_cycles g =
  let n = Array.length g.g_rules in
  let indexv = Array.make n (-1)
  and low = Array.make n 0
  and on_stack = Array.make n false in
  let stack = ref [] and counter = ref 0 and sccs = ref [] in
  let rec strongconnect v =
    indexv.(v) <- !counter;
    low.(v) <- !counter;
    incr counter;
    stack := v :: !stack;
    on_stack.(v) <- true;
    List.iter
      (fun w ->
        if indexv.(w) = -1 then begin
          strongconnect w;
          low.(v) <- min low.(v) low.(w)
        end
        else if on_stack.(w) then low.(v) <- min low.(v) indexv.(w))
      g.g_adj.(v);
    if low.(v) = indexv.(v) then begin
      let rec pop acc =
        match !stack with
        | [] -> acc
        | w :: rest ->
          stack := rest;
          on_stack.(w) <- false;
          if w = v then w :: acc else pop (w :: acc)
      in
      sccs := pop [] :: !sccs
    end
  in
  for v = 0 to n - 1 do
    if indexv.(v) = -1 then strongconnect v
  done;
  List.rev !sccs
  |> List.filter (fun scc ->
         match scc with
         | [ v ] -> List.mem v g.g_adj.(v)
         | _ :: _ :: _ -> true
         | [] -> false)
  |> List.filter (fun scc ->
         List.for_all
           (fun v -> g.g_infos.(v).i_rule.Apa.r_trivial_guard)
           scc)
  |> List.map (fun scc ->
         List.sort String.compare (List.map (fun v -> g.g_rules.(v)) scc))
  |> List.sort compare

(* ------------------------------------------------------------------ *)
(* Report                                                              *)
(* ------------------------------------------------------------------ *)

type report = {
  r_rules : string list;
  r_components : string list;
  r_edges : edge list;
  r_kills : kill list;
  r_shared : string list;
  r_protected : string list;
  r_entries : string list;
  r_outputs : string list;
  r_leaks : leak list;
  r_unsanitized : edge list;
  r_dead : string list;
  r_cycles : string list list;
  r_independent_pairs : int;
  r_skeleton_independent_pairs : int;
  r_rule_pairs : int;
}

let analyse g =
  Span.with_ ~cat:"flow" "flow.analyse" @@ fun () ->
  { r_rules = rules g;
    r_components = g.g_components;
    r_edges = g.g_edges;
    r_kills = g.g_kills;
    r_shared = g.g_shared;
    r_protected = g.g_protected;
    r_entries = g.g_entries;
    r_outputs = g.g_outputs;
    r_leaks = leaks g;
    r_unsanitized = unsanitized g;
    r_dead = dead_sources g;
    r_cycles = unguarded_cycles g;
    r_independent_pairs = independent_pairs g;
    r_skeleton_independent_pairs = skeleton_independent_pairs g;
    r_rule_pairs = rule_pairs g }

let pp_edge ppf e =
  Fmt.pf ppf "%s -(%s%s)-> %s%s%s" e.e_src e.e_component
    (if e.e_consume then "" else ", read")
    e.e_dst
    (if e.e_cross then " [cross-instance]" else "")
    (if e.e_unguarded then " [unguarded]" else "")

let pp_bindings ppf bs =
  Fmt.pf ppf "%a"
    Fmt.(list ~sep:comma (fun ppf (v, t) -> Fmt.pf ppf "%s = %a" v Term.pp t))
    bs

let pp_report ppf r =
  Fmt.pf ppf "rules: %d, components: %d@\n" (List.length r.r_rules)
    (List.length r.r_components);
  Fmt.pf ppf "flow edges (%d):@\n" (List.length r.r_edges);
  List.iter (fun e -> Fmt.pf ppf "  %a@\n" pp_edge e) r.r_edges;
  Fmt.pf ppf "guard-killed edges (%d):@\n" (List.length r.r_kills);
  List.iter
    (fun k ->
      Fmt.pf ppf "  %s -(%s)-> %s killed by guard on %a@\n" k.k_src
        k.k_component k.k_dst pp_bindings k.k_bindings)
    r.r_kills;
  Fmt.pf ppf "cross-instance channels: %s@\n"
    (String.concat ", " r.r_shared);
  Fmt.pf ppf "protected components: %s@\n" (String.concat ", " r.r_protected);
  Fmt.pf ppf "entry rules: %s@\n" (String.concat ", " r.r_entries);
  Fmt.pf ppf "output rules: %s@\n" (String.concat ", " r.r_outputs);
  List.iter
    (fun l ->
      Fmt.pf ppf "leak: %s -> %s via %s@\n" l.lk_source l.lk_channel
        (if l.lk_rules = [] then "(shared channel itself)"
         else String.concat " -> " l.lk_rules))
    r.r_leaks;
  List.iter
    (fun e -> Fmt.pf ppf "unsanitized cross-instance flow: %a@\n" pp_edge e)
    r.r_unsanitized;
  List.iter
    (fun rl -> Fmt.pf ppf "dead attack surface: %s@\n" rl)
    r.r_dead;
  List.iter
    (fun c ->
      Fmt.pf ppf "unguarded flow cycle: %s@\n" (String.concat " -> " c))
    r.r_cycles;
  Fmt.pf ppf
    "flow-independent rule pairs: %d/%d (skeleton baseline: %d)"
    r.r_independent_pairs r.r_rule_pairs r.r_skeleton_independent_pairs

let report_to_json r =
  let buf = Buffer.create 1024 in
  let str s =
    Buffer.add_char buf '"';
    Metrics.json_escape buf s;
    Buffer.add_char buf '"'
  in
  let str_list l =
    Buffer.add_char buf '[';
    List.iteri
      (fun i s ->
        if i > 0 then Buffer.add_string buf ", ";
        str s)
      l;
    Buffer.add_char buf ']'
  in
  let edge_list l =
    Buffer.add_char buf '[';
    List.iteri
      (fun i e ->
        if i > 0 then Buffer.add_string buf ", ";
        Buffer.add_string buf "{\"src\": ";
        str e.e_src;
        Buffer.add_string buf ", \"dst\": ";
        str e.e_dst;
        Buffer.add_string buf ", \"component\": ";
        str e.e_component;
        Buffer.add_string buf
          (Printf.sprintf ", \"consume\": %b, \"cross\": %b, \"unguarded\": %b}"
             e.e_consume e.e_cross e.e_unguarded))
      l;
    Buffer.add_char buf ']'
  in
  Buffer.add_string buf "{\n  \"rules\": ";
  str_list r.r_rules;
  Buffer.add_string buf ",\n  \"components\": ";
  str_list r.r_components;
  Buffer.add_string buf ",\n  \"edges\": ";
  edge_list r.r_edges;
  Buffer.add_string buf ",\n  \"kills\": [";
  List.iteri
    (fun i k ->
      if i > 0 then Buffer.add_string buf ", ";
      Buffer.add_string buf "{\"src\": ";
      str k.k_src;
      Buffer.add_string buf ", \"dst\": ";
      str k.k_dst;
      Buffer.add_string buf ", \"component\": ";
      str k.k_component;
      Buffer.add_string buf ", \"bindings\": [";
      List.iteri
        (fun j (v, t) ->
          if j > 0 then Buffer.add_string buf ", ";
          Buffer.add_string buf "{\"var\": ";
          str v;
          Buffer.add_string buf ", \"term\": ";
          str (Term.to_string t);
          Buffer.add_char buf '}')
        k.k_bindings;
      Buffer.add_string buf "]}")
    r.r_kills;
  Buffer.add_string buf "]";
  Buffer.add_string buf ",\n  \"channels\": ";
  str_list r.r_shared;
  Buffer.add_string buf ",\n  \"protected\": ";
  str_list r.r_protected;
  Buffer.add_string buf ",\n  \"entries\": ";
  str_list r.r_entries;
  Buffer.add_string buf ",\n  \"outputs\": ";
  str_list r.r_outputs;
  Buffer.add_string buf ",\n  \"leaks\": [";
  List.iteri
    (fun i l ->
      if i > 0 then Buffer.add_string buf ", ";
      Buffer.add_string buf "{\"source\": ";
      str l.lk_source;
      Buffer.add_string buf ", \"channel\": ";
      str l.lk_channel;
      Buffer.add_string buf ", \"path\": ";
      str_list l.lk_rules;
      Buffer.add_char buf '}')
    r.r_leaks;
  Buffer.add_string buf "]";
  Buffer.add_string buf ",\n  \"unsanitized\": ";
  edge_list r.r_unsanitized;
  Buffer.add_string buf ",\n  \"dead_sources\": ";
  str_list r.r_dead;
  Buffer.add_string buf ",\n  \"unguarded_cycles\": [";
  List.iteri
    (fun i c ->
      if i > 0 then Buffer.add_string buf ", ";
      str_list c)
    r.r_cycles;
  Buffer.add_string buf "]";
  Buffer.add_string buf
    (Printf.sprintf
       ",\n  \"independent_pairs\": %d,\n  \"skeleton_independent_pairs\": \
        %d,\n  \"rule_pairs\": %d\n}\n"
       r.r_independent_pairs r.r_skeleton_independent_pairs r.r_rule_pairs);
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* DOT                                                                 *)
(* ------------------------------------------------------------------ *)

let dot_escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      if c = '"' || c = '\\' then Buffer.add_char buf '\\';
      Buffer.add_char buf c)
    s;
  Buffer.contents buf

let to_dot g =
  let buf = Buffer.create 1024 in
  let pr fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  pr "digraph flow {\n  rankdir=LR;\n";
  List.iter
    (fun c ->
      let shared = List.mem c g.g_shared in
      let protected_ = List.mem c g.g_protected in
      pr "  \"c:%s\" [label=\"%s\", shape=%s%s];\n" (dot_escape c)
        (dot_escape c)
        (if shared then "doubleoctagon" else "box")
        (if protected_ then ", style=filled, fillcolor=lightpink" else ""))
    g.g_components;
  Array.iteri
    (fun i r ->
      pr "  \"r:%s\" [label=\"%s\", shape=ellipse%s];\n" (dot_escape r)
        (dot_escape r)
        (if not g.g_infos.(i).i_rule.Apa.r_trivial_guard then
           ", peripheries=2"
         else ""))
    g.g_rules;
  Array.iter
    (fun (info : info) ->
      let r = info.i_rule in
      List.iter
        (fun (tk : Apa.take) ->
          pr "  \"c:%s\" -> \"r:%s\"%s;\n"
            (dot_escape tk.Apa.t_component)
            (dot_escape r.Apa.r_name)
            (if tk.Apa.t_consume then "" else " [style=dashed]"))
        r.Apa.r_takes;
      List.iter
        (fun (p : Apa.put) ->
          pr "  \"r:%s\" -> \"c:%s\";\n" (dot_escape r.Apa.r_name)
            (dot_escape p.Apa.p_component))
        r.Apa.r_puts)
    g.g_infos;
  List.iter
    (fun k ->
      pr
        "  \"r:%s\" -> \"r:%s\" [style=dotted, color=red, label=\"%s \
         (killed)\"];\n"
        (dot_escape k.k_src) (dot_escape k.k_dst) (dot_escape k.k_component))
    g.g_kills;
  pr "}\n";
  Buffer.contents buf
