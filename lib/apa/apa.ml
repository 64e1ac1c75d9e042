(* Asynchronous Product Automata (Definition 2 of the paper).

   An APA consists of a family of state components (sets of data terms), a
   family of elementary automata communicating via shared state components,
   and a neighbourhood relation assigning to each elementary automaton the
   state components it may read and write.

   Elementary automata are specified as rules in a guarded
   consume/read/produce style (the style of the paper's state transition
   relations, e.g. Delta_send): a rule pattern-matches elements of its
   neighbourhood components, binds variables, checks a guard and produces
   new elements.  For each interpretation (variable binding) the rule
   defines one state transition; the transition label is the corresponding
   action. *)

module Term = Fsa_term.Term
module Action = Fsa_term.Action
module Smap = Map.Make (String)

let log_src = Logs.Src.create "fsa.apa" ~doc:"APA rule matching and composition"

module Log = (val Logs.src_log log_src)

module Metrics = Fsa_obs.Metrics

let m_rules_tried = Metrics.counter "apa.rules_tried"
let m_bindings = Metrics.counter "apa.bindings_found"
let m_terms = Metrics.counter "apa.terms_allocated"

(* ------------------------------------------------------------------ *)
(* States                                                              *)
(* ------------------------------------------------------------------ *)

module State = struct
  (* A global state is an array of component contents, indexed by the
     slots of a layout: the APA's component order.  Every state of one
     exploration shares the APA's layout, so lookups are array accesses
     and a successor shares every component array its firing left
     untouched with its parent.

     Invariants:
     - each slot holds its contents as a strictly increasing array of
       terms in [Term.compare] order, so bindings enumerate in the order
       a [Term.Set.fold] would;
     - [h] is the wrapping sum, over slots [i] and elements [e], of
       [zobrist salts.(i) e].  The salt depends only on the component
       name, so two states hold equal hashes whenever they map every name
       to the same set, whatever their layouts; a missing component and
       an empty one are the same.  A firing updates [h] by the elements
       it removes and adds, without rehashing the state;
     - layouts are immutable once built, so states can cross domains
       (server workers, [batch] jobs) without a shared mutable table. *)
  type layout = {
    names : string array;  (* slot -> component name *)
    salts : int array;  (* slot -> mixed hash of the name *)
    by_name : int array;  (* slots in [String.compare] order of names *)
    index : int Smap.t;  (* component name -> slot *)
  }

  type t = { layout : layout; slots : Term.t array array; h : int }

  (* A 63-bit finaliser in the style of splitmix64.  Term hashes are
     small and structured ([Int i] hashes to [0x9e5 * (i + 1)]), so sums
     of unmixed ones collide and crowd the low bits a hash table uses. *)
  let mix x =
    let x = (x lxor (x lsr 31)) * 0x3f58476d1ce4e5b9 in
    let x = (x lxor (x lsr 27)) * 0x14d049bb133111eb in
    x lxor (x lsr 30)

  let salt name = mix (Hashtbl.hash name)
  let zobrist salt e = mix (salt lxor Term.hash e)

  let layout names =
    let names =
      List.fold_left
        (fun acc n -> if List.mem n acc then acc else n :: acc)
        [] names
      |> List.rev |> Array.of_list
    in
    let by_name = Array.init (Array.length names) Fun.id in
    Array.sort (fun i j -> String.compare names.(i) names.(j)) by_name;
    { names;
      salts = Array.map salt names;
      by_name;
      index =
        Array.to_seqi names
        |> Seq.fold_left (fun m (i, n) -> Smap.add n i m) Smap.empty }

  let slot_hash salt arr =
    Array.fold_left (fun acc e -> acc + zobrist salt e) 0 arr

  let make layout slots =
    let h = ref 0 in
    Array.iteri (fun i arr -> h := !h + slot_hash layout.salts.(i) arr) slots;
    { layout; slots; h = !h }

  let empty = make (layout []) [||]

  let sorted_of_set set = Array.of_list (Term.Set.elements set)

  let set_of_sorted arr =
    Array.fold_left (fun acc e -> Term.Set.add e acc) Term.Set.empty arr

  (* [elements name s]: the sorted contents, [[||]] when absent. *)
  let elements name s =
    match Smap.find_opt name s.layout.index with
    | Some i -> s.slots.(i)
    | None -> [||]

  let get name s = set_of_sorted (elements name s)

  (* Replace the contents of one component, extending the layout when the
     component is new to it. *)
  let set_sorted name arr s =
    match Smap.find_opt name s.layout.index with
    | Some i ->
      let slots = Array.copy s.slots in
      slots.(i) <- arr;
      { s with
        slots;
        h = s.h - slot_hash s.layout.salts.(i) s.slots.(i)
            + slot_hash s.layout.salts.(i) arr }
    | None ->
      let layout = layout (Array.to_list s.layout.names @ [ name ]) in
      { layout;
        slots = Array.append s.slots [| arr |];
        h = s.h + slot_hash layout.salts.(Array.length s.slots) arr }

  let set name v s = set_sorted name (sorted_of_set v) s

  (* Binary search for [e] in a sorted slot: its index, or [-(i + 1)]
     when absent and [i] is the insertion point. *)
  let find arr e =
    let rec go lo hi =
      if lo >= hi then -(lo + 1)
      else
        let mid = (lo + hi) lsr 1 in
        let c = Term.compare e arr.(mid) in
        if c = 0 then mid else if c < 0 then go lo mid else go (mid + 1) hi
    in
    go 0 (Array.length arr)

  let insert arr e =
    let k = find arr e in
    if k >= 0 then arr
    else begin
      let i = -(k + 1) in
      let n = Array.length arr in
      let res = Array.make (n + 1) e in
      Array.blit arr 0 res 0 i;
      Array.blit arr i res (i + 1) (n - i);
      res
    end

  let remove arr e =
    let i = find arr e in
    if i < 0 then arr
    else begin
      let n = Array.length arr in
      let res = Array.sub arr 0 (n - 1) in
      Array.blit arr (i + 1) res i (n - 1 - i);
      res
    end

  let add_elt name e s = set_sorted name (insert (elements name s) e) s
  let remove_elt name e s = set_sorted name (remove (elements name s) e) s
  let mem_elt name e s = find (elements name s) e >= 0

  (* Lexicographic over sorted arrays: [Term.Set.compare] on the sets. *)
  let compare_sorted a b =
    if a == b then 0
    else
      let la = Array.length a and lb = Array.length b in
      let rec go i =
        if i = la then if i = lb then 0 else -1
        else if i = lb then 1
        else
          let c = Term.compare a.(i) b.(i) in
          if c <> 0 then c else go (i + 1)
      in
      go 0

  (* Name-ordered contents, for comparisons across layouts. *)
  let bindings s =
    Array.to_list
      (Array.map (fun i -> (s.layout.names.(i), s.slots.(i))) s.layout.by_name)

  (* The order of [Smap.compare Term.Set.compare] on name-to-set maps in
     which every name not shown maps to the empty set. *)
  let compare a b =
    if a == b then 0
    else if a.layout == b.layout then begin
      let order = a.layout.by_name in
      let n = Array.length order in
      let rec go k =
        if k = n then 0
        else
          let i = order.(k) in
          let c = compare_sorted a.slots.(i) b.slots.(i) in
          if c <> 0 then c else go (k + 1)
      in
      go 0
    end
    else
      let names =
        List.sort_uniq String.compare
          (Array.to_list a.layout.names @ Array.to_list b.layout.names)
      in
      let rec go = function
        | [] -> 0
        | name :: rest ->
          let c = compare_sorted (elements name a) (elements name b) in
          if c <> 0 then c else go rest
      in
      go names

  let equal_sorted a b =
    a == b
    || Array.length a = Array.length b
       && begin
         let rec go i = i < 0 || (Term.equal a.(i) b.(i) && go (i - 1)) in
         go (Array.length a - 1)
       end

  let equal a b =
    a == b
    || a.h = b.h
       &&
       if a.layout == b.layout then begin
         let n = Array.length a.slots in
         let rec go i =
           i = n
           || (let x = a.slots.(i) and y = b.slots.(i) in
               x == y || equal_sorted x y)
              && go (i + 1)
         in
         go 0
       end
       else compare a b = 0

  let hash s = s.h land max_int

  let components s = List.map fst (bindings s)

  (* Rename component keys and rewrite the stored terms in one pass —
     the workhorse of symmetry canonicalisation ([Fsa_sym]).  A renaming
     that permutes the layout's components keeps the layout; [comp] must
     be injective on the components of [s], but colliding keys are
     unioned defensively rather than dropped. *)
  let map ~comp ~term s =
    let mapped =
      Array.mapi
        (fun i arr ->
          ( comp s.layout.names.(i),
            Array.to_list arr |> List.map term |> List.sort_uniq Term.compare ))
        s.slots
    in
    let union arr elts =
      if Array.length arr = 0 then Array.of_list elts
      else List.fold_left insert arr elts
    in
    if Array.for_all (fun (name, _) -> Smap.mem name s.layout.index) mapped
    then begin
      let slots = Array.make (Array.length mapped) [||] in
      Array.iter
        (fun (name, elts) ->
          let j = Smap.find name s.layout.index in
          slots.(j) <- union slots.(j) elts)
        mapped;
      make s.layout slots
    end
    else
      Array.fold_left
        (fun acc (name, elts) -> set_sorted name (union (elements name acc) elts) acc)
        empty mapped

  let pp ppf s =
    let pp_comp ppf (name, arr) =
      Fmt.pf ppf "%s = {%a}" name
        Fmt.(array ~sep:comma Term.pp)
        arr
    in
    Fmt.pf ppf "@[<v>%a@]" Fmt.(list ~sep:cut pp_comp) (bindings s)

  let to_string s = Fmt.str "%a" pp s
end

(* ------------------------------------------------------------------ *)
(* Rules (elementary automata)                                         *)
(* ------------------------------------------------------------------ *)

type take = {
  t_component : string;
  t_pattern : Term.t;
  t_consume : bool;  (* false: read without removing *)
}

type put = { p_component : string; p_template : Term.t }

type rule = {
  r_name : string;
  r_takes : take list;
  r_guard : Term.Subst.t -> bool;
  r_trivial_guard : bool;
  r_puts : put list;
  r_label : Term.Subst.t -> Action.t;
  r_default_label : bool;
}

let take ?(consume = true) component pattern =
  { t_component = component; t_pattern = pattern; t_consume = consume }

let read component pattern = take ~consume:false component pattern

let put component template = { p_component = component; p_template = template }

let rule ?guard ?label ~takes ~puts name =
  let r_guard = match guard with Some g -> g | None -> fun _ -> true in
  let r_label =
    match label with
    | Some l -> l
    | None ->
      let a = Action.make name in
      fun _ -> a
  in
  { r_name = name; r_takes = takes; r_guard;
    r_trivial_guard = Option.is_none guard; r_puts = puts;
    r_label = r_label; r_default_label = Option.is_none label }

let rule_name r = r.r_name

(* The neighbourhood N(t) of a rule: every state component it reads or
   writes. *)
let neighbourhood r =
  List.map (fun t -> t.t_component) r.r_takes
  @ List.map (fun p -> p.p_component) r.r_puts
  |> List.sort_uniq String.compare

(* ------------------------------------------------------------------ *)
(* APA                                                                 *)
(* ------------------------------------------------------------------ *)

(* A rule compiled against the APA's layout: component names resolved
   to slots, ground patterns and templates interned, and the Zobrist
   terms of ground elements precomputed.  Compiled rules are immutable,
   so one APA can be explored from several domains at once. *)
type ctake = {
  k_slot : int;
  k_pattern : Term.t;
  k_ground : bool;
  k_consume : bool;
  k_zobrist : int;  (* of the pattern in its slot; ground takes only *)
  k_distinct : int list;
      (* earlier consuming takes of the same slot, for a consuming take:
         each must have matched a different element *)
}

type cput = {
  q_slot : int;
  q_template : Term.t;
  q_ground : bool;
  q_zobrist : int;  (* ground templates only *)
  q_single : Term.t array;
      (* [[| q_template |]], shared by every ground put of this term into
         this slot and by equal initial contents; [[||]] when non-ground *)
}

type crule = {
  c_rule : rule;
  c_takes : ctake array;
  c_puts : cput array;
  c_read_slots : int array;  (* distinct slots of the takes *)
  c_write_slots : int array;  (* distinct slots a firing may change *)
  c_ground : bool;  (* every take pattern is ground *)
  c_never : bool;
      (* two consuming takes of one slot share a ground pattern: they can
         never match distinct elements *)
}

type t = {
  name : string;
  components : (string * Term.Set.t) list;  (* declared, with initial sets *)
  rules : rule list;
  layout : State.layout;
  initial : State.t;
  compiled : crule array;
}

type error =
  | Unknown_component of string * string  (* rule name, component *)
  | Unbound_put_variable of string * string  (* rule name, variable *)
  | Nonground_initial of string * Term.t
  | Duplicate_rule of string
  | Duplicate_component of string

let pp_error ppf = function
  | Unknown_component (r, c) ->
    Fmt.pf ppf "rule %s references undeclared state component %s" r c
  | Unbound_put_variable (r, v) ->
    Fmt.pf ppf "rule %s produces a term with unbound variable %s" r v
  | Nonground_initial (c, t) ->
    Fmt.pf ppf "initial content %a of component %s is not ground" Term.pp t c
  | Duplicate_rule r -> Fmt.pf ppf "rule %s is declared twice" r
  | Duplicate_component c -> Fmt.pf ppf "state component %s is declared twice" c

let validate_parts ~components ~rules =
  let errors = ref [] in
  let err e = errors := e :: !errors in
  let declared c = List.mem_assoc c components in
  let rec dup_comp = function
    | [] -> ()
    | (c, _) :: rest ->
      if List.mem_assoc c rest then err (Duplicate_component c);
      dup_comp rest
  in
  dup_comp components;
  let rec dup_rule = function
    | [] -> ()
    | r :: rest ->
      if List.exists (fun r' -> String.equal r.r_name r'.r_name) rest then
        err (Duplicate_rule r.r_name);
      dup_rule rest
  in
  dup_rule rules;
  List.iter
    (fun (c, init) ->
      Term.Set.iter
        (fun e -> if not (Term.is_ground e) then err (Nonground_initial (c, e)))
        init)
    components;
  List.iter
    (fun r ->
      List.iter
        (fun tk ->
          if not (declared tk.t_component) then
            err (Unknown_component (r.r_name, tk.t_component)))
        r.r_takes;
      List.iter
        (fun p ->
          if not (declared p.p_component) then
            err (Unknown_component (r.r_name, p.p_component)))
        r.r_puts;
      (* Static scope check: every variable of a produced template must be
         bound by some take pattern. *)
      let bound =
        List.fold_left
          (fun acc tk -> Term.String_set.union acc (Term.vars tk.t_pattern))
          Term.String_set.empty r.r_takes
      in
      List.iter
        (fun p ->
          Term.String_set.iter
            (fun v ->
              if not (Term.String_set.mem v bound) then
                err (Unbound_put_variable (r.r_name, v)))
            (Term.vars p.p_template))
        r.r_puts)
    rules;
  match List.rev !errors with [] -> Ok () | es -> Error es

let validate t = validate_parts ~components:t.components ~rules:t.rules

let distinct_slots slots =
  List.sort_uniq Int.compare slots |> Array.of_list

(* Compile the rules once per APA, against the layout of its declared
   components.  Callers pass validated parts: [make] validates, and
   [prefix] and [with_initial] rename or refill a valid APA. *)
let build ~components ~rules name =
  let layout = State.layout (List.map fst components) in
  let slot c = Smap.find c layout.State.index in
  (* one physically shared array per (slot, ground term) that may fill
     an empty slot alone, so that equal states mostly share their slot
     arrays and compare by pointer *)
  let singles = Hashtbl.create 64 in
  let single i e =
    match Hashtbl.find_opt singles (i, e) with
    | Some arr -> arr
    | None ->
      let arr = [| e |] in
      Hashtbl.add singles (i, e) arr;
      arr
  in
  let init = Array.make (Array.length layout.State.names) [||] in
  List.iter
    (fun (c, set) ->
      let i = slot c in
      init.(i) <-
        (match Term.Set.elements (Term.Set.map Term.intern set) with
        | [ e ] -> single i e
        | elts -> Array.of_list elts))
    components;
  let compile r =
    let takes = Array.of_list r.r_takes in
    let c_takes =
      Array.mapi
        (fun k tk ->
          let k_slot = slot tk.t_component in
          let k_ground = Term.is_ground tk.t_pattern in
          let k_pattern =
            if k_ground then Term.intern tk.t_pattern else tk.t_pattern
          in
          let k_distinct =
            if not tk.t_consume then []
            else
              List.filter
                (fun k' ->
                  takes.(k').t_consume
                  && String.equal takes.(k').t_component tk.t_component)
                (List.init k Fun.id)
          in
          { k_slot; k_pattern; k_ground; k_consume = tk.t_consume;
            k_zobrist =
              (if k_ground then
                 State.zobrist layout.State.salts.(k_slot) k_pattern
               else 0);
            k_distinct })
        takes
    in
    let c_puts =
      Array.of_list
        (List.map
           (fun p ->
             let q_slot = slot p.p_component in
             let q_ground = Term.is_ground p.p_template in
             let q_template =
               if q_ground then Term.intern p.p_template else p.p_template
             in
             { q_slot; q_template; q_ground;
               q_zobrist =
                 (if q_ground then
                    State.zobrist layout.State.salts.(q_slot) q_template
                  else 0);
               q_single =
                 (if q_ground then single q_slot q_template else [||]) })
           r.r_puts)
    in
    { c_rule = r;
      c_takes;
      c_puts;
      c_read_slots =
        distinct_slots (Array.to_list (Array.map (fun k -> k.k_slot) c_takes));
      c_write_slots =
        distinct_slots
          (List.filter_map
             (fun k -> if k.k_consume then Some k.k_slot else None)
             (Array.to_list c_takes)
          @ Array.to_list (Array.map (fun q -> q.q_slot) c_puts));
      c_ground = Array.for_all (fun k -> k.k_ground) c_takes;
      c_never =
        Array.exists
          (fun k ->
            k.k_ground
            && List.exists
                 (fun k' ->
                   c_takes.(k').k_ground
                   && Term.equal c_takes.(k').k_pattern k.k_pattern)
                 k.k_distinct)
          c_takes }
  in
  { name; components; rules; layout;
    initial = State.make layout init;
    compiled = Array.of_list (List.map compile rules) }

let make ~components ~rules name =
  match validate_parts ~components ~rules with
  | Ok () ->
    Log.debug (fun m ->
        m "APA %s: %d state components, %d elementary automata" name
          (List.length components) (List.length rules));
    build ~components ~rules name
  | Error (e :: _) -> invalid_arg (Fmt.str "Apa.make %s: %a" name pp_error e)
  | Error [] -> assert false

let name t = t.name
let components t = t.components
let rules t = t.rules

(* The action alphabet under the default labelling (one action per rule
   name) — what spec-level [check] declarations and homomorphism keep
   sets may refer to. *)
let rule_names t = List.sort_uniq String.compare (List.map rule_name t.rules)

let consumers t c =
  List.filter
    (fun r ->
      List.exists
        (fun tk -> tk.t_consume && String.equal tk.t_component c)
        r.r_takes)
    t.rules

let readers t c =
  List.filter
    (fun r ->
      List.exists
        (fun tk -> (not tk.t_consume) && String.equal tk.t_component c)
        r.r_takes)
    t.rules

let producers t c =
  List.filter
    (fun r ->
      List.exists (fun p -> String.equal p.p_component c) r.r_puts)
    t.rules

let initial_state t = t.initial

(* ------------------------------------------------------------------ *)
(* Execution                                                           *)
(* ------------------------------------------------------------------ *)

let m_rejected_empty = Metrics.counter "apa.rules_rejected_empty"

(* States built outside the APA (from [State.empty] by [State.set]) are
   moved onto its layout first, keeping any extra components after the
   APA's own slots so that compiled slot numbers stay valid. *)
let on_layout t (s : State.t) =
  if s.State.layout == t.layout then s
  else
    let layout =
      State.layout
        (Array.to_list t.layout.State.names @ Array.to_list s.State.layout.names)
    in
    State.make layout
      (Array.map (fun name -> State.elements name s) layout.State.names)

(* Rejected before any allocation when a take's component is empty. *)
let has_empty_take cr (s : State.t) =
  let slots = cr.c_read_slots in
  let rec go i =
    i < Array.length slots
    && (Array.length s.State.slots.(slots.(i)) = 0 || go (i + 1))
  in
  go 0

(* The successor of one binding: consumed elements are removed, then the
   puts are added in order, with the hash updated element by element.
   Slots the firing leaves unchanged stay shared with [s], also when an
   element was removed and put back. *)
let fire t cr (s : State.t) chosen subst =
  let slots = Array.copy s.State.slots in
  let salts = t.layout.State.salts in
  let h = ref s.State.h in
  Array.iteri
    (fun k tk ->
      if tk.k_consume then begin
        let e =
          if tk.k_ground then tk.k_pattern
          else s.State.slots.(tk.k_slot).(chosen.(k))
        in
        slots.(tk.k_slot) <- State.remove slots.(tk.k_slot) e;
        h :=
          !h
          - if tk.k_ground then tk.k_zobrist else State.zobrist salts.(tk.k_slot) e
      end)
    cr.c_takes;
  Array.iter
    (fun q ->
      (* interning makes recurring data items physically shared, so state
         comparisons hit the [==] fast paths of [Term.compare] *)
      let e =
        if q.q_ground then q.q_template
        else Term.intern (Term.Subst.apply subst q.q_template)
      in
      let arr = slots.(q.q_slot) in
      let arr' =
        if Array.length arr = 0 && q.q_ground then q.q_single
        else State.insert arr e
      in
      if arr' != arr then begin
        slots.(q.q_slot) <- arr';
        h :=
          !h + if q.q_ground then q.q_zobrist else State.zobrist salts.(q.q_slot) e
      end)
    cr.c_puts;
  Array.iter
    (fun i ->
      if State.equal_sorted slots.(i) s.State.slots.(i) then
        slots.(i) <- s.State.slots.(i))
    cr.c_write_slots;
  { State.layout = s.State.layout; slots; h = !h }

(* All interpretations of a rule in [s], passed to [emit] in ascending
   lexicographic order of the matched elements (take by take), each with
   its substitution and the matched index of every take.  A ground pattern
   is found by binary search; a substitution is built only for the
   non-ground ones.  Distinct consuming takes of the same component must
   match distinct elements (set semantics: both elements are removed). *)
let iter_matches cr (s : State.t) emit acc =
  let takes = cr.c_takes in
  let n = Array.length takes in
  let chosen = Array.make n 0 in
  let clash tk i = List.exists (fun k' -> chosen.(k') = i) tk.k_distinct in
  let rec go k subst acc =
    if k = n then
      if cr.c_rule.r_guard subst then emit chosen subst acc else acc
    else
      let tk = takes.(k) in
      let arr = s.State.slots.(tk.k_slot) in
      if tk.k_ground then begin
        let i = State.find arr tk.k_pattern in
        if i < 0 || clash tk i then acc
        else begin
          chosen.(k) <- i;
          go (k + 1) subst acc
        end
      end
      else begin
        let acc = ref acc in
        for i = 0 to Array.length arr - 1 do
          if not (clash tk i) then
            match Term.match_in subst ~pattern:tk.k_pattern ~target:arr.(i) with
            | None -> ()
            | Some subst ->
              chosen.(k) <- i;
              acc := go (k + 1) subst !acc
        done;
        !acc
      end
  in
  go 0 Term.Subst.empty acc

(* A rule whose patterns are all ground has at most one interpretation,
   with the empty substitution; [fire] removes the patterns themselves,
   so no indices are recorded. *)
let iter_bindings cr (s : State.t) emit acc =
  if not cr.c_ground then iter_matches cr s emit acc
  else
    let takes = cr.c_takes in
    let rec present k =
      k = Array.length takes
      || State.find s.State.slots.(takes.(k).k_slot) takes.(k).k_pattern >= 0
         && present (k + 1)
    in
    if (not cr.c_never) && present 0 && cr.c_rule.r_guard Term.Subst.empty
    then emit [||] Term.Subst.empty acc
    else acc

(* All transitions enabled in [state]: (rule, action label, successor),
   rule by rule in declaration order and, within a rule, in descending
   order of the matched elements.  The successors of each rule are consed
   in ascending order, last rule first, so the list needs no reversal. *)
let step t state =
  let state = on_layout t state in
  let obs = Metrics.enabled () in
  let rules = t.compiled in
  let acc = ref [] in
  let found = ref 0 and terms = ref 0 and rejected = ref 0 in
  for r = Array.length rules - 1 downto 0 do
    let cr = rules.(r) in
    if has_empty_take cr state then incr rejected
    else begin
      let rule = cr.c_rule in
      let before = !found in
      acc :=
        iter_bindings cr state
          (fun chosen subst acc ->
            incr found;
            (rule, rule.r_label subst, fire t cr state chosen subst) :: acc)
          !acc;
      terms := !terms + ((!found - before) * Array.length cr.c_puts)
    end
  done;
  if obs then begin
    Metrics.incr ~by:(Array.length rules) m_rules_tried;
    Metrics.incr ~by:!rejected m_rejected_empty;
    Metrics.incr ~by:!found m_bindings;
    Metrics.incr ~by:!terms m_terms
  end;
  !acc

let enabled_rules t state =
  let state = on_layout t state in
  Array.to_list t.compiled
  |> List.filter (fun cr ->
         (not (has_empty_take cr state))
         && iter_bindings cr state (fun _ _ _ -> true) false)
  |> List.map (fun cr -> cr.c_rule)

let is_deadlocked t state = enabled_rules t state = []

(* ------------------------------------------------------------------ *)
(* Composition                                                         *)
(* ------------------------------------------------------------------ *)

(* Glue APAs together by identifying equally-named state components (the
   paper's shared [net] component): initial sets are unioned, rules are
   concatenated.  Rule names must remain unique. *)
let compose ~name parts =
  let components =
    List.fold_left
      (fun acc part ->
        List.fold_left
          (fun acc (c, init) ->
            match List.assoc_opt c acc with
            | None -> (c, init) :: acc
            | Some prev -> (c, Term.Set.union prev init) :: List.remove_assoc c acc)
          acc part.components)
      [] parts
    |> List.rev
  in
  let rules = List.concat_map (fun p -> p.rules) parts in
  make ~components ~rules name

(* Prefix every component name and rule name: turns a component template
   into a distinctly-named instance before composition.  Shared components
   (e.g. [net]) are listed in [keep] and left unrenamed. *)
let prefix ?(keep = []) ~prefix:pfx t =
  let ren c = if List.mem c keep then c else pfx ^ c in
  let components = List.map (fun (c, init) -> (ren c, init)) t.components in
  let rules =
    List.map
      (fun r ->
        { r with
          r_name = pfx ^ r.r_name;
          r_takes =
            List.map (fun tk -> { tk with t_component = ren tk.t_component }) r.r_takes;
          r_puts =
            List.map (fun p -> { p with p_component = ren p.p_component }) r.r_puts })
      t.rules
  in
  build ~components ~rules (pfx ^ t.name)

(* The APA a module of rules explores on its own: every component with
   its initial contents, only the named rules, in declaration order. *)
let restrict ~rules:names t =
  build ~components:t.components
    ~rules:(List.filter (fun r -> List.mem r.r_name names) t.rules)
    t.name

let with_initial component init t =
  if not (List.mem_assoc component t.components) then
    invalid_arg
      (Printf.sprintf "Apa.with_initial: unknown state component %s" component);
  build
    ~components:
      (List.map
         (fun (c, old) -> if String.equal c component then (c, init) else (c, old))
         t.components)
    ~rules:t.rules t.name

let pp ppf t =
  let pp_comp ppf (c, init) =
    Fmt.pf ppf "%s = {%a}" c
      Fmt.(list ~sep:comma Term.pp)
      (Term.Set.elements init)
  in
  let pp_rule ppf r =
    Fmt.pf ppf "%s : N = {%a}" r.r_name
      Fmt.(list ~sep:comma string)
      (neighbourhood r)
  in
  Fmt.pf ppf "@[<v2>APA %s:@,state components:@,%a@,elementary automata:@,%a@]"
    t.name
    Fmt.(list ~sep:cut pp_comp)
    t.components
    Fmt.(list ~sep:cut pp_rule)
    t.rules
