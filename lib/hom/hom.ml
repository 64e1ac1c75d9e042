(* Alphabetic language homomorphisms and abstraction-based analysis
   (Sect. 5.5 of the paper).

   Behaviour abstraction of an APA is formalised by alphabetic language
   homomorphisms h : Sigma* -> Sigma'*: certain transitions are ignored
   (mapped to the empty word) and others are renamed.  Applying h to a
   reachability graph yields an NFA with epsilon transitions whose
   determinised, minimised form is the "minimal automaton for the
   homomorphic image" that the SH verification tool computes and displays
   (Figs. 10 and 11). *)

module Action = Fsa_term.Action
module Lts = Fsa_lts.Lts

let log_src =
  Logs.Src.create "fsa.hom" ~doc:"homomorphic abstraction and minimisation"

module Log = (val Logs.src_log log_src)

module Metrics = Fsa_obs.Metrics
module Span = Fsa_obs.Span

let m_minimal_automata = Metrics.counter "hom.minimal_automata"
let m_dependence_tests = Metrics.counter "hom.dependence_tests"
let m_shared_builds = Metrics.counter "hom.shared_builds"
let m_early_decisions = Metrics.counter "hom.early_decisions"

module Action_label = struct
  type t = Action.t

  let compare = Action.compare
  let pp = Action.pp
end

module A = Fsa_automata.Automata.Make (Action_label)
module K = Fsa_automata.Kernel
module Progress = Fsa_obs.Progress

(* An alphabetic homomorphism: [None] maps the action to the empty word. *)
type t = Action.t -> Action.t option

let identity : t = fun a -> Some a

(* Preserve exactly the listed actions, erase everything else — the
   homomorphism used in the paper to focus on one (minimum, maximum)
   pair.  The set is built once, when the homomorphism is constructed:
   the closure is applied once per transition of the behaviour, and a
   per-call list scan shows up in abstraction profiles. *)
let preserve actions : t =
  let keep = Action.Set.of_list actions in
  fun a -> if Action.Set.mem a keep then Some a else None

(* first binding wins, matching the order semantics of an assoc list *)
let rename_table assoc =
  List.fold_left
    (fun m (x, y) -> if Action.Map.mem x m then m else Action.Map.add x y m)
    Action.Map.empty assoc

(* The merge groups of a non-injective rename map: every target two or
   more distinct source actions end up on, with its sources.  A rename
   map is applied pointwise, so such a merge silently identifies words
   that the behaviour distinguishes — dependence verdicts read off the
   merged image are meaningless.  Actions of [alphabet] the map leaves
   untouched count as sources of themselves: renaming [a] onto an
   existing action [b] merges the two just as surely as mapping both
   onto a third symbol. *)
let rename_collisions ?(alphabet = []) assoc =
  let table = rename_table assoc in
  let add_source tgt src m =
    let srcs =
      Option.value (Action.Map.find_opt tgt m) ~default:Action.Set.empty
    in
    Action.Map.add tgt (Action.Set.add src srcs) m
  in
  let by_target =
    Action.Map.fold (fun src tgt m -> add_source tgt src m) table
      Action.Map.empty
  in
  let by_target =
    List.fold_left
      (fun m a -> if Action.Map.mem a table then m else add_source a a m)
      by_target alphabet
  in
  Action.Map.fold
    (fun tgt srcs acc ->
      if Action.Set.cardinal srcs > 1 then
        (tgt, Action.Set.elements srcs) :: acc
      else acc)
    by_target []
  |> List.rev

let rename assoc : t =
  let table = rename_table assoc in
  (* Within-map collisions are detectable without knowing the alphabet
     and are always a bug: refuse them instead of silently merging the
     sources (callers with an alphabet in hand should run
     {!rename_collisions} first for the full check). *)
  (match rename_collisions assoc with
  | [] -> ()
  | (tgt, srcs) :: _ ->
    invalid_arg
      (Fmt.str "Hom.rename: non-injective map merges %a into %a"
         Fmt.(list ~sep:comma Action.pp)
         srcs Action.pp tgt));
  fun a ->
    match Action.Map.find_opt a table with
    | Some y -> Some y
    | None -> Some a

let compose (h2 : t) (h1 : t) : t = fun a -> Option.bind (h1 a) h2

(* Restrictions of a homomorphism to a concrete alphabet, for static
   soundness checks: an abstraction that erases the whole alphabet (or
   preserves an action the alphabet does not contain) yields a vacuous
   minimal automaton and silently meaningless dependence verdicts. *)
let erased (h : t) alphabet =
  List.filter (fun a -> Option.is_none (h a)) alphabet

let preserved (h : t) alphabet =
  List.filter (fun a -> Option.is_some (h a)) alphabet

(* ------------------------------------------------------------------ *)
(* Application to behaviours                                            *)
(* ------------------------------------------------------------------ *)

(* The homomorphic image of a reachability graph, as an NFA with epsilon
   transitions.  The behaviour of an APA is prefix closed, hence every
   state accepts. *)
let image_nfa (h : t) lts =
  let n = Lts.nb_states lts in
  let edges =
    (* fold + rev keeps the edge order of [Lts.transitions] without
       materializing the transition list *)
    Lts.fold_transitions
      (fun tr acc -> (tr.Lts.t_src, h tr.Lts.t_label, tr.Lts.t_dst) :: acc)
      lts []
    |> List.rev
  in
  let all = List.init n Fun.id |> Fsa_automata.Automata.Int_set.of_list in
  A.Nfa.create ~nb_states:n
    ~start:(Fsa_automata.Automata.Int_set.singleton (Lts.initial lts))
    ~finals:all ~edges

(* [letter] memoised on physically equal labels: exploration builds each
   rule's default label once, so a graph carries about one label value
   per rule.  A direct-mapped cache on the label name's hash; a slot
   collision just recomputes. *)
let memo_letter (letter : Action.t -> int) =
  let size = 256 in
  let keys = Array.make size (Action.make "") and ids = Array.make size 0 in
  fun a ->
    let i = Hashtbl.hash (Action.label a) land (size - 1) in
    if keys.(i) == a then ids.(i)
    else begin
      let id = letter a in
      keys.(i) <- a;
      ids.(i) <- id;
      id
    end

(* Erase a behaviour straight into the kernel's CSR form: [letter] gives
   each label's letter id, [-1] erasing it.  The edges of a state keep
   their [Lts.succ] order; every state accepts. *)
let erase ~nb_letters letter lts =
  let letter = memo_letter letter in
  let n = Lts.nb_states lts in
  let off = Array.make (n + 1) 0 in
  for s = 0 to n - 1 do
    off.(s + 1) <- off.(s) + List.length (Lts.succ lts s)
  done;
  let lab = Array.make off.(n) 0 and dst = Array.make off.(n) 0 in
  for s = 0 to n - 1 do
    List.iteri
      (fun i tr ->
        lab.(off.(s) + i) <- letter tr.Lts.t_label;
        dst.(off.(s) + i) <- tr.Lts.t_dst)
      (Lts.succ lts s)
  done;
  { K.nb_states = n;
    nb_letters;
    off;
    lab;
    dst;
    starts = [| Lts.initial lts |];
    final = Bytes.make n '\001' }

let letters_of set = Array.of_list (Action.Set.elements set)

(* The minimal deterministic automaton of the homomorphic image, over
   the image letters in label order. *)
let minimal_automaton (h : t) lts =
  Span.with_ ~cat:"hom" "hom.minimal_automaton" @@ fun () ->
  Metrics.incr m_minimal_automata;
  let letters =
    letters_of
      (Action.Set.fold
         (fun a acc ->
           match h a with Some b -> Action.Set.add b acc | None -> acc)
         (Lts.alphabet lts) Action.Set.empty)
  in
  let letter a = match h a with Some b -> A.letter letters b | None -> -1 in
  let nfa = erase ~nb_letters:(Array.length letters) letter lts in
  let dfa = A.Dfa.of_kernel ~letters (K.minimize (K.determinize nfa)) in
  Log.debug (fun m ->
      m "minimal automaton of %s image: %d states, %d transitions"
        (Lts.name lts) (A.Dfa.nb_states dfa) (A.Dfa.nb_transitions dfa));
  dfa

(* ------------------------------------------------------------------ *)
(* Functional dependence by abstraction                                 *)
(* ------------------------------------------------------------------ *)

(* Reading functional dependence off the abstract automaton: with the
   homomorphism preserving only {min, max}, the maximum depends on the
   minimum iff no accepted word contains [max] before the first [min] —
   graphically, iff every path of the minimal automaton reaches a
   [max]-edge only after a [min]-edge (Fig. 10), whereas independence shows
   as a diamond (Fig. 11). *)
let dfa_has_target_before_avoid dfa ~avoid ~target =
  let module IS = Fsa_automata.Automata.Int_set in
  (* [delta] is the DFA's per-state adjacency array — no rescan of the
     full transition list per visited state *)
  let delta = A.Dfa.delta dfa in
  let rec go visited frontier =
    match frontier with
    | [] -> false
    | s :: rest ->
      if IS.mem s visited then go visited rest
      else begin
        let visited = IS.add s visited in
        let hit = ref false in
        let next = ref rest in
        A.Lmap.iter
          (fun l d ->
            if Action.equal l target then hit := true
            else if not (Action.equal l avoid) then next := d :: !next)
          delta.(s);
        !hit || go visited !next
      end
  in
  go IS.empty [ A.Dfa.start dfa ]

(* Wall-clock breakdown of one dependence test off the shared engine:
   the four sub-phases the paper's tool pipeline spends its time in. *)
type dependence_timing = {
  dt_erase_ns : int64;
  dt_determinise_ns : int64;
  dt_minimise_ns : int64;
  dt_compare_ns : int64;
}

let depends_abstract lts ~min_action ~max_action =
  Metrics.incr m_dependence_tests;
  let dfa = minimal_automaton (preserve [ min_action; max_action ]) lts in
  not (dfa_has_target_before_avoid dfa ~avoid:min_action ~target:max_action)

(* Testing each maximum against each minimum (Sect. 5.5): the dependence
   matrix of the behaviour. *)
let dependence_matrix lts ~minima ~maxima =
  List.map
    (fun mx ->
      (mx,
       List.map
         (fun mn -> (mn, depends_abstract lts ~min_action:mn ~max_action:mx))
         minima))
    maxima

(* ------------------------------------------------------------------ *)
(* Shared multi-pair abstraction engine                                 *)
(* ------------------------------------------------------------------ *)

(* Answering every (minimum, maximum) dependence pair from one pass over
   the behaviour, instead of erasing/determinising/minimising the full
   reachability graph once per pair.

   Soundness: write U for the union alphabet of all surviving pairs and
   h_U = preserve U, h_p = preserve {min, max} for a pair p with
   {min, max} <= U.  Then h_p = h_p . h_U, so

     h_p (L (lts)) = h_p (h_U (L (lts))) = h_p (L (shared_dfa)),

   and the minimal automaton of a pair computed from [shared_dfa] is the
   minimal automaton computed from the full behaviour (minimal DFAs are
   unique up to isomorphism).  For the verdict itself not even the
   per-pair projection is needed: in [dfa_has_target_before_avoid] a
   label that is neither [avoid] nor [target] is traversed freely —
   exactly what erasing it would do — so running the search directly on
   the shared DFA returns the same answer as running it on the pair's
   minimal automaton. *)

module Pair_set = Set.Make (struct
  type t = Action.t * Action.t

  let compare (a1, b1) (a2, b2) =
    match Action.compare a1 a2 with 0 -> Action.compare b1 b2 | c -> c
end)

module Shared = struct
  type build_timing = {
    sb_erase_ns : int64;
    sb_determinise_ns : int64;
    sb_minimise_ns : int64;
    sb_early_ns : int64;
  }

  (* The shared quotient lives in kernel form over the engine's letters
     (the alphabet in label order): verdicts and per-pair projections
     work on its flat transition table.  [sh_dfa] is the label-keyed
     form handed out at the API boundary (cache, reports, tracer). *)
  type single = {
    sh_alphabet : Action.Set.t;
    sh_letters : Action.t array;
    sh_quotient : K.dfa;
    sh_dfa : A.Dfa.t;
    sh_cached : bool;
    sh_timing : build_timing;
    sh_early : Pair_set.t;
    sh_minima : Action.t list;  (* the pair endpoints inside the alphabet *)
    sh_maxima : Action.t list;
    sh_subsets : int;  (* subsets the determinisation materialised *)
  }

  (* One engine per composition module, over pairwise disjoint
     alphabets (see [product]). *)
  type product = {
    pr_parts : single array;
    pr_part_of : int Action.Map.t;  (* letter -> its part *)
    pr_alphabet : Action.Set.t;
    pr_cross : Pair_set.t;  (* pairs whose ends lie in two parts *)
    pr_dfa : A.Dfa.t Lazy.t;
  }

  type engine = Single of single | Product of product

  let zero_timing =
    { sb_erase_ns = 0L;
      sb_determinise_ns = 0L;
      sb_minimise_ns = 0L;
      sb_early_ns = 0L }

  (* On-the-fly dependence evaluation during the single pass: a pair
     (min, max) is already decided independent as soon as the pass
     witnesses a path that reaches a [max]-labelled transition without
     traversing [min] (the same condition [dfa_has_target_before_avoid]
     searches for, evaluated on the graph instead of the quotient).  One
     monotone bitset fixpoint decides every such pair at once:
     avoid.(s) is the set of minima some path from the initial state to
     [s] avoids entirely — seeded with all minima at the initial state,
     propagated along each edge minus the edge's own label.  A pair
     (mn, mx) is independent iff some mx-edge leaves a state whose
     avoid-set contains mn.  The "dependent" direction is never decided
     early: it is a property of all paths and needs the full image.
     Runs on the erased graph: minima and maxima are letters of it. *)
  let early_pass ~letters ~minima ~maxima (g : K.nfa) =
    let mins = Array.of_list minima in
    let k = Array.length mins in
    if k = 0 || maxima = [] then Pair_set.empty
    else begin
      let min_bit = Array.make g.K.nb_letters (-1) in
      Array.iteri (fun i a -> min_bit.(A.letter letters a) <- i) mins;
      let bits_per_word = 62 in
      let words = (k + bits_per_word - 1) / bits_per_word in
      let n = g.K.nb_states in
      (* avoid is a flattened [n] x [words] bit matrix *)
      let avoid = Array.make (n * words) 0 in
      let full_word = (1 lsl bits_per_word) - 1 in
      let last_mask =
        let r = k mod bits_per_word in
        if r = 0 then full_word else (1 lsl r) - 1
      in
      let init = g.K.starts.(0) in
      for w = 0 to words - 1 do
        avoid.((init * words) + w) <-
          (if w = words - 1 then last_mask else full_word)
      done;
      (* FIFO worklist in a ring buffer: a state is queued at most once
         at a time *)
      let queue = Array.make n 0 and head = ref 0 and len = ref 0 in
      let queued = Bytes.make n '\000' in
      let enqueue s =
        Bytes.set queued s '\001';
        queue.((!head + !len) mod n) <- s;
        incr len
      in
      enqueue init;
      while !len > 0 do
        let s = queue.(!head) in
        head := (!head + 1) mod n;
        decr len;
        Bytes.set queued s '\000';
        for e = g.K.off.(s) to g.K.off.(s + 1) - 1 do
          let d = g.K.dst.(e) and l = g.K.lab.(e) in
          let b = if l >= 0 then min_bit.(l) else -1 in
          let changed = ref false in
          for w = 0 to words - 1 do
            let v = avoid.((s * words) + w) in
            let contrib =
              if b >= 0 && b / bits_per_word = w then
                v land lnot (1 lsl (b mod bits_per_word))
              else v
            in
            let cur = avoid.((d * words) + w) in
            let merged = cur lor contrib in
            if merged <> cur then begin
              avoid.((d * words) + w) <- merged;
              changed := true
            end
          done;
          if !changed && Bytes.get queued d = '\000' then enqueue d
        done
      done;
      let is_max = Array.make g.K.nb_letters false in
      List.iter (fun a -> is_max.(A.letter letters a) <- true) maxima;
      let acc = ref Pair_set.empty in
      for s = 0 to n - 1 do
        for e = g.K.off.(s) to g.K.off.(s + 1) - 1 do
          let l = g.K.lab.(e) in
          if l >= 0 && is_max.(l) then
            for i = 0 to k - 1 do
              let w = i / bits_per_word and b = i mod bits_per_word in
              if avoid.((s * words) + w) land (1 lsl b) <> 0 then
                acc := Pair_set.add (mins.(i), letters.(l)) !acc
            done
        done
      done;
      !acc
    end

  (* Build the engine: erase the behaviour once to the union alphabet,
     determinise and minimise the shared image in the kernel, and run
     the on-the-fly early-decision pass over the erased graph.  With
     [?dfa] (a cache hit for the shared quotient) the graph is not
     walked at all — every pair is then decided on the shared DFA, which
     returns the same verdicts. *)
  let build ?dfa ?(max_states = max_int) ?progress ~alphabet ~minima ~maxima
      lts =
    Metrics.incr m_shared_builds;
    match dfa with
    | Some d ->
      let letters = letters_of
          (A.Lset.fold Action.Set.add (A.Dfa.alphabet d) alphabet) in
      let in_alphabet a = Action.Set.mem a alphabet in
      Single
        { sh_alphabet = alphabet;
          sh_letters = letters;
          sh_quotient = A.Dfa.to_kernel ~letters d;
          sh_dfa = d;
          sh_cached = true;
          sh_timing = zero_timing;
          sh_early = Pair_set.empty;
          sh_minima = List.filter in_alphabet minima;
          sh_maxima = List.filter in_alphabet maxima;
          sh_subsets = 0 }
    | None ->
      Span.with_ ~cat:"hom" "hom.shared_build" @@ fun () ->
      let letters = letters_of alphabet in
      let in_alphabet a = Action.Set.mem a alphabet in
      let minima = List.filter in_alphabet minima
      and maxima = List.filter in_alphabet maxima in
      (* progress continues the exploration's count: one tick per
         materialised subset and per Hopcroft batch *)
      let base = Lts.nb_states lts and work = ref 0 in
      let tick =
        Option.map
          (fun p ~frontier ->
            incr work;
            Progress.tick p ~count:(base + !work) ~frontier)
          progress
      in
      let t0 = Span.now_ns () in
      let g = erase ~nb_letters:(Array.length letters) (A.letter letters) lts in
      let t1 = Span.now_ns () in
      let det =
        try K.determinize ~max_states ?tick g
        with K.Too_many_states n -> raise (Lts.State_space_too_large n)
      in
      let t2 = Span.now_ns () in
      let q = K.minimize ?tick det in
      let t3 = Span.now_ns () in
      let early = early_pass ~letters ~minima ~maxima g in
      let t4 = Span.now_ns () in
      let d = A.Dfa.of_kernel ~letters q in
      Metrics.incr ~by:(Pair_set.cardinal early) m_early_decisions;
      Log.debug (fun m ->
          m
            "shared abstraction of %s: |alphabet|=%d, %d subsets, %d states, \
             %d transitions, %d pairs decided early"
            (Lts.name lts)
            (Action.Set.cardinal alphabet)
            det.K.d_states (A.Dfa.nb_states d) (A.Dfa.nb_transitions d)
            (Pair_set.cardinal early));
      Single
        { sh_alphabet = alphabet;
          sh_letters = letters;
          sh_quotient = q;
          sh_dfa = d;
          sh_cached = false;
          sh_timing =
            { sb_erase_ns = Int64.sub t1 t0;
              sb_determinise_ns = Int64.sub t2 t1;
              sb_minimise_ns = Int64.sub t3 t2;
              sb_early_ns = Int64.sub t4 t3 };
          sh_early = early;
          sh_minima = minima;
          sh_maxima = maxima;
          sh_subsets = det.K.d_states }

  (* The product of DFAs over pairwise disjoint alphabets, numbered
     breadth-first from the tuple of start states; a tuple is final iff
     every part is.  Each part moves on its own letters only, so the
     product accepts the shuffle of the parts' languages, and it is
     minimal when the parts are minimal and accept prefix-closed
     languages (two tuples differing in part [i] are told apart by a
     word of part [i]'s letters). *)
  let dfa_product (parts : A.Dfa.t array) =
    let k = Array.length parts in
    let size = Array.map A.Dfa.nb_states parts in
    let radix = Array.make k 1 in
    for i = 1 to k - 1 do
      radix.(i) <- radix.(i - 1) * size.(i - 1)
    done;
    let ids = Hashtbl.create 64 and count = ref 0 in
    let intern code =
      match Hashtbl.find_opt ids code with
      | Some id -> id
      | None ->
        let id = !count in
        Hashtbl.add ids code id;
        incr count;
        id
    in
    let start =
      Array.fold_left ( + ) 0
        (Array.mapi (fun i d -> A.Dfa.start d * radix.(i)) parts)
    in
    ignore (intern start);
    let delta = ref [] and finals = ref [] and next = ref 0 in
    let queue = Queue.create () in
    Queue.add start queue;
    while not (Queue.is_empty queue) do
      let code = Queue.pop queue in
      let id = !next in
      incr next;
      let row = ref A.Lmap.empty and final = ref true in
      Array.iteri
        (fun i d ->
          let local = code / radix.(i) mod size.(i) in
          if not (A.Dfa.is_final d local) then final := false;
          A.Lmap.iter
            (fun l dst ->
              let dcode = code + ((dst - local) * radix.(i)) in
              let before = !count in
              let did = intern dcode in
              if did = before then Queue.add dcode queue;
              row := A.Lmap.add l did !row)
            (A.Dfa.delta d).(local))
        parts;
      delta := !row :: !delta;
      if !final then finals := id :: !finals
    done;
    A.Dfa.create ~nb_states:!count ~start:0
      ~finals:(Fsa_automata.Automata.Int_set.of_list !finals)
      ~delta:(Array.of_list (List.rev !delta))

  let product ?(max_states = max_int) engines =
    let parts =
      Array.of_list
        (List.concat_map
           (function Single s -> [ s ] | Product p -> Array.to_list p.pr_parts)
           engines)
    in
    match parts with
    | [||] -> invalid_arg "Hom.Shared.product: no engine"
    | [| s |] -> Single s
    | _ ->
      (* the product image determinises into the tuples of the parts'
         subsets: the bound holds for their product *)
      ignore
        (Array.fold_left
           (fun acc s ->
             if s.sh_cached then acc
             else if acc > max_states / max 1 s.sh_subsets then
               raise (Lts.State_space_too_large max_states)
             else acc * s.sh_subsets)
           1 parts);
      let part_of = ref Action.Map.empty in
      Array.iteri
        (fun i s ->
          Action.Set.iter
            (fun a ->
              if Action.Map.mem a !part_of then
                invalid_arg "Hom.Shared.product: alphabets overlap";
              part_of := Action.Map.add a i !part_of)
            s.sh_alphabet)
        parts;
      let cross = ref Pair_set.empty in
      Array.iteri
        (fun i si ->
          Array.iteri
            (fun j sj ->
              if i <> j then
                List.iter
                  (fun mn ->
                    List.iter
                      (fun mx -> cross := Pair_set.add (mn, mx) !cross)
                      sj.sh_maxima)
                  si.sh_minima)
            parts)
        parts;
      Product
        { pr_parts = parts;
          pr_part_of = !part_of;
          pr_alphabet =
            Array.fold_left
              (fun acc s -> Action.Set.union acc s.sh_alphabet)
              Action.Set.empty parts;
          pr_cross = !cross;
          pr_dfa = lazy (dfa_product (Array.map (fun s -> s.sh_dfa) parts)) }

  let parts = function Single s -> [| s |] | Product p -> p.pr_parts

  let alphabet = function Single s -> s.sh_alphabet | Product p -> p.pr_alphabet

  let dfa = function Single s -> s.sh_dfa | Product p -> Lazy.force p.pr_dfa

  let nb_states e =
    Array.fold_left (fun acc s -> acc * A.Dfa.nb_states s.sh_dfa) 1 (parts e)

  let cached e = Array.for_all (fun s -> s.sh_cached) (parts e)

  let timing e =
    Array.fold_left
      (fun acc s ->
        let t = s.sh_timing in
        { sb_erase_ns = Int64.add acc.sb_erase_ns t.sb_erase_ns;
          sb_determinise_ns = Int64.add acc.sb_determinise_ns t.sb_determinise_ns;
          sb_minimise_ns = Int64.add acc.sb_minimise_ns t.sb_minimise_ns;
          sb_early_ns = Int64.add acc.sb_early_ns t.sb_early_ns })
      zero_timing (parts e)

  (* A pair with its ends in two parts is independent: the other part's
     runs reach its maximum without ever firing its minimum. *)
  let early = function
    | Single s -> s.sh_early
    | Product p ->
      Array.fold_left
        (fun acc s -> Pair_set.union acc s.sh_early)
        p.pr_cross p.pr_parts

  let early_count e = Pair_set.cardinal (early e)

  let check_pair e ~min_action ~max_action =
    if
      not
        (Action.Set.mem min_action (alphabet e)
        && Action.Set.mem max_action (alphabet e))
    then
      invalid_arg
        (Fmt.str "Hom.Shared: pair (%a, %a) outside the shared alphabet"
           Action.pp min_action Action.pp max_action)

  (* The part answering a pair, or [None] for a cross-part pair. *)
  let part_of_pair e ~min_action ~max_action =
    match e with
    | Single s -> Some s
    | Product p ->
      let i = Action.Map.find min_action p.pr_part_of
      and j = Action.Map.find max_action p.pr_part_of in
      if i = j then Some p.pr_parts.(i) else None

  (* [dfa_has_target_before_avoid] on the quotient's transition table. *)
  let target_before_avoid (q : K.dfa) ~avoid ~target =
    let k = q.K.d_letters in
    let seen = Bytes.make q.K.d_states '\000' in
    let stack = Array.make q.K.d_states 0 and sp = ref 0 in
    let push s =
      if Bytes.get seen s = '\000' then begin
        Bytes.set seen s '\001';
        stack.(!sp) <- s;
        incr sp
      end
    in
    push q.K.d_start;
    let hit = ref false in
    while (not !hit) && !sp > 0 do
      decr sp;
      let s = stack.(!sp) in
      for l = 0 to k - 1 do
        let d = q.K.d_delta.((s * k) + l) in
        if d >= 0 then
          if l = target then hit := true else if l <> avoid then push d
      done
    done;
    !hit

  let depends_timed e ~min_action ~max_action =
    check_pair e ~min_action ~max_action;
    Metrics.incr m_dependence_tests;
    let t0 = Span.now_ns () in
    let dep =
      match part_of_pair e ~min_action ~max_action with
      | None -> false
      | Some s ->
        (not (Pair_set.mem (min_action, max_action) s.sh_early))
        && not
             (target_before_avoid s.sh_quotient
                ~avoid:(A.letter s.sh_letters min_action)
                ~target:(A.letter s.sh_letters max_action))
    in
    let t1 = Span.now_ns () in
    ( dep,
      (* the erase/determinise/minimise work happened once, in [build];
         per-pair rows carry only the genuinely per-pair compare time *)
      { dt_erase_ns = 0L;
        dt_determinise_ns = 0L;
        dt_minimise_ns = 0L;
        dt_compare_ns = Int64.sub t1 t0 } )

  let depends e ~min_action ~max_action =
    fst (depends_timed e ~min_action ~max_action)

  (* The pair's minimal automaton, projected from the shared quotient
     instead of recomputed from the behaviour — isomorphic to
     [minimal_automaton (preserve [min; max]) lts] by h_p = h_p . h_U
     and uniqueness of the minimal DFA.  The projection erases every
     other letter of the quotient and runs the same kernel. *)
  let project s keep =
    let kept = letters_of (Action.Set.of_list keep) in
    let map = Array.map (A.letter kept) s.sh_letters in
    let nfa = K.relabel ~nb_letters:(Array.length kept) map s.sh_quotient in
    A.Dfa.of_kernel ~letters:kept (K.minimize (K.determinize nfa))

  (* A cross-part pair's image is the shuffle of its two one-letter
     projections, whose minimal DFA is their product. *)
  let minimal_automaton e ~min_action ~max_action =
    check_pair e ~min_action ~max_action;
    Metrics.incr m_minimal_automata;
    match part_of_pair e ~min_action ~max_action with
    | Some s -> project s [ min_action; max_action ]
    | None ->
      let alone a =
        let s = Array.find_opt (fun s -> Action.Set.mem a s.sh_alphabet) (parts e) in
        project (Option.get s) [ a ]
      in
      dfa_product [| alone min_action; alone max_action |]
end

(* ------------------------------------------------------------------ *)
(* Simplicity of homomorphisms                                          *)
(* ------------------------------------------------------------------ *)

(* The SH verification tool checks "simplicity" of a homomorphism: a
   sufficient condition under which satisfaction of properties on the
   abstract level carries over (approximately) to the concrete level.  We
   implement the weak continuation-closure check on the product of the
   concrete behaviour with the minimal automaton of its image:

     for every reachable product state (q, m) and every abstract action x
     enabled in m, some concrete path from q of erased transitions
     followed by one transition t with h(t) = x must exist.

   If this holds everywhere, every abstract continuation is realisable
   from every concrete representative, so the abstraction adds no spurious
   decisions: h is simple on the given behaviour. *)
let is_simple (h : t) lts =
  let dfa = minimal_automaton h lts in
  let module IS = Fsa_automata.Automata.Int_set in
  (* the graph already indexes transitions by source state *)
  let succ = Lts.succ lts in
  let delta = A.Dfa.delta dfa in
  (* abstract letters enabled in a DFA state *)
  let enabled m = List.map fst (A.Lmap.bindings delta.(m)) in
  (* can concrete state q produce abstract letter x after erased steps? *)
  let can_produce q x =
    let rec go visited = function
      | [] -> false
      | s :: rest ->
        if IS.mem s visited then go visited rest
        else begin
          let visited = IS.add s visited in
          let hit = ref false in
          let next = ref rest in
          List.iter
            (fun tr ->
              match h tr.Lts.t_label with
              | Some y when Action.equal y x -> hit := true
              | Some _ -> ()
              | None -> next := tr.Lts.t_dst :: !next)
            (succ s);
          !hit || go visited !next
        end
    in
    go IS.empty [ q ]
  in
  (* BFS over reachable product states *)
  let module PS = Set.Make (struct
    type t = int * int

    let compare = Stdlib.compare
  end) in
  let step_abstract m l = A.Dfa.step dfa m l in
  let ok = ref true in
  let visited = ref PS.empty in
  let queue = Queue.create () in
  Queue.add (Lts.initial lts, A.Dfa.start dfa) queue;
  while (not (Queue.is_empty queue)) && !ok do
    let (q, m) as ps = Queue.pop queue in
    if not (PS.mem ps !visited) then begin
      visited := PS.add ps !visited;
      List.iter
        (fun x -> if not (can_produce q x) then ok := false)
        (enabled m);
      List.iter
        (fun tr ->
          match h tr.Lts.t_label with
          | None -> Queue.add (tr.Lts.t_dst, m) queue
          | Some x -> (
            match step_abstract m x with
            | Some m' -> Queue.add (tr.Lts.t_dst, m') queue
            | None -> ok := false (* image outside abstract language *)))
        (succ q)
    end
  done;
  !ok

(* ------------------------------------------------------------------ *)
(* Rendering                                                            *)
(* ------------------------------------------------------------------ *)

let dot ?(name = "minimal_automaton") (h : t) lts =
  A.Dfa.dot ~name (minimal_automaton h lts)

(* A compact description of the shape of a minimal automaton, used to
   compare against the figures of the paper. *)
let describe_dfa dfa =
  Fmt.str "%d states, %d transitions, %d final" (A.Dfa.nb_states dfa)
    (A.Dfa.nb_transitions dfa)
    (Fsa_automata.Automata.Int_set.cardinal (A.Dfa.finals dfa))
