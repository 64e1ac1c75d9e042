(* Reachability graphs (Definition 3 of the paper).

   The behaviour of an APA is the set of all coherent sequences of state
   transitions starting in the initial state; state transitions are the
   labelled edges of a directed graph whose nodes are the reachable global
   states.  States are numbered in breadth-first discovery order starting
   from 1, and printed M-1, M-2, ... in the style of the SH verification
   tool. *)

module Term = Fsa_term.Term
module Action = Fsa_term.Action
module State = Fsa_apa.Apa.State

type transition = { t_src : int; t_label : Action.t; t_dst : int }

(* An explored (or imported) graph.  [steps] lists every transition in
   discovery order: grouped by source, and within one source in the
   order [Apa.step] enumerated them (rule by rule in declaration order).
   The product walk replays that order; [succs] is sorted instead. *)
type graph = {
  apa_name : string;
  states : State.t array;
  initial : int;  (* always 0 *)
  succs : transition list array;  (* outgoing transitions, by source *)
  preds : transition list array;  (* incoming transitions, by target *)
  steps : transition array;
  step_off : int array;  (* steps of source [s]: [step_off.(s)] to [step_off.(s+1) - 1] *)
}

(* The product of independent module graphs (see [product]): the
   statistics, minima, maxima and dead states come from the modules and
   one numbering walk; the explicit graph is built on first demand. *)
type product = {
  p_modules : graph array;
  p_deadlocks : int list;
  p_explicit : graph Lazy.t;
}

type t = Graph of graph | Product of product

exception State_space_too_large of int

let log_src = Logs.Src.create "fsa.lts" ~doc:"state-space exploration"

module Log = (val Logs.src_log log_src)

module Metrics = Fsa_obs.Metrics
module Span = Fsa_obs.Span
module Progress = Fsa_obs.Progress

let m_states = Metrics.counter "lts.states_explored"
let m_transitions = Metrics.counter "lts.transitions"
let m_dedup = Metrics.counter "lts.dedup_hits"
let g_frontier_peak = Metrics.gauge "lts.frontier_peak"
let g_rate = Metrics.gauge "lts.states_per_sec"

let h_out_degree =
  Metrics.histogram ~buckets:[| 0.; 1.; 2.; 4.; 8.; 16.; 32.; 64. |]
    "lts.out_degree"

module State_table = Hashtbl.Make (struct
  type t = State.t

  let equal = State.equal
  let hash = State.hash
end)

(* Growable arrays for the exploration accumulators.  The previous list
   accumulators were built reversed and re-walked at the end; appending
   into a doubling array keeps the hot loop allocation-light and the
   final assembly a plain [Array.sub]. *)
module Buf = struct
  type 'a t = { mutable data : 'a array; mutable len : int }

  let create () = { data = [||]; len = 0 }
  let length b = b.len
  let get b i = b.data.(i)

  let push b x =
    let cap = Array.length b.data in
    if b.len = cap then begin
      let data = Array.make (max 16 (2 * cap)) x in
      Array.blit b.data 0 data 0 b.len;
      b.data <- data
    end;
    b.data.(b.len) <- x;
    b.len <- b.len + 1

  let to_array b = Array.sub b.data 0 b.len
end

(* Exploration-time reduction hooks (symmetry / partial order, see
   Fsa_sym).  Both must be pure functions of their arguments: the
   explorer applies them transition by transition, and the state
   numbering is reproducible only if they are. *)
type reduction = {
  rd_canon : State.t -> State.t;
      (* canonical orbit representative; applied to every successor
         before interning (never to the initial state) *)
  rd_ample :
    State.t ->
    (Fsa_apa.Apa.rule * Action.t * State.t) list ->
    (Fsa_apa.Apa.rule * Action.t * State.t) list;
      (* restrict a state's enabled transitions to an ample subset *)
}

let no_reduction = { rd_canon = Fun.id; rd_ample = (fun _ succs -> succs) }

(* Keep transition lists deterministically ordered. *)
let order_transition a b =
  let c = Stdlib.compare a.t_src b.t_src in
  if c <> 0 then c
  else
    let c = Action.compare a.t_label b.t_label in
    if c <> 0 then c else Stdlib.compare a.t_dst b.t_dst

(* Shared final assembly: the explorer, the importer ([of_edges]) and
   the product hand their states (in BFS order) and their transitions
   (grouped by source, in discovery order) to this, so the resulting
   structures are constructed identically. *)
let assemble ~apa_name ~states ~steps =
  let n = Array.length states in
  let succs = Array.make n [] in
  let step_off = Array.make (n + 1) 0 in
  Array.iter
    (fun tr ->
      succs.(tr.t_src) <- tr :: succs.(tr.t_src);
      step_off.(tr.t_src + 1) <- step_off.(tr.t_src + 1) + 1)
    steps;
  for i = 0 to n - 1 do
    step_off.(i + 1) <- step_off.(i + 1) + step_off.(i)
  done;
  Array.iteri (fun i l -> succs.(i) <- List.sort order_transition l) succs;
  (* walking the sorted successor lists backwards, last source first,
     conses every predecessor list into [order_transition] order *)
  let preds = Array.make n [] in
  for i = n - 1 downto 0 do
    List.iter
      (fun tr -> preds.(tr.t_dst) <- tr :: preds.(tr.t_dst))
      (List.rev succs.(i))
  done;
  { apa_name; states; initial = 0; succs; preds; steps; step_off }

let explore ?(max_states = 1_000_000) ?(reduce = no_reduction) ?progress apa =
  Span.with_ ~cat:"lts" "lts.explore" @@ fun () ->
  let obs = Metrics.enabled () in
  let t0 = if obs then Span.now_ns () else 0L in
  let initial = Fsa_apa.Apa.initial_state apa in
  let index = State_table.create 1024 in
  State_table.replace index initial 0;
  (* the states buffer doubles as the BFS queue: states are appended in
     discovery order and expanded in append order *)
  let states = Buf.create () in
  Buf.push states initial;
  let edges = Buf.create () in
  let cursor = ref 0 in
  (* Progress and the rate gauge are finalized on every exit path:
     aborting on State_space_too_large used to leave the live progress
     line dangling and [lts.states_per_sec] unset. *)
  Fun.protect
    ~finally:(fun () ->
      if obs then begin
        let elapsed = Int64.to_float (Int64.sub (Span.now_ns ()) t0) /. 1e9 in
        if elapsed > 0. then
          Metrics.set_gauge g_rate (float_of_int (Buf.length states) /. elapsed)
      end;
      match progress with
      | Some p -> Progress.finish p ~count:(Buf.length states)
      | None -> ())
  @@ fun () ->
  while !cursor < Buf.length states do
    let src_id = !cursor in
    let src = Buf.get states src_id in
    incr cursor;
    let succs = reduce.rd_ample src (Fsa_apa.Apa.step apa src) in
    if obs then begin
      Metrics.incr m_states;
      Metrics.incr ~by:(List.length succs) m_transitions;
      Metrics.observe h_out_degree (float_of_int (List.length succs));
      Metrics.set_gauge_max g_frontier_peak
        (float_of_int (Buf.length states - !cursor))
    end;
    (match progress with
    | Some p ->
      Progress.tick p ~count:(Buf.length states)
        ~frontier:(Buf.length states - !cursor)
    | None -> ());
    List.iter
      (fun (_rule, label, dst) ->
        let dst = reduce.rd_canon dst in
        let dst_id =
          match State_table.find_opt index dst with
          | Some id ->
            if obs then Metrics.incr m_dedup;
            id
          | None ->
            let id = Buf.length states in
            if id >= max_states then raise (State_space_too_large max_states);
            State_table.replace index dst id;
            Buf.push states dst;
            id
        in
        Buf.push edges { t_src = src_id; t_label = label; t_dst = dst_id })
      succs
  done;
  Log.debug (fun m ->
      m "explored %s: %d states, %d transitions" (Fsa_apa.Apa.name apa)
        (Buf.length states) (Buf.length edges));
  Graph
    (assemble ~apa_name:(Fsa_apa.Apa.name apa) ~states:(Buf.to_array states)
       ~steps:(Buf.to_array edges))

(* Synthetic / imported graphs: states carry no APA content.  Intended
   for tests and for ingesting externally computed reachability graphs;
   state 0 is the initial state. *)
let of_edges ?(name = "imported") ~nb_states edges =
  if nb_states <= 0 then invalid_arg "Lts.of_edges: nb_states must be positive";
  List.iter
    (fun tr ->
      if
        tr.t_src < 0 || tr.t_src >= nb_states || tr.t_dst < 0
        || tr.t_dst >= nb_states
      then invalid_arg "Lts.of_edges: transition endpoint out of range")
    edges;
  let by_src a b = Int.compare a.t_src b.t_src in
  Graph
    (assemble ~apa_name:name
       ~states:(Array.make nb_states State.empty)
       ~steps:(Array.of_list (List.stable_sort by_src edges)))

(* ------------------------------------------------------------------ *)
(* Products of independent modules                                     *)
(* ------------------------------------------------------------------ *)

let alphabet_g g =
  Array.fold_left
    (fun acc tr -> Action.Set.add tr.t_label acc)
    Action.Set.empty g.steps

let deadlocks_g g =
  let acc = ref [] in
  for i = Array.length g.states - 1 downto 0 do
    if g.succs.(i) = [] then acc := i :: !acc
  done;
  !acc

let minima_g g =
  List.fold_left
    (fun acc tr -> Action.Set.add tr.t_label acc)
    Action.Set.empty g.succs.(g.initial)

let maxima_g g =
  List.fold_left
    (fun acc dead ->
      List.fold_left
        (fun acc tr -> Action.Set.add tr.t_label acc)
        acc g.preds.(dead))
    Action.Set.empty (deadlocks_g g)

(* The numbering walk.  A product state is a tuple of module states,
   encoded in mixed radix (module [i] is digit [i], of base the module's
   state count).  The walk expands product states in id order and
   numbers each new successor on first sight, exactly as [explore] does
   on the whole APA: there, the successors of a state come from
   [Apa.step], rule by rule in declaration order; here, each module
   contributes the steps of its local state in its own discovery order,
   and the module lists are merged by the global rank of the rule that
   fired each step.  So the ids are [explore]'s BFS ids.  [on_edge src
   i e dst] sees every product transition: step [e] of module [i], from
   product state [src] to [dst].  Returns the product states' codes in
   id order and the dead states' ids, ascending. *)
let walk ?progress ~on_edge (mods : graph array) (rank : int array array) =
  let k = Array.length mods in
  let size = Array.map (fun g -> Array.length g.states) mods in
  let radix = Array.make k 1 in
  for i = 1 to k - 1 do
    radix.(i) <- radix.(i - 1) * size.(i - 1)
  done;
  let n = radix.(k - 1) * size.(k - 1) in
  let ids = Array.make n (-1) and codes = Array.make n 0 in
  ids.(0) <- 0;
  let count = ref 1 and dead = ref [] in
  let loc = Array.make k 0 and ptr = Array.make k 0 in
  let id = ref 0 in
  while !id < !count do
    let src = !id in
    let code = codes.(src) in
    for i = 0 to k - 1 do
      let l = code / radix.(i) mod size.(i) in
      loc.(i) <- l;
      ptr.(i) <- mods.(i).step_off.(l)
    done;
    let fired = ref false and more = ref true in
    while !more do
      (* the module whose next step has the lowest rule rank *)
      let best = ref (-1) and best_rank = ref 0 in
      for i = 0 to k - 1 do
        let e = ptr.(i) in
        if
          e < mods.(i).step_off.(loc.(i) + 1)
          && (!best < 0 || rank.(i).(e) < !best_rank)
        then begin
          best := i;
          best_rank := rank.(i).(e)
        end
      done;
      if !best < 0 then more := false
      else begin
        let i = !best in
        let e = ptr.(i) in
        ptr.(i) <- e + 1;
        fired := true;
        let dcode = code + ((mods.(i).steps.(e).t_dst - loc.(i)) * radix.(i)) in
        let dst =
          match ids.(dcode) with
          | -1 ->
            let d = !count in
            ids.(dcode) <- d;
            codes.(d) <- dcode;
            incr count;
            d
          | d -> d
        in
        on_edge src i e dst
      end
    done;
    if not !fired then dead := src :: !dead;
    incr id;
    match progress with
    | Some p -> Progress.tick p ~count:!count ~frontier:(!count - !id)
    | None -> ()
  done;
  if !count <> n then
    invalid_arg "Lts.product: a module state is unreachable from its initial state";
  (match progress with Some p -> Progress.finish p ~count:n | None -> ());
  (codes, List.rev !dead)

(* The APA state of a product state: each module only ever changes the
   components it owns, so a component differing from the initial state
   in some module's local state takes that module's contents. *)
let product_state (mods : graph array) code =
  let init = mods.(0).states.(0) in
  let st = ref init and code = ref code in
  Array.iter
    (fun g ->
      let n = Array.length g.states in
      let local = g.states.(!code mod n) in
      code := !code / n;
      List.iter
        (fun c ->
          let v = State.get c local in
          if not (Term.Set.equal v (State.get c init)) then
            st := State.set c v !st)
        (State.components local))
    mods;
  !st

let explicit_product mods rank =
  let edges = Buf.create () in
  let codes, _ =
    walk mods rank ~on_edge:(fun src i e dst ->
        Buf.push edges
          { t_src = src; t_label = mods.(i).steps.(e).t_label; t_dst = dst })
  in
  assemble ~apa_name:mods.(0).apa_name
    ~states:(Array.map (product_state mods) codes)
    ~steps:(Buf.to_array edges)

let product ?progress ~rank ts =
  let mods =
    Array.of_list
      (List.concat_map
         (function Graph g -> [ g ] | Product p -> Array.to_list p.p_modules)
         ts)
  in
  match mods with
  | [||] -> invalid_arg "Lts.product: no module"
  | [| g |] -> Graph g
  | _ ->
    ignore
      (Array.fold_left
         (fun acc g ->
           let n = Array.length g.states in
           if acc > max_int / n then
             invalid_arg "Lts.product: state count overflows";
           acc * n)
         1 mods);
    let rank =
      Array.map (fun g -> Array.map (fun tr -> rank tr.t_label) g.steps) mods
    in
    let _, dead =
      Span.with_ ~cat:"lts" "lts.product" (fun () ->
          walk ?progress ~on_edge:(fun _ _ _ _ -> ()) mods rank)
    in
    Product
      { p_modules = mods;
        p_deadlocks = dead;
        p_explicit = lazy (explicit_product mods rank) }

let explicit = function Graph g -> g | Product p -> Lazy.force p.p_explicit

let name = function
  | Graph g -> g.apa_name
  | Product p -> p.p_modules.(0).apa_name

let nb_states = function
  | Graph g -> Array.length g.states
  | Product p ->
    Array.fold_left (fun acc g -> acc * Array.length g.states) 1 p.p_modules

(* Every product state offers module [i]'s steps of its local state:
   T_i transitions per combination of the other modules' states. *)
let nb_transitions = function
  | Graph g -> Array.length g.steps
  | Product p as t ->
    let n = nb_states t in
    Array.fold_left
      (fun acc g -> acc + (Array.length g.steps * (n / Array.length g.states)))
      0 p.p_modules

let initial = function Graph g -> g.initial | Product _ -> 0
let state t i = (explicit t).states.(i)
let succ t i = (explicit t).succs.(i)
let pred t i = (explicit t).preds.(i)

let transitions t = Array.to_list (explicit t).succs |> List.concat

let iter_transitions f t =
  Array.iter (fun l -> List.iter f l) (explicit t).succs

let fold_transitions f t acc =
  Array.fold_left
    (fun acc l -> List.fold_left (fun acc tr -> f tr acc) acc l)
    acc (explicit t).succs

let state_name i = Printf.sprintf "M-%d" (i + 1)

let fold_states f t acc =
  let acc = ref acc in
  for i = 0 to nb_states t - 1 do
    acc := f i !acc
  done;
  !acc

let union_over f p =
  Array.fold_left
    (fun acc g -> Action.Set.union acc (f g))
    Action.Set.empty p.p_modules

let alphabet = function
  | Graph g -> alphabet_g g
  | Product p -> union_over alphabet_g p

(* Dead states: no outgoing transition ("+++ dead +++" in the tool). *)
let deadlocks = function
  | Graph g -> deadlocks_g g
  | Product p -> p.p_deadlocks

(* Minima of the partial order of functionally dependent actions: every
   action leaving the initial state on any trace is a minimum, because it
   does not depend on any other action having occurred before
   (Sect. 5.4).  The product's initial state offers every module's. *)
let minima = function
  | Graph g -> minima_g g
  | Product p -> union_over minima_g p

(* Maxima: the actions leading into a dead state from any trace — they do
   not trigger any further action after they have been performed.  A
   product state is dead iff every module's local state is, so a module's
   action enters a dead product state iff it enters a dead local state
   and every other module can die. *)
let maxima = function
  | Graph g -> maxima_g g
  | Product p ->
    if Array.for_all (fun g -> deadlocks_g g <> []) p.p_modules then
      union_over maxima_g p
    else Action.Set.empty

(* Shortest trace (sequence of labels) from the initial state to state [i]. *)
let trace_to t i =
  let g = explicit t in
  let n = nb_states t in
  let prev = Array.make n None in
  let visited = Array.make n false in
  let queue = Queue.create () in
  visited.(g.initial) <- true;
  Queue.add g.initial queue;
  (try
     while not (Queue.is_empty queue) do
       let s = Queue.pop queue in
       if s = i then raise Exit;
       List.iter
         (fun tr ->
           if not visited.(tr.t_dst) then begin
             visited.(tr.t_dst) <- true;
             prev.(tr.t_dst) <- Some tr;
             Queue.add tr.t_dst queue
           end)
         g.succs.(s)
     done
   with Exit -> ());
  if not visited.(i) then None
  else begin
    let rec build acc s =
      if s = g.initial then acc
      else
        match prev.(s) with
        | None -> acc
        | Some tr -> build (tr.t_label :: acc) tr.t_src
    in
    Some (build [] i)
  end

(* All words of the (prefix-closed) action language up to length [n] —
   exponential, for tests and small examples only. *)
let words ~max_len t =
  let g = explicit t in
  let rec go acc word len s =
    let acc = List.rev word :: acc in
    if len = max_len then acc
    else
      List.fold_left
        (fun acc tr -> go acc (tr.t_label :: word) (len + 1) tr.t_dst)
        acc g.succs.(s)
  in
  List.sort_uniq (List.compare Action.compare) (go [] [] 0 g.initial)

(* Does some occurrence of a [target]-labelled transition happen on a path
   from the initial state that contains no prior [before]-labelled
   transition?  Used for the direct (non-abstracted) functional dependence
   test: [target] depends on [before] iff no such path exists. *)
let reachable_without t ~avoid ~target =
  let g = explicit t in
  let n = nb_states t in
  let visited = Array.make n false in
  let queue = Queue.create () in
  visited.(g.initial) <- true;
  Queue.add g.initial queue;
  let found = ref false in
  while not (Queue.is_empty queue || !found) do
    let s = Queue.pop queue in
    List.iter
      (fun tr ->
        if target tr.t_label then found := true
        else if (not (avoid tr.t_label)) && not visited.(tr.t_dst) then begin
          visited.(tr.t_dst) <- true;
          Queue.add tr.t_dst queue
        end)
      g.succs.(s)
  done;
  !found

let depends_on t ~max_action ~min_action =
  not
    (reachable_without t
       ~avoid:(Action.equal min_action)
       ~target:(Action.equal max_action))

(* The number of complete runs (maximal paths from the initial state to a
   dead state); [None] when the graph has a cycle.  For the paper's
   every-action-once scenarios this equals the number of linear
   extensions of the event poset.

   Iterative with an explicit stack: the natural recursion is one frame
   per path edge and overflows the OCaml stack on long-chain graphs. *)
let count_complete_runs t =
  let g = explicit t in
  let n = nb_states t in
  let colour = Array.make n 0 in (* 0 unvisited, 1 on stack, 2 done *)
  let memo = Array.make n (-1) in
  let exception Cyclic in
  (* frame: state, successors not yet accounted, partial sum *)
  let stack : (int * transition list ref * int ref) Stack.t =
    Stack.create ()
  in
  let enter s =
    colour.(s) <- 1;
    Stack.push (s, ref g.succs.(s), ref 0) stack
  in
  try
    enter g.initial;
    while not (Stack.is_empty stack) do
      let s, rest, acc = Stack.top stack in
      match !rest with
      | [] ->
        ignore (Stack.pop stack);
        let total = if g.succs.(s) = [] then 1 else !acc in
        colour.(s) <- 2;
        memo.(s) <- total;
        (match Stack.top_opt stack with
        | Some (_, _, acc') -> acc' := !acc' + total
        | None -> ())
      | tr :: tl ->
        rest := tl;
        let d = tr.t_dst in
        if memo.(d) >= 0 then acc := !acc + memo.(d)
        else if colour.(d) = 1 then raise Cyclic
        else enter d
    done;
    Some memo.(g.initial)
  with Cyclic -> None

(* Classify dead states into complete runs and stuck (incomplete) ones by
   a caller-supplied completion predicate on states — a modelling-error
   diagnostic: a stuck deadlock usually indicates a message consumed by a
   component that could not process it. *)
type deadlock_report = { dr_complete : int list; dr_stuck : int list }

let classify_deadlocks t ~complete =
  let g = explicit t in
  let complete_l, stuck =
    List.partition (fun s -> complete g.states.(s)) (deadlocks_g g)
  in
  { dr_complete = complete_l; dr_stuck = stuck }

type stats = {
  nb_states : int;
  nb_transitions : int;
  nb_deadlocks : int;
  nb_labels : int;
}

let stats t =
  { nb_states = nb_states t;
    nb_transitions = nb_transitions t;
    nb_deadlocks = List.length (deadlocks t);
    nb_labels = Action.Set.cardinal (alphabet t) }

let pp_stats ppf s =
  Fmt.pf ppf "states: %d, transitions: %d, dead states: %d, labels: %d"
    s.nb_states s.nb_transitions s.nb_deadlocks s.nb_labels

let dot ?(name = "reachability") t =
  let g = explicit t in
  let d = Fsa_graph.Dot.create ~graph_attrs:[ ("rankdir", "TB") ] name in
  let dead = deadlocks_g g in
  Array.iteri
    (fun i _ ->
      let attrs =
        if i = g.initial then [ ("shape", "box"); ("style", "bold") ]
        else if List.mem i dead then [ ("shape", "doublecircle") ]
        else []
      in
      Fsa_graph.Dot.node ~attrs d (state_name i))
    g.states;
  iter_transitions
    (fun tr ->
      Fsa_graph.Dot.edge
        ~attrs:[ ("label", Action.to_string tr.t_label) ]
        d (state_name tr.t_src) (state_name tr.t_dst))
    t;
  Fsa_graph.Dot.to_string d

(* The tool's summary of minima and maxima (Example 6): minima with the
   state reached from M-1 by that action; maxima with the state from which
   the dead state is entered. *)
let pp_min_max ppf t =
  let g = explicit t in
  let minima_entries =
    List.map (fun tr -> (tr.t_label, tr.t_dst)) g.succs.(g.initial)
  in
  let maxima_entries =
    List.concat_map
      (fun dead -> List.map (fun tr -> (tr.t_label, tr.t_src)) g.preds.(dead))
      (deadlocks_g g)
  in
  let pp_entry ppf (a, s) =
    Fmt.pf ppf "%a %s" Action.pp a (state_name s)
  in
  Fmt.pf ppf "@[<v>The minima of this analysis:@,%a@,The corresponding maxima:@,%a@]"
    Fmt.(list ~sep:cut pp_entry)
    minima_entries
    Fmt.(list ~sep:cut pp_entry)
    maxima_entries
