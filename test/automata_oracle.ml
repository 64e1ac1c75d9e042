(* The label-keyed automaton algorithms the integer kernel
   ({!Fsa_automata.Kernel}) replaced, kept as test oracles: subset
   construction over [Int_set]-keyed maps, Moore's iterated partition
   refinement, and the shared engine's early-decision pass over the
   graph's transition lists.  Slow, but simple enough to trust: the
   kernel's [determinize] must equal {!Make.determinize} state for
   state, its [minimize] must be isomorphic to {!Make.minimize_moore},
   and the shared engine must agree with {!Shared} on every quotient
   and early decision. *)

module Int_set = Fsa_automata.Automata.Int_set

module Make
    (L : Fsa_automata.Automata.LABEL)
    (A : module type of Fsa_automata.Automata.Make (L)) =
struct
  (* Adjacency indexed by source state. *)
  let successors nfa =
    let succ = Array.make (A.Nfa.nb_states nfa) [] in
    List.iter
      (fun (s, l, d) -> succ.(s) <- (l, d) :: succ.(s))
      (A.Nfa.edges nfa);
    succ

  let eps_closure succ set =
    let rec go visited = function
      | [] -> visited
      | s :: rest ->
        if Int_set.mem s visited then go visited rest
        else
          let next =
            List.filter_map
              (fun (l, d) -> match l with None -> Some d | Some _ -> None)
              succ.(s)
          in
          go (Int_set.add s visited) (next @ rest)
    in
    go Int_set.empty (Int_set.elements set)

  let step_on succ set l =
    Int_set.fold
      (fun s acc ->
        List.fold_left
          (fun acc (l', d) ->
            match l' with
            | Some l'' when L.compare l l'' = 0 -> Int_set.add d acc
            | Some _ | None -> acc)
          acc succ.(s))
      set Int_set.empty

  (* Subset construction.  Only reachable subsets are materialised. *)
  let determinize nfa =
    let succ = successors nfa in
    let module Sm = Map.Make (Int_set) in
    let start_set = eps_closure succ (A.Nfa.start nfa) in
    let index = ref (Sm.singleton start_set 0) in
    let sets = ref [ start_set ] in
    let nb = ref 1 in
    let delta_acc = ref [] in
    let queue = Queue.create () in
    Queue.add (0, start_set) queue;
    while not (Queue.is_empty queue) do
      let id, set = Queue.pop queue in
      let labels =
        Int_set.fold
          (fun s acc ->
            List.fold_left
              (fun acc (l, _) ->
                match l with None -> acc | Some l -> A.Lset.add l acc)
              acc succ.(s))
          set A.Lset.empty
      in
      let trans =
        A.Lset.fold
          (fun l acc ->
            let target = eps_closure succ (step_on succ set l) in
            if Int_set.is_empty target then acc
            else
              let tid =
                match Sm.find_opt target !index with
                | Some tid -> tid
                | None ->
                  let tid = !nb in
                  index := Sm.add target tid !index;
                  sets := target :: !sets;
                  incr nb;
                  Queue.add (tid, target) queue;
                  tid
              in
              A.Lmap.add l tid acc)
          labels A.Lmap.empty
      in
      delta_acc := (id, trans) :: !delta_acc
    done;
    let nb_states = !nb in
    let delta = Array.make nb_states A.Lmap.empty in
    List.iter (fun (id, m) -> delta.(id) <- m) !delta_acc;
    let finals =
      List.fold_left
        (fun acc set ->
          let id = Sm.find set !index in
          if Int_set.is_empty (Int_set.inter set (A.Nfa.finals nfa)) then acc
          else Int_set.add id acc)
        Int_set.empty !sets
    in
    A.Dfa.create ~nb_states ~start:0 ~finals ~delta

  (* Moore minimisation: iterated partition refinement by successor
     blocks.  Runs on the completed automaton, then trims the sink. *)
  let minimize_moore t =
    let t = A.Dfa.trim t in
    let sigma = A.Dfa.alphabet t in
    let t = A.Dfa.complete ~alphabet:sigma t in
    let n = A.Dfa.nb_states t in
    let block = Array.init n (fun s -> if A.Dfa.is_final t s then 1 else 0) in
    let changed = ref true in
    while !changed do
      changed := false;
      (* signature of a state: its block plus successor blocks *)
      let module Sig = Map.Make (struct
        type t = int * int option list

        let compare = Stdlib.compare
      end) in
      let signature s =
        ( block.(s),
          A.Lset.fold
            (fun l acc ->
              (match A.Dfa.step t s l with
              | Some d -> Some block.(d)
              | None -> None)
              :: acc)
            sigma [] )
      in
      let index = ref Sig.empty in
      let next = Array.make n 0 in
      let nb = ref 0 in
      for s = 0 to n - 1 do
        let g = signature s in
        match Sig.find_opt g !index with
        | Some b -> next.(s) <- b
        | None ->
          index := Sig.add g !nb !index;
          next.(s) <- !nb;
          incr nb
      done;
      if next <> block then begin
        Array.blit next 0 block 0 n;
        changed := true
      end
    done;
    let nb = Array.fold_left (fun acc b -> max acc (b + 1)) 0 block in
    let delta = Array.make nb A.Lmap.empty in
    Array.iteri
      (fun s m ->
        delta.(block.(s)) <-
          A.Lmap.fold
            (fun l d acc -> A.Lmap.add l block.(d) acc)
            m delta.(block.(s)))
      (A.Dfa.delta t);
    let finals =
      Int_set.fold (fun s acc -> Int_set.add block.(s) acc) (A.Dfa.finals t)
        Int_set.empty
    in
    A.Dfa.trim
      (A.Dfa.create ~nb_states:nb ~start:block.(A.Dfa.start t) ~finals ~delta)
end

(* ------------------------------------------------------------------ *)
(* The abstraction pipeline on reachability graphs                      *)
(* ------------------------------------------------------------------ *)

module Shared = struct
  module Action = Fsa_term.Action
  module Lts = Fsa_lts.Lts
  module Hom = Fsa_hom.Hom
  include Make (Hom.Action_label) (Hom.A)

  let minimal_automaton h lts =
    minimize_moore (determinize (Hom.image_nfa h lts))

  (* The early-decision pass: avoid.(s) is the set of minima some path
     from the initial state to [s] avoids; (mn, mx) is independent as
     soon as an mx-edge leaves a state whose avoid-set holds mn. *)
  let early_pairs ~minima ~maxima lts =
    let n = Lts.nb_states lts in
    let avoid = Array.make n Action.Set.empty in
    let init = Lts.initial lts in
    avoid.(init) <- Action.Set.of_list minima;
    let queue = Queue.create () in
    Queue.add init queue;
    while not (Queue.is_empty queue) do
      let s = Queue.pop queue in
      List.iter
        (fun tr ->
          let d = tr.Lts.t_dst in
          let merged =
            Action.Set.union avoid.(d)
              (Action.Set.remove tr.Lts.t_label avoid.(s))
          in
          if not (Action.Set.equal merged avoid.(d)) then begin
            avoid.(d) <- merged;
            Queue.add d queue
          end)
        (Lts.succ lts s)
    done;
    Lts.fold_transitions
      (fun tr acc ->
        if List.exists (Action.equal tr.Lts.t_label) maxima then
          Action.Set.fold
            (fun mn acc -> Hom.Pair_set.add (mn, tr.Lts.t_label) acc)
            avoid.(tr.Lts.t_src) acc
        else acc)
      lts Hom.Pair_set.empty
end
