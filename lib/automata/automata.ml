(* Finite automata over an arbitrary ordered label alphabet.

   The SH verification tool computes, for every homomorphic image of a
   behaviour, the corresponding minimal deterministic automaton (citing
   Eilenberg).  This module provides the underlying machinery: NFAs with
   epsilon transitions (the result of applying an alphabetic language
   homomorphism to a reachability graph), subset construction, completion,
   minimisation, language operations and decision procedures.  Subset
   construction and Hopcroft minimisation run in the integer {!Kernel};
   this functor interns the label alphabet on the way in and rebuilds the
   label-keyed automaton on the way out. *)

module Int_set = Set.Make (Int)

module type LABEL = sig
  type t

  val compare : t -> t -> int
  val pp : t Fmt.t
end

module Make (L : LABEL) = struct
  module Lset = Set.Make (L)
  module Lmap = Map.Make (L)

  (* Binary search in a sorted array of distinct labels. *)
  let letter letters l =
    let rec go lo hi =
      if lo >= hi then -1
      else
        let mid = (lo + hi) / 2 in
        let c = L.compare l letters.(mid) in
        if c = 0 then mid else if c < 0 then go lo mid else go (mid + 1) hi
    in
    go 0 (Array.length letters)

  (* ---------------------------------------------------------------- *)
  (* Nondeterministic finite automata with epsilon transitions          *)
  (* ---------------------------------------------------------------- *)

  module Nfa = struct
    type t = {
      nb_states : int;
      start : Int_set.t;
      finals : Int_set.t;
      edges : (int * L.t option * int) list;  (* None = epsilon *)
    }

    let create ~nb_states ~start ~finals ~edges =
      let check s =
        if s < 0 || s >= nb_states then
          invalid_arg (Printf.sprintf "Nfa.create: state %d out of range" s)
      in
      Int_set.iter check start;
      Int_set.iter check finals;
      List.iter (fun (s, _, d) -> check s; check d) edges;
      { nb_states; start; finals; edges }

    let nb_states t = t.nb_states
    let start t = t.start
    let finals t = t.finals
    let edges t = t.edges

    let alphabet t =
      List.fold_left
        (fun acc (_, l, _) ->
          match l with None -> acc | Some l -> Lset.add l acc)
        Lset.empty t.edges

    (* Adjacency indexed by source state. *)
    let successors t =
      let succ = Array.make t.nb_states [] in
      List.iter (fun (s, l, d) -> succ.(s) <- (l, d) :: succ.(s)) t.edges;
      succ

    let eps_closure_of succ set =
      let rec go visited = function
        | [] -> visited
        | s :: rest ->
          if Int_set.mem s visited then go visited rest
          else
            let visited = Int_set.add s visited in
            let next =
              List.filter_map
                (fun (l, d) -> match l with None -> Some d | Some _ -> None)
                succ.(s)
            in
            go visited (next @ rest)
      in
      go Int_set.empty (Int_set.elements set)

    let eps_closure t set = eps_closure_of (successors t) set

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

    let accepts t word =
      let succ = successors t in
      let current =
        List.fold_left
          (fun set l -> eps_closure_of succ (step_on succ set l))
          (eps_closure_of succ t.start)
          word
      in
      not (Int_set.is_empty (Int_set.inter current t.finals))
  end

  (* ---------------------------------------------------------------- *)
  (* Deterministic finite automata                                      *)
  (* ---------------------------------------------------------------- *)

  module Dfa = struct
    (* Partial DFAs: missing transitions go to an implicit non-accepting
       sink.  [delta] is indexed by state. *)
    type t = {
      nb_states : int;
      start : int;
      finals : Int_set.t;
      delta : int Lmap.t array;
    }

    let create ~nb_states ~start ~finals ~delta =
      if Array.length delta <> nb_states then
        invalid_arg "Dfa.create: delta length mismatch";
      if start < 0 || start >= nb_states then invalid_arg "Dfa.create: start";
      { nb_states; start; finals; delta }

    let nb_states t = t.nb_states
    let start t = t.start
    let finals t = t.finals
    let delta t = t.delta
    let is_final t s = Int_set.mem s t.finals

    let alphabet t =
      Array.fold_left
        (fun acc m -> Lmap.fold (fun l _ acc -> Lset.add l acc) m acc)
        Lset.empty t.delta

    let step t s l = Lmap.find_opt l t.delta.(s)

    let accepts t word =
      let rec go s = function
        | [] -> is_final t s
        | l :: rest -> (
          match step t s l with None -> false | Some s' -> go s' rest)
      in
      go t.start word

    let transitions t =
      let acc = ref [] in
      Array.iteri
        (fun s m -> Lmap.iter (fun l d -> acc := (s, l, d) :: !acc) m)
        t.delta;
      List.rev !acc

    let nb_transitions t =
      Array.fold_left (fun acc m -> acc + Lmap.cardinal m) 0 t.delta

    (* The bridge to the integer kernel: letter [i] is [letters.(i)], a
       sorted array of distinct labels, so ascending letter ids are
       ascending labels and kernel output numbering is label-stable. *)
    let letter_id letters l =
      match letter letters l with
      | -1 -> invalid_arg "Dfa: label outside the letter array"
      | i -> i

    let letters_of sigma = Array.of_seq (Lset.to_seq sigma)

    let to_kernel ~letters t =
      let k = Array.length letters in
      let delta = Array.make (t.nb_states * k) (-1) in
      Array.iteri
        (fun s m ->
          Lmap.iter (fun l d -> delta.((s * k) + letter_id letters l) <- d) m)
        t.delta;
      let final = Bytes.make t.nb_states '\000' in
      Int_set.iter (fun s -> Bytes.set final s '\001') t.finals;
      { Kernel.d_states = t.nb_states;
        d_letters = k;
        d_start = t.start;
        d_final = final;
        d_delta = delta }

    let of_kernel ~letters (d : Kernel.dfa) =
      let k = d.Kernel.d_letters in
      let delta =
        Array.init d.Kernel.d_states (fun s ->
            let m = ref Lmap.empty in
            for l = k - 1 downto 0 do
              let t = d.Kernel.d_delta.((s * k) + l) in
              if t >= 0 then m := Lmap.add letters.(l) t !m
            done;
            !m)
      in
      let finals = ref Int_set.empty in
      for s = d.Kernel.d_states - 1 downto 0 do
        if Kernel.is_final d.Kernel.d_final s then
          finals := Int_set.add s !finals
      done;
      create ~nb_states:d.Kernel.d_states ~start:d.Kernel.d_start
        ~finals:!finals ~delta

    let determinize (nfa : Nfa.t) =
      let letters = letters_of (Nfa.alphabet nfa) in
      let n = Nfa.nb_states nfa in
      let final = Bytes.make n '\000' in
      Int_set.iter (fun s -> Bytes.set final s '\001') (Nfa.finals nfa);
      let k =
        Kernel.of_edges ~nb_states:n ~nb_letters:(Array.length letters)
          ~starts:(Array.of_list (Int_set.elements (Nfa.start nfa)))
          ~final
          (fun f ->
            List.iter
              (fun (s, l, d) ->
                f s (match l with None -> -1 | Some l -> letter_id letters l) d)
              (Nfa.edges nfa))
      in
      of_kernel ~letters (Kernel.determinize k)

    (* Restrict to states reachable from the start and co-reachable to a
       final state (trim); preserves the language. *)
    let trim t =
      let reach = Array.make t.nb_states false in
      let rec fwd s =
        if not reach.(s) then begin
          reach.(s) <- true;
          Lmap.iter (fun _ d -> fwd d) t.delta.(s)
        end
      in
      fwd t.start;
      (* co-reachability via reverse adjacency *)
      let rev = Array.make t.nb_states [] in
      Array.iteri
        (fun s m -> Lmap.iter (fun _ d -> rev.(d) <- s :: rev.(d)) m)
        t.delta;
      let corect = Array.make t.nb_states false in
      let rec bwd s =
        if not corect.(s) then begin
          corect.(s) <- true;
          List.iter bwd rev.(s)
        end
      in
      Int_set.iter (fun s -> if reach.(s) then bwd s) t.finals;
      let keep = Array.init t.nb_states (fun s -> reach.(s) && corect.(s)) in
      if not keep.(t.start) then
        (* empty language: single non-accepting state *)
        create ~nb_states:1 ~start:0 ~finals:Int_set.empty
          ~delta:[| Lmap.empty |]
      else begin
        let remap = Array.make t.nb_states (-1) in
        let nb = ref 0 in
        Array.iteri
          (fun s k ->
            if k then begin
              remap.(s) <- !nb;
              incr nb
            end)
          keep;
        let delta = Array.make !nb Lmap.empty in
        Array.iteri
          (fun s m ->
            if keep.(s) then
              delta.(remap.(s)) <-
                Lmap.fold
                  (fun l d acc ->
                    if keep.(d) then Lmap.add l remap.(d) acc else acc)
                  m Lmap.empty)
          t.delta;
        let finals =
          Int_set.fold
            (fun s acc -> if keep.(s) then Int_set.add remap.(s) acc else acc)
            t.finals Int_set.empty
        in
        create ~nb_states:!nb ~start:remap.(t.start) ~finals ~delta
      end

    (* Complete the DFA over [alphabet] by adding an explicit sink. *)
    let complete ~alphabet t =
      let needs_sink =
        Array.exists
          (fun m -> Lset.exists (fun l -> not (Lmap.mem l m)) alphabet)
          t.delta
      in
      if not needs_sink then t
      else begin
        let sink = t.nb_states in
        let delta = Array.make (t.nb_states + 1) Lmap.empty in
        Array.iteri
          (fun s m ->
            delta.(s) <-
              Lset.fold
                (fun l acc ->
                  if Lmap.mem l acc then acc else Lmap.add l sink acc)
                alphabet m)
          t.delta;
        delta.(sink) <-
          Lset.fold (fun l acc -> Lmap.add l sink acc) alphabet Lmap.empty;
        create ~nb_states:(t.nb_states + 1) ~start:t.start ~finals:t.finals
          ~delta
      end

    let minimize t =
      let letters = letters_of (alphabet t) in
      of_kernel ~letters (Kernel.minimize (to_kernel ~letters t))

    let is_empty t =
      let t = trim t in
      Int_set.is_empty t.finals

    (* Product automaton under a boolean combinator on acceptance. *)
    let product ~combine t1 t2 =
      let sigma = Lset.union (alphabet t1) (alphabet t2) in
      let t1 = complete ~alphabet:sigma t1 in
      let t2 = complete ~alphabet:sigma t2 in
      let module Pm = Map.Make (struct
        type t = int * int

        let compare = Stdlib.compare
      end) in
      let index = ref (Pm.singleton (t1.start, t2.start) 0) in
      let nb = ref 1 in
      let delta_acc = ref [] in
      let finals = ref Int_set.empty in
      let queue = Queue.create () in
      Queue.add ((t1.start, t2.start), 0) queue;
      while not (Queue.is_empty queue) do
        let (s1, s2), id = Queue.pop queue in
        if combine (is_final t1 s1) (is_final t2 s2) then
          finals := Int_set.add id !finals;
        let trans =
          Lset.fold
            (fun l acc ->
              match step t1 s1 l, step t2 s2 l with
              | Some d1, Some d2 ->
                let key = (d1, d2) in
                let tid =
                  match Pm.find_opt key !index with
                  | Some tid -> tid
                  | None ->
                    let tid = !nb in
                    index := Pm.add key tid !index;
                    incr nb;
                    Queue.add (key, tid) queue;
                    tid
                in
                Lmap.add l tid acc
              | _, _ -> acc)
            sigma Lmap.empty
        in
        delta_acc := (id, trans) :: !delta_acc
      done;
      let delta = Array.make !nb Lmap.empty in
      List.iter (fun (id, m) -> delta.(id) <- m) !delta_acc;
      create ~nb_states:!nb ~start:0 ~finals:!finals ~delta

    let intersection t1 t2 = product ~combine:( && ) t1 t2
    let union t1 t2 = product ~combine:( || ) t1 t2

    let difference t1 t2 = product ~combine:(fun a b -> a && not b) t1 t2

    let language_subset t1 t2 = is_empty (difference t1 t2)

    let language_equal t1 t2 = language_subset t1 t2 && language_subset t2 t1

    (* All accepted words up to a length bound (tests, small examples). *)
    let words ~max_len t =
      let rec go acc word len s =
        let acc = if is_final t s then List.rev word :: acc else acc in
        if len = max_len then acc
        else
          Lmap.fold
            (fun l d acc -> go acc (l :: word) (len + 1) d)
            t.delta.(s) acc
      in
      List.sort_uniq (List.compare L.compare) (go [] [] 0 t.start)

    (* A language is finite iff the trim automaton is acyclic. *)
    let language_is_finite t =
      let t = trim t in
      let n = t.nb_states in
      (* colours: 0 white, 1 grey, 2 black *)
      let colour = Array.make n 0 in
      let rec cyclic s =
        colour.(s) <- 1;
        let found =
          Lmap.exists
            (fun _ d ->
              colour.(d) = 1 || (colour.(d) = 0 && cyclic d))
            t.delta.(s)
        in
        if not found then colour.(s) <- 2;
        found
      in
      n = 0 || not (cyclic t.start)

    (* The number of accepted words of a finite language ([None] when the
       language is infinite), by memoised counting on the trim DAG. *)
    let count_words t =
      let t = trim t in
      if not (language_is_finite t) then None
      else begin
        let memo = Array.make (max 1 t.nb_states) (-1) in
        let rec count s =
          if memo.(s) >= 0 then memo.(s)
          else begin
            let self = if is_final t s then 1 else 0 in
            let total =
              Lmap.fold (fun _ d acc -> acc + count d) t.delta.(s) self
            in
            memo.(s) <- total;
            total
          end
        in
        if t.nb_states = 0 then Some 0 else Some (count t.start)
      end

    (* Shortest accepted word by BFS; [None] for the empty language.  Used
       to extract counterexamples from difference automata. *)
    let shortest_accepted t =
      let n = t.nb_states in
      let visited = Array.make n false in
      let queue = Queue.create () in
      visited.(t.start) <- true;
      Queue.add (t.start, []) queue;
      let rec go () =
        if Queue.is_empty queue then None
        else begin
          let s, word = Queue.pop queue in
          if is_final t s then Some (List.rev word)
          else begin
            Lmap.iter
              (fun l d ->
                if not visited.(d) then begin
                  visited.(d) <- true;
                  Queue.add (d, l :: word) queue
                end)
              t.delta.(s);
            go ()
          end
        end
      in
      go ()

    (* Canonical form of a trim DFA: BFS renumbering with label-sorted
       edge exploration.  Two minimal automata are isomorphic iff their
       canonical forms are structurally equal. *)
    let canonicalize t =
      let t = trim t in
      let order = Array.make t.nb_states (-1) in
      let nb = ref 0 in
      let queue = Queue.create () in
      order.(t.start) <- 0;
      nb := 1;
      Queue.add t.start queue;
      while not (Queue.is_empty queue) do
        let s = Queue.pop queue in
        Lmap.iter
          (fun _ d ->
            if order.(d) = -1 then begin
              order.(d) <- !nb;
              incr nb;
              Queue.add d queue
            end)
          t.delta.(s)
      done;
      let delta = Array.make !nb Lmap.empty in
      Array.iteri
        (fun s m ->
          if order.(s) >= 0 then
            delta.(order.(s)) <-
              Lmap.fold
                (fun l d acc ->
                  if order.(d) >= 0 then Lmap.add l order.(d) acc else acc)
                m Lmap.empty)
        t.delta;
      let finals =
        Int_set.fold
          (fun s acc ->
            if order.(s) >= 0 then Int_set.add order.(s) acc else acc)
          t.finals Int_set.empty
      in
      create ~nb_states:!nb ~start:0 ~finals ~delta

    let isomorphic t1 t2 =
      let c1 = canonicalize t1 and c2 = canonicalize t2 in
      c1.nb_states = c2.nb_states
      && Int_set.equal c1.finals c2.finals
      && Array.for_all2 (fun m1 m2 -> Lmap.equal Int.equal m1 m2) c1.delta
           c2.delta

    let dot ?(name = "dfa") ?(state_label = fun i -> Printf.sprintf "q%d" i) t =
      let d = Fsa_graph.Dot.create ~graph_attrs:[ ("rankdir", "LR") ] name in
      Array.iteri
        (fun s _ ->
          let attrs =
            (if is_final t s then [ ("shape", "doublecircle") ]
             else [ ("shape", "circle") ])
            @ if s = t.start then [ ("style", "bold") ] else []
          in
          Fsa_graph.Dot.node ~attrs d (state_label s))
        t.delta;
      List.iter
        (fun (s, l, d') ->
          Fsa_graph.Dot.edge
            ~attrs:[ ("label", Fmt.str "%a" L.pp l) ]
            d (state_label s) (state_label d'))
        (transitions t);
      Fsa_graph.Dot.to_string d

    let pp ppf t =
      Fmt.pf ppf "@[<v>dfa: %d states, start q%d, finals {%a}@,%a@]"
        t.nb_states t.start
        Fmt.(list ~sep:comma int)
        (Int_set.elements t.finals)
        Fmt.(
          list ~sep:cut (fun ppf (s, l, d) ->
              Fmt.pf ppf "q%d --%a--> q%d" s L.pp l d))
        (transitions t)
  end

end
