(* Tests for Fsa_automata: determinisation, minimisation, language ops. *)

module C = struct
  type t = char

  let compare = Char.compare
  let pp = Fmt.char
end

module A = Fsa_automata.Automata.Make (C)
module O = Automata_oracle.Make (C) (A)

module IS = Fsa_automata.Automata.Int_set

let iset l = IS.of_list l

let words_t =
  Alcotest.testable
    (Fmt.Dump.list (Fmt.Dump.list Fmt.char))
    (List.equal (List.equal Char.equal))

(* DFA for (ab)* *)
let dfa_abstar () =
  A.Dfa.create ~nb_states:2 ~start:0 ~finals:(iset [ 0 ])
    ~delta:
      [| A.Lmap.singleton 'a' 1; A.Lmap.singleton 'b' 0 |]

(* NFA with an epsilon transition: accepts a? b *)
let nfa_opt_ab () =
  A.Nfa.create ~nb_states:3 ~start:(iset [ 0 ]) ~finals:(iset [ 2 ])
    ~edges:[ (0, Some 'a', 1); (0, None, 1); (1, Some 'b', 2) ]

let test_nfa_accepts () =
  let n = nfa_opt_ab () in
  Alcotest.(check bool) "ab" true (A.Nfa.accepts n [ 'a'; 'b' ]);
  Alcotest.(check bool) "b" true (A.Nfa.accepts n [ 'b' ]);
  Alcotest.(check bool) "a" false (A.Nfa.accepts n [ 'a' ]);
  Alcotest.(check bool) "empty" false (A.Nfa.accepts n [])

let test_eps_closure () =
  let n =
    A.Nfa.create ~nb_states:3 ~start:(iset [ 0 ]) ~finals:IS.empty
      ~edges:[ (0, None, 1); (1, None, 2) ]
  in
  Alcotest.(check int) "transitive epsilon closure" 3
    (IS.cardinal (A.Nfa.eps_closure n (iset [ 0 ])))

let test_determinize () =
  let d = A.Dfa.determinize (nfa_opt_ab ()) in
  Alcotest.(check bool) "ab" true (A.Dfa.accepts d [ 'a'; 'b' ]);
  Alcotest.(check bool) "b" true (A.Dfa.accepts d [ 'b' ]);
  Alcotest.(check bool) "a" false (A.Dfa.accepts d [ 'a' ]);
  Alcotest.(check bool) "aab" false (A.Dfa.accepts d [ 'a'; 'a'; 'b' ])

let test_determinize_preserves_words () =
  let n = nfa_opt_ab () in
  let d = A.Dfa.determinize n in
  let all_words =
    (* all words over {a,b} of length <= 3 *)
    let alpha = [ 'a'; 'b' ] in
    let extend ws = List.concat_map (fun w -> List.map (fun c -> c :: w) alpha) ws in
    let w1 = extend [ [] ] in
    let w2 = extend w1 in
    let w3 = extend w2 in
    [ [] ] @ w1 @ w2 @ w3
  in
  List.iter
    (fun w ->
      Alcotest.(check bool)
        (Printf.sprintf "agree on %s" (String.init (List.length w) (List.nth w)))
        (A.Nfa.accepts n w) (A.Dfa.accepts d w))
    all_words

let test_minimize_collapses () =
  (* two redundant accepting states accepting 'a' from start *)
  let d =
    A.Dfa.create ~nb_states:3 ~start:0 ~finals:(iset [ 1; 2 ])
      ~delta:
        [| A.Lmap.of_seq (List.to_seq [ ('a', 1); ('b', 2) ]);
           A.Lmap.empty; A.Lmap.empty |]
  in
  let m = A.Dfa.minimize d in
  Alcotest.(check int) "equivalent states merged" 2 (A.Dfa.nb_states m);
  Alcotest.(check bool) "language kept: a" true (A.Dfa.accepts m [ 'a' ]);
  Alcotest.(check bool) "language kept: b" true (A.Dfa.accepts m [ 'b' ])

let test_minimize_agrees_with_moore () =
  let d = A.Dfa.determinize (nfa_opt_ab ()) in
  let h = A.Dfa.minimize d and m = O.minimize_moore d in
  Alcotest.(check int) "same state count" (A.Dfa.nb_states h) (A.Dfa.nb_states m);
  Alcotest.(check bool) "isomorphic" true (A.Dfa.isomorphic h m)

let test_trim () =
  (* state 2 unreachable; state 3 cannot reach a final state *)
  let d =
    A.Dfa.create ~nb_states:4 ~start:0 ~finals:(iset [ 1 ])
      ~delta:
        [| A.Lmap.of_seq (List.to_seq [ ('a', 1); ('b', 3) ]);
           A.Lmap.empty;
           A.Lmap.singleton 'a' 1;
           A.Lmap.empty |]
  in
  let t = A.Dfa.trim d in
  Alcotest.(check int) "trimmed to 2 states" 2 (A.Dfa.nb_states t);
  Alcotest.(check bool) "language kept" true (A.Dfa.accepts t [ 'a' ])

let test_trim_empty_language () =
  let d =
    A.Dfa.create ~nb_states:2 ~start:0 ~finals:IS.empty
      ~delta:[| A.Lmap.singleton 'a' 1; A.Lmap.empty |]
  in
  let t = A.Dfa.trim d in
  Alcotest.(check bool) "empty" true (A.Dfa.is_empty t)

let test_complete () =
  let d = dfa_abstar () in
  let c = A.Dfa.complete ~alphabet:(A.Lset.of_list [ 'a'; 'b' ]) d in
  Alcotest.(check int) "sink added" 3 (A.Dfa.nb_states c);
  Alcotest.(check bool) "language preserved" true
    (A.Dfa.language_equal d c)

let test_language_ops () =
  let d1 = dfa_abstar () in
  let d2 = A.Dfa.determinize (nfa_opt_ab ()) in
  Alcotest.(check bool) "abstar != a?b" false (A.Dfa.language_equal d1 d2);
  Alcotest.(check bool) "self equal" true (A.Dfa.language_equal d1 d1);
  let inter = A.Dfa.intersection d1 d2 in
  (* (ab)* and a?b intersect in... ab *)
  Alcotest.(check bool) "ab in both" true (A.Dfa.accepts inter [ 'a'; 'b' ]);
  Alcotest.(check bool) "b not in abstar" false (A.Dfa.accepts inter [ 'b' ]);
  let diff = A.Dfa.difference d2 d1 in
  Alcotest.(check bool) "b only in a?b" true (A.Dfa.accepts diff [ 'b' ]);
  Alcotest.(check bool) "ab removed" false (A.Dfa.accepts diff [ 'a'; 'b' ]);
  Alcotest.(check bool) "inter subset d1" true (A.Dfa.language_subset inter d1);
  let union = A.Dfa.union d1 d2 in
  Alcotest.(check bool) "union has abab" true
    (A.Dfa.accepts union [ 'a'; 'b'; 'a'; 'b' ]);
  Alcotest.(check bool) "union has b" true (A.Dfa.accepts union [ 'b' ])

let test_words () =
  let d = A.Dfa.determinize (nfa_opt_ab ()) in
  Alcotest.check words_t "accepted words up to length 2"
    [ [ 'a'; 'b' ]; [ 'b' ] ]
    (List.sort compare (A.Dfa.words ~max_len:2 d))

let test_isomorphic () =
  (* same shape, different state numbering *)
  let d1 =
    A.Dfa.create ~nb_states:2 ~start:0 ~finals:(iset [ 1 ])
      ~delta:[| A.Lmap.singleton 'a' 1; A.Lmap.empty |]
  in
  let d2 =
    A.Dfa.create ~nb_states:2 ~start:1 ~finals:(iset [ 0 ])
      ~delta:[| A.Lmap.empty; A.Lmap.singleton 'a' 0 |]
  in
  Alcotest.(check bool) "renumbered automata isomorphic" true
    (A.Dfa.isomorphic d1 d2);
  let d3 =
    A.Dfa.create ~nb_states:2 ~start:0 ~finals:(iset [ 1 ])
      ~delta:[| A.Lmap.singleton 'b' 1; A.Lmap.empty |]
  in
  Alcotest.(check bool) "different labels differ" false (A.Dfa.isomorphic d1 d3)

(* Random NFAs: determinisation and minimisation preserve the language. *)
let gen_nfa =
  let open QCheck2.Gen in
  let* n = int_range 1 6 in
  let* edges =
    list_size (int_bound 12)
      (let* s = int_bound (n - 1) in
       let* d = int_bound (n - 1) in
       let* l = oneofl [ Some 'a'; Some 'b'; None ] in
       return (s, l, d))
  in
  let* finals = list_size (int_range 1 n) (int_bound (n - 1)) in
  return
    (A.Nfa.create ~nb_states:n ~start:(iset [ 0 ]) ~finals:(iset finals)
       ~edges)

let all_short_words =
  let alpha = [ 'a'; 'b' ] in
  let extend ws = List.concat_map (fun w -> List.map (fun c -> c :: w) alpha) ws in
  let w1 = extend [ [] ] in
  let w2 = extend w1 in
  let w3 = extend w2 in
  let w4 = extend w3 in
  [ [] ] @ w1 @ w2 @ w3 @ w4

let prop_determinize_preserves =
  QCheck2.Test.make ~name:"determinize preserves acceptance" ~count:200 gen_nfa
    (fun n ->
      let d = A.Dfa.determinize n in
      List.for_all (fun w -> A.Nfa.accepts n w = A.Dfa.accepts d w) all_short_words)

let prop_minimize_preserves =
  QCheck2.Test.make ~name:"minimize preserves the language" ~count:200 gen_nfa
    (fun n ->
      let d = A.Dfa.determinize n in
      let m = A.Dfa.minimize d in
      List.for_all (fun w -> A.Dfa.accepts d w = A.Dfa.accepts m w) all_short_words)

let prop_minimize_minimal =
  QCheck2.Test.make ~name:"minimize is idempotent and not larger" ~count:200
    gen_nfa (fun n ->
      let d = A.Dfa.trim (A.Dfa.determinize n) in
      let m = A.Dfa.minimize d in
      A.Dfa.nb_states m <= max 1 (A.Dfa.nb_states d)
      && A.Dfa.isomorphic m (A.Dfa.minimize m))

let prop_hopcroft_equals_moore =
  QCheck2.Test.make ~name:"Hopcroft and Moore minimisation agree" ~count:200
    gen_nfa (fun n ->
      let d = A.Dfa.determinize n in
      A.Dfa.isomorphic (A.Dfa.minimize d) (O.minimize_moore d))

(* The kernel's subset construction numbers subsets exactly as the
   label-keyed oracle does: same states, same start, same finals, same
   transitions. *)
let prop_determinize_equals_oracle =
  QCheck2.Test.make ~name:"determinize equals the oracle state for state"
    ~count:300 gen_nfa (fun n ->
      let d = A.Dfa.determinize n and o = O.determinize n in
      A.Dfa.nb_states d = A.Dfa.nb_states o
      && A.Dfa.start d = A.Dfa.start o
      && IS.equal (A.Dfa.finals d) (A.Dfa.finals o)
      && Array.for_all2 (A.Lmap.equal Int.equal) (A.Dfa.delta d)
           (A.Dfa.delta o))

(* The shared engine's per-pair projection (kernel subset construction
   and Hopcroft on the shared quotient) against the oracle pipeline
   [minimize_moore (determinize (image (preserve [mn; mx])))] on random
   behaviours, with a random shared alphabet around the pair. *)
let prop_project_equals_relabel =
  let module Action = Fsa_term.Action in
  let module Lts = Fsa_lts.Lts in
  let module Hom = Fsa_hom.Hom in
  let labels = Array.map Action.make [| "a"; "b"; "c"; "d" |] in
  let open QCheck2.Gen in
  let gen =
    let* n = int_range 1 7 in
    let* edges =
      list_size (int_bound 16)
        (let* s = int_bound (n - 1) in
         let* d = int_bound (n - 1) in
         let* l = int_bound 3 in
         return { Lts.t_src = s; t_label = labels.(l); t_dst = d })
    in
    let* mn = int_bound 3 in
    let* mx = int_bound 3 in
    let* extra = list_size (int_bound 3) (int_bound 3) in
    return (n, edges, mn, mx, extra)
  in
  QCheck2.Test.make ~name:"project agrees with determinize . image"
    ~count:300 gen (fun (n, edges, mn, mx, extra) ->
      let lts = Lts.of_edges ~nb_states:n edges in
      let mn = labels.(mn) and mx = labels.(mx) in
      let alphabet =
        Action.Set.of_list (mn :: mx :: List.map (Array.get labels) extra)
      in
      let e = Hom.Shared.build ~alphabet ~minima:[] ~maxima:[] lts in
      Hom.A.Dfa.isomorphic
        (Hom.Shared.minimal_automaton e ~min_action:mn ~max_action:mx)
        (Automata_oracle.Shared.minimal_automaton
           (Hom.preserve [ mn; mx ])
           lts))

let suite =
  [ Alcotest.test_case "nfa accepts" `Quick test_nfa_accepts;
    Alcotest.test_case "eps closure" `Quick test_eps_closure;
    Alcotest.test_case "determinize" `Quick test_determinize;
    Alcotest.test_case "determinize words" `Quick test_determinize_preserves_words;
    Alcotest.test_case "minimize collapses" `Quick test_minimize_collapses;
    Alcotest.test_case "hopcroft = moore" `Quick test_minimize_agrees_with_moore;
    Alcotest.test_case "trim" `Quick test_trim;
    Alcotest.test_case "trim empty language" `Quick test_trim_empty_language;
    Alcotest.test_case "complete" `Quick test_complete;
    Alcotest.test_case "language ops" `Quick test_language_ops;
    Alcotest.test_case "words" `Quick test_words;
    Alcotest.test_case "isomorphic" `Quick test_isomorphic;
    QCheck_alcotest.to_alcotest prop_determinize_preserves;
    QCheck_alcotest.to_alcotest prop_minimize_preserves;
    QCheck_alcotest.to_alcotest prop_minimize_minimal;
    QCheck_alcotest.to_alcotest prop_hopcroft_equals_moore;
    QCheck_alcotest.to_alcotest prop_determinize_equals_oracle;
    QCheck_alcotest.to_alcotest prop_project_equals_relabel ]
