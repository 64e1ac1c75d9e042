(* The compact-state explorer against the map-based oracle
   ({!Explore_oracle}): same states in the same breadth-first numbering,
   same sorted transitions, on the bundled specs, on random specs and on
   hand-written rules for each matching feature.  Also the spread and
   path-independence of the incremental state hash. *)

module Term = Fsa_term.Term
module Action = Fsa_term.Action
module Apa = Fsa_apa.Apa
module Lts = Fsa_lts.Lts
module Parser = Fsa_spec.Parser
module Elaborate = Fsa_spec.Elaborate

let set = Term.Set.of_list
let sym = Term.sym
let var = Term.var
let app = Term.app

let same_as_oracle ctx apa =
  let lts = Lts.explore apa in
  let oracle = Explore_oracle.explore apa in
  Alcotest.(check int) (ctx ^ ": states")
    (Array.length oracle.Explore_oracle.states)
    (Lts.nb_states lts);
  Array.iteri
    (fun i s ->
      if Explore_oracle.State.to_string s <> Apa.State.to_string (Lts.state lts i)
      then
        Alcotest.failf "%s: state %s differs:@.%s@.oracle:@.%s" ctx
          (Lts.state_name i)
          (Apa.State.to_string (Lts.state lts i))
          (Explore_oracle.State.to_string s))
    oracle.Explore_oracle.states;
  let show (src, label, dst) = (src, Action.to_string label, dst) in
  let triples trs =
    List.map (fun tr -> show (tr.Lts.t_src, tr.Lts.t_label, tr.Lts.t_dst)) trs
  in
  Alcotest.(check (list (triple int string int)))
    (ctx ^ ": sorted transitions")
    (List.map show oracle.Explore_oracle.transitions)
    (triples (Lts.transitions lts));
  (* predecessor lists: the incoming transitions, in the same order *)
  let incoming = Array.make (Lts.nb_states lts) [] in
  List.iter
    (fun tr -> incoming.(tr.Lts.t_dst) <- tr :: incoming.(tr.Lts.t_dst))
    (List.rev (Lts.transitions lts));
  Array.iteri
    (fun d trs ->
      if triples trs <> triples (Lts.pred lts d) then
        Alcotest.failf "%s: predecessors of %s differ" ctx (Lts.state_name d))
    incoming

let test_example_specs () =
  match Test_check.spec_dir () with
  | None -> ()
  | Some dir ->
    let explored = ref 0 in
    List.iter
      (fun path ->
        match Elaborate.apa_of_spec (Parser.parse_file path) with
        | exception Invalid_argument _ -> ()  (* model-only spec *)
        | apa ->
          incr explored;
          same_as_oracle (Filename.basename path) apa)
      (Test_check.example_files dir);
    Alcotest.(check bool) "specs explored" true (!explored >= 6)

let prop_random_specs =
  QCheck2.Test.make ~name:"random specs explore as the oracle does" ~count:60
    Test_spec_random.gen_spec (fun spec ->
      match Elaborate.apa_of_spec spec with
      | exception Fsa_spec.Loc.Error _ -> true
      | apa ->
        let lts = Lts.explore apa and oracle = Explore_oracle.explore apa in
        Lts.nb_states lts = Array.length oracle.Explore_oracle.states
        && List.for_all2
             (fun tr (src, label, dst) ->
               tr.Lts.t_src = src && Action.equal tr.Lts.t_label label
               && tr.Lts.t_dst = dst)
             (Lts.transitions lts) oracle.Explore_oracle.transitions
        && Array.for_all Fun.id
             (Array.mapi
                (fun i s ->
                  Explore_oracle.State.to_string s
                  = Apa.State.to_string (Lts.state lts i))
                oracle.Explore_oracle.states))

(* ------------------------------------------------------------------ *)
(* Hand cases, one per matching feature                                *)
(* ------------------------------------------------------------------ *)

let test_guards () =
  (* only pairs with distinct elements pass the guard *)
  let apa =
    Apa.make
      ~components:[ ("src", set [ sym "a"; sym "b"; sym "c" ]); ("dst", Term.Set.empty) ]
      ~rules:
        [ Apa.rule "pair"
            ~takes:[ Apa.read "src" (var "x"); Apa.take "src" (var "y") ]
            ~guard:(fun s ->
              match Term.Subst.find "x" s, Term.Subst.find "y" s with
              | Some x, Some y -> Term.compare x y < 0
              | _ -> false)
            ~puts:[ Apa.put "dst" (app "p" [ var "x"; var "y" ]) ] ]
      "guards"
  in
  same_as_oracle "guards" apa;
  Alcotest.(check int) "pairs x < y enabled initially" 3
    (List.length (Apa.step apa (Apa.initial_state apa)))

let test_reads () =
  (* a read matches without consuming, also an element another take
     consumes *)
  let apa =
    Apa.make
      ~components:[ ("cfg", set [ sym "k"; sym "m" ]); ("out", Term.Set.empty) ]
      ~rules:
        [ Apa.rule "use"
            ~takes:[ Apa.read "cfg" (var "c"); Apa.take "cfg" (var "d") ]
            ~puts:[ Apa.put "out" (app "o" [ var "c"; var "d" ]) ];
          Apa.rule "peek" ~takes:[ Apa.read "cfg" (sym "k") ]
            ~puts:[ Apa.put "out" (sym "seen") ] ]
      "reads"
  in
  same_as_oracle "reads" apa;
  let next = Apa.step apa (Apa.initial_state apa) in
  Alcotest.(check int) "4 use bindings and one peek" 5 (List.length next)

let test_double_consume () =
  (* two consuming takes of one component match distinct elements; a
     ground and a non-ground take mixed *)
  let apa =
    Apa.make
      ~components:
        [ ("bus", set [ sym "sW"; sym "pos1"; sym "pos2" ]); ("net", Term.Set.empty) ]
      ~rules:
        [ Apa.rule "send"
            ~takes:[ Apa.take "bus" (sym "sW"); Apa.take "bus" (var "p") ]
            ~puts:[ Apa.put "net" (app "cam" [ var "p" ]) ];
          Apa.rule "merge"
            ~takes:[ Apa.take "bus" (var "a"); Apa.take "bus" (var "b") ]
            ~puts:[ Apa.put "bus" (app "m" [ var "a"; var "b" ]) ] ]
      "double"
  in
  same_as_oracle "double consume" apa;
  List.iter
    (fun (rule, _, next) ->
      if Apa.rule_name rule = "send" then
        Alcotest.(check bool) "sW consumed once, not matched twice" false
          (Apa.State.mem_elt "bus" (sym "sW") next))
    (Apa.step apa (Apa.initial_state apa))

let test_nonground_puts () =
  (* produced terms built from bindings; a put of an element already
     present leaves the set (and its sharing) unchanged *)
  let apa =
    Apa.make
      ~components:[ ("in", set [ Term.int 1; Term.int 2 ]); ("acc", set [ sym "z" ]) ]
      ~rules:
        [ Apa.rule "wrap" ~takes:[ Apa.take "in" (var "n") ]
            ~puts:[ Apa.put "acc" (app "w" [ var "n" ]); Apa.put "acc" (sym "z") ];
          Apa.rule "loop" ~takes:[ Apa.take "acc" (sym "z") ]
            ~puts:[ Apa.put "acc" (sym "z") ] ]
      "puts"
  in
  same_as_oracle "non-ground puts" apa;
  let s0 = Apa.initial_state apa in
  List.iter
    (fun (rule, _, next) ->
      if Apa.rule_name rule = "loop" then
        Alcotest.(check bool) "remove and put back is the same state" true
          (Apa.State.equal s0 next && Apa.State.hash s0 = Apa.State.hash next))
    (Apa.step apa s0)

let test_set_get_roundtrip () =
  let apa =
    Apa.make
      ~components:[ ("a", set [ sym "x" ]); ("b", Term.Set.empty) ]
      ~rules:[ Apa.rule "mv" ~takes:[ Apa.take "a" (var "v") ] ~puts:[ Apa.put "b" (var "v") ] ]
      "rt"
  in
  let s0 = Apa.initial_state apa in
  let contents = set [ sym "p"; app "q" [ Term.int 3 ]; sym "c" ] in
  let s1 = Apa.State.set "b" contents s0 in
  Alcotest.(check bool) "get after set" true
    (Term.Set.equal contents (Apa.State.get "b" s1));
  Alcotest.(check bool) "other component untouched" true
    (Term.Set.equal (set [ sym "x" ]) (Apa.State.get "a" s1));
  let s2 = Apa.State.set "b" Term.Set.empty s1 in
  Alcotest.(check bool) "set back restores the state" true
    (Apa.State.equal s0 s2 && Apa.State.hash s0 = Apa.State.hash s2);
  (* the same content built from the empty state, in another component
     order, is the same state *)
  let manual =
    Apa.State.empty
    |> Apa.State.set "b" contents
    |> Apa.State.set "a" (set [ sym "x" ])
  in
  Alcotest.(check bool) "equal across layouts" true (Apa.State.equal manual s1);
  Alcotest.(check int) "hash across layouts" (Apa.State.hash s1)
    (Apa.State.hash manual);
  Alcotest.(check int) "compare across layouts" 0 (Apa.State.compare manual s1);
  Alcotest.(check string) "printed alike" (Apa.State.to_string s1)
    (Apa.State.to_string manual);
  (* states built outside the APA still step *)
  Alcotest.(check int) "foreign state steps" 1
    (List.length (Apa.step apa manual))

(* ------------------------------------------------------------------ *)
(* Hash spread                                                         *)
(* ------------------------------------------------------------------ *)

(* On the canonical APA of the EVITA model, nearly every state must get
   its own hash, and the low bits that pick a state-table bucket must
   spread as a uniform hash would: a [Hashtbl] holding the 80 460 states
   has 2^16 buckets, and n uniform keys hit m (1 - e^(-n/m)) of m
   buckets (about 46 300 here).  The map-based states' hash reached only
   6 492 of them. *)
let test_hash_spread () =
  let apa = Fsa_core.Apa_of_model.compile Fsa_vanet.Evita.model in
  let lts = Lts.explore apa in
  let n = Lts.nb_states lts in
  Alcotest.(check int) "E5 states" 80460 n;
  let distinct mask =
    let seen = Hashtbl.create n in
    for i = 0 to n - 1 do
      Hashtbl.replace seen (Apa.State.hash (Lts.state lts i) land mask) ()
    done;
    Hashtbl.length seen
  in
  let full = distinct max_int in
  if 100 * full < 99 * n then
    Alcotest.failf "only %d distinct hashes over %d states" full n;
  let m = float_of_int (1 lsl 16) in
  let uniform = m *. (1. -. exp (-.float_of_int n /. m)) in
  let buckets = distinct ((1 lsl 16) - 1) in
  if float_of_int buckets < 0.99 *. uniform then
    Alcotest.failf "low 16 bits take %d distinct values; a uniform hash gives %.0f"
      buckets uniform

(* Equal states reached along different paths hash alike: the diamond of
   two independent moves, and a state rebuilt by [State.set]. *)
let test_hash_path_independent () =
  let apa =
    Apa.make
      ~components:
        [ ("a", set [ sym "x" ]); ("b", set [ sym "y" ]);
          ("c", Term.Set.empty); ("d", Term.Set.empty) ]
      ~rules:
        [ Apa.rule "ac" ~takes:[ Apa.take "a" (var "v") ] ~puts:[ Apa.put "c" (var "v") ];
          Apa.rule "bd" ~takes:[ Apa.take "b" (var "v") ] ~puts:[ Apa.put "d" (var "v") ] ]
      "diamond"
  in
  let succs s = List.map (fun (_, _, t) -> t) (Apa.step apa s) in
  let s0 = Apa.initial_state apa in
  match succs s0 with
  | [ s1; s2 ] ->
    let via1 = List.hd (succs s1) and via2 = List.hd (succs s2) in
    Alcotest.(check bool) "equal" true (Apa.State.equal via1 via2);
    Alcotest.(check int) "hash" (Apa.State.hash via1) (Apa.State.hash via2);
    let rebuilt =
      s0
      |> Apa.State.remove_elt "a" (sym "x")
      |> Apa.State.remove_elt "b" (sym "y")
      |> Apa.State.add_elt "d" (sym "y")
      |> Apa.State.add_elt "c" (sym "x")
    in
    Alcotest.(check bool) "rebuilt equal" true (Apa.State.equal via1 rebuilt);
    Alcotest.(check int) "rebuilt hash" (Apa.State.hash via1)
      (Apa.State.hash rebuilt)
  | l -> Alcotest.failf "expected 2 successors, got %d" (List.length l)

let suite =
  [ Alcotest.test_case "example specs = oracle" `Slow test_example_specs;
    QCheck_alcotest.to_alcotest prop_random_specs;
    Alcotest.test_case "guards = oracle" `Quick test_guards;
    Alcotest.test_case "reads = oracle" `Quick test_reads;
    Alcotest.test_case "double consume = oracle" `Quick test_double_consume;
    Alcotest.test_case "non-ground puts = oracle" `Quick test_nonground_puts;
    Alcotest.test_case "State.set/get round trip" `Quick test_set_get_roundtrip;
    Alcotest.test_case "hash spread on EVITA" `Slow test_hash_spread;
    Alcotest.test_case "hash path independent" `Quick test_hash_path_independent ]
