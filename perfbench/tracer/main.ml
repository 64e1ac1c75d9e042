(* Helper of the fsa benchmark (perfbench/run.py).

     main.exe canonical --seed N --spec FILE --oracle FILE
       Write the canonical token-game APA of the EVITA on-board model as
       .fsa text (declaration order from the seed) and the answers the
       manual path expects: count_ideals of the event poset, chi of
       Derive.of_sos under the generator's naming, and the requirements
       of the manual-path report on the same model.

     main.exe oneshot --spec FILE --out DIR --seconds S
                      [--manual-model evita|two_vehicles]
       Traced session over one spec: the static passes (check, symmetry
       plan), the cold requirements run through a fresh store, its warm
       replay, the manual path, and the same requirements request twice
       through Server.handle_line.

     main.exe serve --requests FILE --out DIR --seconds S
       Traced replay of a request session: every line through
       Server.handle_line with one store, then every line through the
       decomposed request path with another.

   Both then measure the tracing overhead: the decomposed cold request
   (oneshot) or the decomposed session (serve) runs alternately with span
   recording off and on, at least three times each and until S seconds
   after the start, and the difference of the median times is reported.

   The traced commands write DIR/spans.json (one object per span),
   DIR/handle_line.ndjson and DIR/decomposed.ndjson (one response line
   per request) and DIR/summary.json (work counts and the overhead). *)

module Json = Fsa_store.Json
module Store = Fsa_store.Store
module Metrics = Fsa_obs.Metrics
module Server = Fsa_server.Server
module Evita = Fsa_vanet.Evita

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("perfbench: " ^ s); exit 2) fmt

let arg name =
  let rec find = function
    | k :: v :: _ when k = name -> Some v
    | _ :: rest -> find rest
    | [] -> None
  in
  find (Array.to_list Sys.argv)

let required name =
  match arg name with Some v -> v | None -> die "missing %s" name

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let read_lines path =
  let ic = open_in_bin path in
  let rec go acc =
    match input_line ic with
    | l -> go (if l = "" then acc else l :: acc)
    | exception End_of_file ->
      close_in ic;
      List.rev acc
  in
  go []

let triples_json ts =
  Json.List
    (List.map (fun (c, e, s) -> Json.List [ Json.Str c; Json.Str e; Json.Str s ]) ts)

let canonical () =
  let seed = int_of_string (required "--seed") in
  write_file (required "--spec") (Canonical.spec ~seed Evita.model);
  let states, reqs = Canonical.expected Evita.model in
  let onboard =
    List.sort_uniq compare
      (List.map Canonical.triple (Fsa_requirements.Derive.of_sos Evita.model))
  in
  write_file (required "--oracle")
    (Json.to_string
       (Json.Obj
          [ ( "canonical",
              Json.Obj
                [ ("states", Json.Int states); ("requirements", triples_json reqs) ] );
            ("onboard", Json.Obj [ ("requirements", triples_json onboard) ]) ])
    ^ "\n")

let counter_names =
  [ "apa.rules_tried"; "apa.bindings_found"; "apa.terms_allocated";
    "lts.states_explored"; "lts.transitions"; "lts.dedup_hits";
    "automata.hopcroft_splits"; "store.hits"; "store.misses" ]

let counters () =
  let all = Metrics.counters () in
  List.map
    (fun n -> (n, Option.value (List.assoc_opt n all) ~default:0))
    counter_names

let server_config store =
  Server.config ~store ~stakeholder:Fsa_vanet.Vehicle_apa.stakeholder ()

let request_line ~op spec =
  Json.to_string (Json.Obj [ ("op", Json.Str op); ("spec", Json.Str spec) ])

let start = Spans.now ()

let seconds ns = Int64.to_float ns /. 1e9

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* [work] alternately with span recording off and on, at least three
   times each and until --seconds after the start: the median traced
   time minus the median untraced time, in seconds, and the repetitions
   of each.  The spans and work counts of these runs are dropped. *)
let overhead work =
  let budget = float_of_string (required "--seconds") in
  let until = Int64.add start (Int64.of_float (budget *. 1e9)) in
  let spans = !Spans.recorded and restore = Decomp.save_counts () in
  let time on =
    Spans.enabled := on;
    let t0 = Spans.now () in
    work ();
    seconds (Int64.sub (Spans.now ()) t0)
  in
  let rec go off on =
    if List.length off >= 3 && Spans.now () > until then (off, on)
    else
      let a = time false in
      let b = time true in
      go (a :: off) (b :: on)
  in
  let off, on = go [] [] in
  Spans.enabled := true;
  Spans.recorded := spans;
  restore ();
  [ ("overhead_s", Json.Float (median on -. median off));
    ("overhead_reps", Json.Int (List.length off)) ]

let write_outputs ~out ~handled ~decomposed ~c0 ~c1 ~extra =
  write_file (Filename.concat out "spans.json") (Spans.to_json ());
  let lines ls = String.concat "" (List.map (fun l -> l ^ "\n") ls) in
  write_file (Filename.concat out "handle_line.ndjson") (lines handled);
  write_file (Filename.concat out "decomposed.ndjson") (lines decomposed);
  let deltas =
    List.map2 (fun (n, a) (_, b) -> (n, Json.Int (b - a))) c0 c1
  in
  write_file
    (Filename.concat out "summary.json")
    (Json.to_string
       (Json.Obj
          ([ ("counters", Json.Obj deltas);
             ("states_explored", Json.Int !Decomp.states_explored);
             ( "quotient_states",
               Json.List (List.map (fun n -> Json.Int n) !Decomp.quotient_states) );
             ("early_decided", Json.Int !Decomp.early_decided);
             ("report_bytes", Json.Int !Decomp.report_bytes);
             ("representatives", Json.Int !Decomp.representatives) ]
          @ extra))
    ^ "\n")

let handle_all cfg ~first lines =
  List.mapi
    (fun i line ->
      Spans.with_request ~name:"replay.handle_line" (first + i) (fun () ->
          Server.handle_line cfg line))
    lines

let oneshot () =
  let spec_path = required "--spec" and out = required "--out" in
  Metrics.set_enabled true;
  let c0 = counters () in
  let store_b = Store.open_ ~dir:(Filename.concat out "store_decomposed") () in
  let n = ref 0 in
  let root f =
    incr n;
    Spans.with_request ~name:"request" !n f
  in
  (* static passes an analyst runs first: fsa check, fsa sym *)
  let check = root (fun () -> Decomp.request (request_line ~op:"check" spec_path)) in
  root (fun () ->
      let spec = Spans.with_ "spec.parse" (fun () -> Fsa_spec.Parser.parse_file spec_path) in
      let apa, sigs =
        Spans.with_ "spec.elaborate" (fun () ->
            ( Fsa_spec.Elaborate.apa_of_spec spec,
              Fsa_spec.Elaborate.guard_signatures spec ))
      in
      ignore
        (Spans.with_ "sym.plan" (fun () ->
             Fsa_sym.Sym.plan ~guard_sig:(fun r -> List.assoc_opt r sigs)
               Fsa_sym.Sym.Sym apa)));
  (* the cold run, then its replay from the store *)
  let line = request_line ~op:"requirements" spec_path in
  let cold = root (fun () -> Decomp.request ~store:store_b line) in
  let warm = root (fun () -> Decomp.request ~store:store_b line) in
  (* the manual path over the spec's functional models and over the
     functional model the workload mirrors: the EVITA model the canonical
     spec is generated from, or the two-vehicle model of the paper's
     Example 3 that every fleet pair instantiates *)
  root (fun () ->
      let spec = Spans.with_ "spec.parse" (fun () -> Fsa_spec.Parser.parse_file spec_path) in
      let soses = Spans.with_ "spec.elaborate" (fun () -> Fsa_spec.Elaborate.sos_list spec) in
      let soses =
        match arg "--manual-model" with
        | Some "evita" -> Evita.model :: soses
        | Some "two_vehicles" -> Fsa_vanet.Scenario.two_vehicles :: soses
        | Some m -> die "unknown manual model %s" m
        | None -> soses
      in
      List.iter (fun s -> ignore (Decomp.manual s)) soses);
  let c1 = counters () in
  let store_a = Store.open_ ~dir:(Filename.concat out "store_handle_line") () in
  let handled = handle_all (server_config store_a) ~first:(!n + 1) [ line; line ] in
  let overhead = overhead (fun () -> ignore (Decomp.request line)) in
  write_outputs ~out ~handled ~decomposed:[ check; cold; warm ] ~c0 ~c1
    ~extra:overhead

let serve () =
  let lines = read_lines (required "--requests") and out = required "--out" in
  Metrics.set_enabled true;
  let store_a = Store.open_ ~dir:(Filename.concat out "store_handle_line") () in
  let handled = handle_all (server_config store_a) ~first:1 lines in
  let store_b = Store.open_ ~dir:(Filename.concat out "store_decomposed") () in
  let c0 = counters () in
  let decomposed =
    List.mapi
      (fun i line ->
        Spans.with_request ~name:"request" (i + 1) (fun () ->
            Decomp.request ~store:store_b line))
      lines
  in
  let c1 = counters () in
  let reps = ref 0 in
  let overhead =
    overhead (fun () ->
        incr reps;
        let dir = Filename.concat out (Printf.sprintf "store_overhead_%d" !reps) in
        let store = Store.open_ ~dir () in
        List.iter (fun line -> ignore (Decomp.request ~store line)) lines)
  in
  write_outputs ~out ~handled ~decomposed ~c0 ~c1 ~extra:overhead

let () =
  match Array.to_list Sys.argv with
  | _ :: "canonical" :: _ -> canonical ()
  | _ :: "oneshot" :: _ -> oneshot ()
  | _ :: "serve" :: _ -> serve ()
  | _ -> die "usage: main.exe (canonical|oneshot|serve) ..."
