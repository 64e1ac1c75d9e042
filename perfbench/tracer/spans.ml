(* In-memory span recorder of the benchmark's traced run.

   Every span is opened by the benchmark itself around one call into a
   layer's public function; nothing is recorded inside the program.  A
   span carries its name, start and end (nanoseconds, the program's
   monotonic clock), the span that was open when it started, the
   request it belongs to, and the minor/major heap words the calling
   domain allocated while it was open (Gc.quick_stat deltas).

   Sub-phases that a public function measures itself (the shared
   abstraction's determinise/minimise stages) are attached as children
   with [clock = "program"]: the benchmark cannot wrap them, so their
   durations come from the function's own timing record and their
   allocation stays with the parent.

   With [enabled] false no span is recorded and [with_] only calls its
   function; the benchmark runs the same work both ways to measure what
   recording costs. *)

type t = {
  id : int;
  parent : int;  (** 0 for a root span *)
  request : int;
  name : string;
  start_ns : int64;
  end_ns : int64;
  minor_words : float;
  major_words : float;
  clock : string;  (** ["bench"] or ["program"] *)
}

let enabled = ref true
let recorded : t list ref = ref []
let next_id = ref 0
let current_request = ref 0

(* open spans, innermost first: (id, start) *)
let stack : (int * int64) list ref = ref []
let now () = Fsa_obs.Span.now_ns ()

let fresh_id () =
  incr next_id;
  !next_id

let record name f =
  let id = fresh_id () in
  let parent = match !stack with (p, _) :: _ -> p | [] -> 0 in
  let g0 = Gc.quick_stat () in
  let t0 = now () in
  stack := (id, t0) :: !stack;
  let finish () =
    let t1 = now () in
    let g1 = Gc.quick_stat () in
    stack := List.tl !stack;
    recorded :=
      { id;
        parent;
        request = !current_request;
        name;
        start_ns = t0;
        end_ns = t1;
        minor_words = g1.Gc.minor_words -. g0.Gc.minor_words;
        major_words = g1.Gc.major_words -. g0.Gc.major_words;
        clock = "bench" }
      :: !recorded
  in
  match f () with
  | v ->
    finish ();
    v
  | exception e ->
    finish ();
    raise e

let with_ name f = if !enabled then record name f else f ()

(* [with_request i f] runs [f] as a root span named [name] of request
   [i]. *)
let with_request ~name i f =
  current_request := i;
  with_ name f

(* Attach a sub-phase timed by the program under the innermost open
   span, [offset_ns] after that span's start. *)
let program_child name ~offset_ns ~dur_ns =
  match !stack with
  | _ when not !enabled -> ()
  | [] -> ()
  | (parent, t0) :: _ ->
    let start_ns = Int64.add t0 offset_ns in
    recorded :=
      { id = fresh_id ();
        parent;
        request = !current_request;
        name;
        start_ns;
        end_ns = Int64.add start_ns dur_ns;
        minor_words = 0.;
        major_words = 0.;
        clock = "program" }
      :: !recorded

let to_json () =
  let b = Buffer.create 65536 in
  Buffer.add_string b "[\n";
  List.iteri
    (fun i s ->
      if i > 0 then Buffer.add_string b ",\n";
      Printf.bprintf b
        "{\"id\":%d,\"parent\":%d,\"request\":%d,\"name\":\"%s\",\
         \"start_ns\":%Ld,\"end_ns\":%Ld,\"minor_words\":%.0f,\
         \"major_words\":%.0f,\"clock\":\"%s\"}"
        s.id s.parent s.request s.name s.start_ns s.end_ns s.minor_words
        s.major_words s.clock)
    (List.rev !recorded);
  Buffer.add_string b "\n]\n";
  Buffer.contents b
