(* Exploration-progress reporting.

   A [Progress.t] throttles a user callback to at most one invocation per
   [every_n] items or per [every_ns] of wall time, whichever comes first.
   [tick] is designed to sit inside the state-space exploration loop: it
   reads the clock only once per [stride] items, so a quiet reporter costs
   a comparison per item.  Reporting is independent of [Metrics.enabled] —
   the caller opts in by passing a reporter. *)

type update = {
  u_count : int;
  u_frontier : int;
  u_elapsed_ns : int64;
  u_rate : float;  (* items per second since the first tick *)
  u_final : bool;
}

type t = {
  every_n : int;
  every_ns : int64;
  stride : int;
  callback : update -> unit;
  mutable started_ns : int64;
  mutable last_check_count : int;
  mutable last_fire_count : int;
  mutable last_fire_ns : int64;
  mutable fired : bool;
}

let create ?(every_n = 10_000) ?(every_ns = 500_000_000L) callback =
  if every_n <= 0 then invalid_arg "Progress.create: every_n must be positive";
  { every_n;
    every_ns;
    stride = max 1 (min every_n 256);
    callback;
    started_ns = -1L;
    last_check_count = 0;
    last_fire_count = 0;
    last_fire_ns = 0L;
    fired = false }

let rate ~count ~elapsed_ns =
  if Int64.compare elapsed_ns 0L <= 0 then 0.
  else float_of_int count /. (Int64.to_float elapsed_ns /. 1e9)

let fire p ~count ~frontier ~now ~final =
  let elapsed = Int64.sub now p.started_ns in
  p.last_fire_count <- count;
  p.last_fire_ns <- now;
  p.fired <- true;
  p.callback
    { u_count = count;
      u_frontier = frontier;
      u_elapsed_ns = elapsed;
      u_rate = rate ~count ~elapsed_ns:elapsed;
      u_final = final }

let tick p ~count ~frontier =
  if count - p.last_check_count >= p.stride then begin
    p.last_check_count <- count;
    let now = Span.now_ns () in
    if Int64.compare p.started_ns 0L < 0 then begin
      p.started_ns <- now;
      p.last_fire_ns <- now
    end;
    if
      count - p.last_fire_count >= p.every_n
      || Int64.compare (Int64.sub now p.last_fire_ns) p.every_ns >= 0
    then fire p ~count ~frontier ~now ~final:false
  end

(* The final report is only emitted when intermediate progress was shown:
   fast runs stay silent. *)
let finish p ~count =
  if p.fired then
    fire p ~count ~frontier:0 ~now:(Span.now_ns ()) ~final:true

(* Every tick of the view reaches [p] (which throttles), shifted; the
   view's final report is dropped, so the phase cannot finish [p]. *)
let offset p ~by =
  create ~every_n:1 ~every_ns:0L (fun u ->
      if not u.u_final then tick p ~count:(by + u.u_count) ~frontier:u.u_frontier)

(* The live line describes exploration: once it has printed its
   completion report, later phases ticking the same reporter (the shared
   abstraction's deadline ticks) print nothing. *)
let stderr_reporter ?every_n ?every_ns ~label () =
  let finished = ref false in
  create ?every_n ?every_ns (fun u ->
      if !finished then ()
      else if u.u_final then begin
        finished := true;
        Fmt.epr "\r%s: %d states, %.0f states/s, done%s@." label u.u_count
          u.u_rate (String.make 12 ' ')
      end
      else
        Fmt.epr "\r%s: %d states (frontier %d, %.0f states/s)%!" label
          u.u_count u.u_frontier u.u_rate)
