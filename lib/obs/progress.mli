(** Exploration-progress reporting: a throttled callback, invoked at most
    once per [every_n] items or [every_ns] of wall time.

    Unlike {!Metrics} and {!Span}, progress reporting is not gated on the
    global observability flag — the caller opts in by passing a reporter
    to e.g. [Lts.explore]. *)

type update = {
  u_count : int;  (** items (states) processed so far *)
  u_frontier : int;  (** current frontier / queue depth *)
  u_elapsed_ns : int64;  (** since the first tick *)
  u_rate : float;  (** items per second since the first tick *)
  u_final : bool;  (** true for the completion report *)
}

type t

val create : ?every_n:int -> ?every_ns:int64 -> (update -> unit) -> t
(** Defaults: [every_n] = 10_000 items, [every_ns] = 500ms.  The clock is
    read at most once per [min every_n 256] items. *)

val tick : t -> count:int -> frontier:int -> unit
(** Record that [count] items have been processed in total; invokes the
    callback when a threshold has been crossed. *)

val finish : t -> count:int -> unit
(** Emit a final ([u_final = true]) report — only if at least one
    intermediate report was emitted, so fast runs stay silent. *)

val offset : t -> by:int -> t
(** A view of a reporter for one phase of a longer run: every tick of
    the view reaches the reporter with [by] added to its count, and the
    view's {!finish} does nothing, so the phase cannot end the
    reporter's line. *)

val stderr_reporter :
  ?every_n:int -> ?every_ns:int64 -> label:string -> unit -> t
(** A ready-made reporter printing a live single-line status to stderr.
    It falls silent after its first completion report, so ticks of later
    phases sharing the reporter do not extend the exploration line. *)
