(** Live progress reporting for long-running checks.

    When enabled, {!tick} prints a rate-limited one-line status to the
    configured channel (stderr by default): executions explored,
    executions/sec, current step count, frontier depth, fault-schedule
    index, and — when a wall-clock budget is known — an ETA.  Disabled
    by default; ticks are a single branch when off. *)

val enable : ?interval_s:float -> ?out:out_channel -> unit -> unit
(** Turn reporting on. [interval_s] is the minimum gap between printed
    lines (default 1.0s). *)

val enabled : unit -> bool

val tick :
  executions:int ->
  steps:int ->
  frontier:int ->
  fault_schedule:int ->
  ?deadline_us:float ->
  unit ->
  unit
(** Record progress; prints at most once per interval.  [deadline_us]
    is the absolute wall-clock deadline (same clock as
    {!Trace.now_us}) used to derive the remaining-budget ETA. *)

val finish : unit -> unit
(** Print a final line (if enabled) and reset the rate limiter. *)
