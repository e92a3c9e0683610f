(** Concrete execution of concurrent programs under one schedule.

    Where the refinement checker explores *all* schedules, the runner picks
    one — round-robin, seeded-random, or an explicit thread sequence — and
    runs it to completion.  Used by the examples, the KVS REPL server, the
    bench harnesses (the WAL sweep, the fs-stack perf workload), and the
    tests, which replay a chosen storage or network fault schedule through
    [?fault_schedule] and record each storage op's steps. *)

type policy =
  | Round_robin
  | Random of int  (** seed *)
  | Fixed of int list
      (** explicit schedule: thread index per step; falls back to
          round-robin when exhausted or when the named thread is blocked *)

type 'w outcome = {
  world : 'w;
  results : Tslang.Value.t array;  (** per-thread final values *)
  trace : (int * string) list;  (** (thread, step label) in execution order *)
  footprints : Footprint.t list;
      (** footprint of each committed step, evaluated in its pre-state;
          aligned with [trace] — this is what makes dependence between the
          steps of a concrete execution computable (see
          {!Perennial_core.Explore}) *)
  steps : int;
  per_thread_steps : int array;  (** steps committed by each thread *)
  context_switches : int;
      (** times the scheduler ran a different thread than the previous step *)
  injected : Fault.schedule;
      (** faults actually fired, in execution order: the sub-schedule of
          [?fault_schedule] whose steps declared the named kind *)
}

exception Undefined_behaviour of string
exception Deadlock of string

val run :
  ?policy:policy ->
  ?max_steps:int ->
  ?fault_schedule:Fault.schedule ->
  'w ->
  ('w, Tslang.Value.t) Prog.t list ->
  'w outcome
(** Run threads to completion.  Nondeterministic actions take their first
    outcome under [Round_robin]/[Fixed] and a seeded choice under [Random].
    [fault_schedule] is the injection oracle: committed steps that declare
    fault points are numbered 0, 1, … in execution order, and an injection
    [{at; kind}] makes the [at]-th such step take its declared fault of
    that [kind] (injections naming an undeclared kind are skipped).
    Raises {!Undefined_behaviour} if any thread steps into UB, {!Deadlock}
    if unfinished threads are all blocked, and [Failure] past [max_steps]
    (default 1_000_000). *)

val run1 : 'w -> ('w, Tslang.Value.t) Prog.t -> 'w * Tslang.Value.t
(** Run a single program to completion (round-robin trivially). *)
