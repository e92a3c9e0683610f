(** A discrete-event simulator of closed-loop workers on a multicore
    machine — the substrate for the Figure 11 reproduction (this container
    has one CPU; see DESIGN.md's substitution table).

    Deterministic given the request list.  GC is modeled as the paper
    explains Mailboat's scaling limit (§9.3): after every [gc_quantum] μs
    of CPU work a worker pays [gc_slice] μs under the global ["gc"]
    resource. *)

type action =
  | Cpu of float  (** μs of private work, perfectly parallel *)
  | Serial of string * float
      (** μs holding a named global FIFO resource (kernel-side
          serialization, GC critical section) *)
  | Lock of int  (** acquire an application lock (FIFO, held across actions) *)
  | Unlock of int

type outcome = {
  makespan_us : float;
  per_core_completed : int array;
  total : int;
  latencies_us : float array;
      (** per-request sojourn time (assignment to completion), indexed by
          request — the raw sample behind the tail-latency percentiles *)
}

exception Sim_stuck of string

val run :
  ?gc_quantum:float -> ?gc_slice:float -> cores:int -> action list array -> outcome
(** Execute all requests (shared queue, closed loop per core).  Raises
    {!Sim_stuck} on deadlock or a runaway event budget.  Each request's
    latency is in the outcome's [latencies_us]. *)

val throughput : outcome -> float
(** Requests per second. *)

val percentile : float array -> float -> float
(** [percentile xs p] is the nearest-rank [p]-th percentile ([p] in
    [0..100]) of the sample; [0.] on an empty sample. *)

(** {2 The core-count sweep} *)

type point = {
  cores : int;
  throughput_rps : float;
  lat_p50_us : float;  (** median request latency at this core count *)
  lat_p95_us : float;
  lat_p99_us : float;
}

type 'a series = { label : 'a; points : point list }

val sweep : ('a * action list array) list -> 'a series list
(** [sweep runs] runs each labelled request list at 1 to 12 cores (the
    paper's range), with a 14 μs GC slice per 150 μs of CPU work, and
    reports throughput and nearest-rank latency percentiles per core
    count. *)

val at : 'a series -> int -> point
(** The point at this core count; [Invalid_argument] if the sweep did
    not reach it. *)

val throughput_at : 'a series -> int -> float
