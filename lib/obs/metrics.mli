(** A zero-dependency metrics registry: counters and gauges, each
    identified by a name plus a label set.

    Handles are resolved once (get-or-create, typically at module
    initialization) and updating through a handle is a single atomic
    operation.

    A run's counts live in the result of that run (e.g. the refinement
    checker's [stats]); the {!default} registry holds only what a
    deterministic result cannot: the refinement checker's phase wall
    times and how its parallel work was split, which [bench/perf] reads.
    Fresh registries exist mainly for tests. *)

type labels = (string * string) list
(** Label pairs; order is irrelevant (canonicalized by key). *)

type registry

val create : unit -> registry
val default : registry

val reset : registry -> unit
(** Zero every metric's value.  Handles stay valid, which is how tests and
    the perf harness measure one run at a time. *)

(** {2 Counters} — monotonically non-decreasing integers *)

type counter

val counter : ?registry:registry -> ?labels:labels -> string -> counter
(** Get or create.  Raises [Invalid_argument] if the name+labels pair is
    already registered as a different metric kind. *)

val inc : ?by:int -> counter -> unit
(** Raises [Invalid_argument] on a negative increment (monotonicity). *)

val counter_value : counter -> int

(** {2 Gauges} — floats that can move both ways *)

type gauge

val gauge : ?registry:registry -> ?labels:labels -> string -> gauge
val add : gauge -> float -> unit
val gauge_value : gauge -> float

(** {2 Snapshots} *)

type value =
  | Counter of int
  | Gauge of float

type sample = { name : string; labels : labels; value : value }

val snapshot : ?registry:registry -> unit -> sample list
(** All metrics, sorted by name then labels. *)

val pp : ?registry:registry -> unit Fmt.t
(** One line per metric: ["name{k=v,...}"] and its value. *)
