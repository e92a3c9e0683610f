(** A zero-dependency metrics registry: counters, gauges and histograms,
    each identified by a name plus a label set.

    Handles are resolved once (get-or-create, typically at module
    initialization) and updating through a handle is a single mutable-field
    write, so instrumentation left in a hot path costs a few nanoseconds —
    the checkers keep their handles in module-level bindings and bump them
    unconditionally.

    The {!default} registry is the process-wide one used by the
    instrumented subsystems ([lib/core], [lib/sched], [lib/mcsim],
    [lib/goose]); fresh registries exist mainly for tests. *)

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
val set : gauge -> float -> unit
val add : gauge -> float -> unit

val record_max : gauge -> float -> unit
(** Set the gauge to [max current v] — high-water-mark tracking. *)

val gauge_value : gauge -> float

(** {2 Histograms} — cumulative-bucket distributions *)

type histogram

val histogram :
  ?registry:registry -> ?labels:labels -> ?buckets:float list -> string -> histogram
(** [buckets] are upper bounds (sorted ascending internally); an implicit
    +infinity bucket always exists.  The default buckets suit latencies in
    seconds: 5us .. 10s in a 1-2.5-5 progression. *)

val observe : histogram -> float -> unit
val hist_count : histogram -> int
val hist_sum : histogram -> float

val hist_buckets : histogram -> (float * int) list
(** [(upper_bound, cumulative_count)] pairs, ending with [(infinity, count)]. *)

(** {2 Snapshots} *)

type value =
  | Counter of int
  | Gauge of float
  | Histogram of { sum : float; count : int; buckets : (float * int) list }

type sample = { name : string; labels : labels; value : value }

val snapshot : ?registry:registry -> unit -> sample list
(** All metrics, sorted by name then labels. *)

val to_json : ?registry:registry -> unit -> Json.t
(** An object mapping ["name{k=v,...}"] to the metric's value (counters and
    gauges as numbers, histograms as [{sum; count; buckets}]). *)

val pp_samples : sample list Fmt.t
val pp : ?registry:registry -> unit Fmt.t
