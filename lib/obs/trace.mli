(** Structured trace events — spans and instants with thread/phase
    attribution — behind a pluggable sink.

    With the default {!Null} sink every hook compiles to a load of one
    boolean ref and a conditional jump, so instrumentation can stay in the
    checkers' hot paths permanently.  Install a sink to capture:

    - {!Memory}: events accumulate in a buffer ({!memory_events});
    - Chrome ({!open_chrome}): the Chrome [trace_event] format — load the
      file in [chrome://tracing] or [ui.perfetto.dev] to see a failing
      interleaving or a checker run on a timeline. *)

type arg = I of int | F of float | S of string | B of bool

type phase =
  | Span_begin
  | Span_end
  | Complete of float  (** a finished span carrying its duration in us *)
  | Instant

type event = {
  name : string;
  cat : string;  (** category, e.g. ["refinement"], ["crash"] *)
  ph : phase;
  ts : float;  (** microseconds since an arbitrary origin *)
  pid : int;
  tid : int;
  args : (string * arg) list;
}

(** {2 Sinks} *)

val enabled : unit -> bool
(** [false] under the [Null] sink — guard any hook whose argument
    construction is not free. *)

val install_memory : unit -> unit
val open_chrome : string -> unit

val close : unit -> unit
(** Flush and close the current sink (writing the Chrome trailer if
    applicable) and revert to the null sink.  Idempotent. *)

val memory_events : unit -> event list
(** Events captured since [install_memory], oldest first. *)

val dropped : unit -> int
(** Events discarded because the in-memory buffer hit its cap. *)

val set_limit : int -> unit
(** Cap on buffered events for the Memory and Chrome sinks
    (default 200_000); further events are counted in {!dropped}. *)

(** {2 Clock} *)

val now_us : unit -> float

val set_clock : (unit -> float) -> unit
(** Override the microsecond clock — deterministic tests install a
    counter. *)

(** {2 Emitting} *)

val emit : event -> unit

val instant : ?cat:string -> ?tid:int -> ?args:(string * arg) list -> string -> unit

val with_span : ?cat:string -> ?tid:int -> ?args:(string * arg) list -> string -> (unit -> 'a) -> 'a
(** Runs the thunk inside a complete-span event ([ph = Complete]); the
    event is emitted when the thunk returns (or raises — the span is still
    recorded, via [Fun.protect]).  Under the null sink this is just the
    thunk call. *)

(** {2 Span context}

    Explicit begin/end spans that carry a causal parent/child link: each
    begun span gets a fresh id and records the id of the span currently
    open on the same [tid] as its ["parent"] arg, so a sink consumer can
    reconstruct the span {e tree} of an operation as it descends layers
    (fs → txn_log → disk).  Stacks are per-tid; begin/end must nest. *)

val span_begin : ?cat:string -> ?tid:int -> ?args:(string * arg) list -> string -> unit
(** Open a span on [tid]'s stack and emit a [Span_begin] event whose args
    include [("span", I id)] and, when nested, [("parent", I parent_id)]. *)

val span_end : ?tid:int -> unit -> float option
(** Close the innermost open span on [tid], emit its [Span_end] event,
    and return its duration in microseconds ([None] if no span is open
    or tracing is off). *)

val reset_spans : unit -> unit
(** Drop all open span stacks and restart span-id numbering (tests). *)

(** {2 Serialization} *)

val event_json : event -> Json.t
(** One Chrome [trace_event] object. *)

val chrome_json : event list -> Json.t
(** The full Chrome trace document: [{"traceEvents": [...]}]. *)
