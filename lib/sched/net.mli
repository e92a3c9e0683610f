(** Message-passing network model.

    Channels are named FIFO queues of {!Tslang.Value} messages living inside
    the program world behind a [~get]/[~set] lens.  There is no network
    adversary vocabulary here: loss, duplication, reordering and delay are
    the {!Fault} kinds [Msg_drop], [Msg_dup], [Msg_reorder k] and
    [Msg_delay], which each send/receive step declares on
    {!Prog.Atomic}'s [faults] channel, so

    - the refinement checker explores network schedules composed with crash
      points and interleavings exactly as it explores disk-fault schedules;
    - tests replay a specific network schedule through the runner's
      [?fault_schedule] oracle, as a list of [Fault.Msg_*] injections;
    - DPOR stays sound (steps with live fault branches are globally
      dependent; every step also carries a per-channel footprint);
    - every [(channel, event-kind)] pair registers a coverage site
      ([net_send(ch):msg_drop], …) in {!Obs.Coverage}, and fired events
      render as FAULT lines in counterexample lanes.

    Crash semantics: channels are volatile — a crash loses every in-flight
    message ({!clear}).  Recovery runs over a reliable network: the
    adversary only fires inside the main phase, mirroring the
    reliable-recovery fault assumption. *)

(** {1 Channel state} *)

type state
(** Canonical (sorted, no empty queues), so structural equality of worlds
    containing a [state] is semantic equality. *)

val empty : state
val is_empty : state -> bool

val send : string -> Tslang.Value.t -> state -> state
(** Enqueue at the tail of the named channel. *)

val recv : string -> state -> (Tslang.Value.t * state) option
(** Dequeue the head; [None] if the channel is empty. *)

val recv_at : string -> int -> state -> (Tslang.Value.t * state) option
(** Dequeue the [i]-th waiting message (0-based) — out-of-order delivery. *)

val peek : string -> state -> Tslang.Value.t option
val length : string -> state -> int
val channels : state -> string list

val clear : state -> state
(** Crash transition: every in-flight message is lost. *)

val compare : state -> state -> int
val equal : state -> state -> bool
val pp : state Fmt.t

(** {1 Program steps}

    Every step embeds the channel name in its label, so coverage sites are
    per [(channel, event-kind)] and lanes show which channel an event hit.
    Receives declare [Msg_reorder 1] — deliver the second waiting message
    instead of the head — whenever at least two messages wait. *)

val send_step :
  get:('w -> state) ->
  set:('w -> state -> 'w) ->
  string ->
  Tslang.Value.t ->
  ('w, unit) Prog.t
(** One send.  Declares [Msg_drop] (message lost, state unchanged) and
    [Msg_dup] (enqueued twice) as adversary events. *)

val try_recv_step :
  get:('w -> state) ->
  set:('w -> state -> 'w) ->
  string ->
  ('w, Tslang.Value.t option) Prog.t
(** Non-blocking receive with a timeout outcome: an empty channel returns
    [None] (the caller's timeout fired).  Declares [Msg_delay] — timeout
    fires even though a message IS queued, delivery delayed past the
    deadline — and [Msg_reorder 1]. *)

val recv_until :
  get:('w -> state) ->
  set:('w -> state -> 'w) ->
  until:('w -> bool) ->
  ?until_reads:Footprint.loc list ->
  string ->
  ('w, Tslang.Value.t option) Prog.t
(** Server-loop receive: blocks until a message arrives ([Some m]) or the
    harness-level [until] predicate holds with the channel drained ([None]
    — orderly shutdown).  [until_reads] lists the locations [until] reads,
    so DPOR keeps the step ordered against whatever changes them.  With an
    [until] that never holds this is a plain blocking receive.  No
    [Msg_delay] event: delaying delivery to a receiver willing to wait is
    subsumed by the scheduler not running it. *)
