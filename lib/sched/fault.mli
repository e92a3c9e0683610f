(** Fault kinds, injections, and fault schedules: the one vocabulary of
    the adversary, storage and network alike.

    A fault is a *partial* failure — strictly smaller than a whole-system
    crash: one I/O step misbehaves, or one message is lost, duplicated,
    reordered or delayed, while every thread keeps running.  Steps declare
    which faults they can absorb (see {!Prog.atomic}'s [?faults]): storage
    steps the disk kinds, {!Net}'s send and receive steps the [Msg_*] kinds.
    An oracle decides which declared fault actually fires: the refinement
    checker branches on every fault point up to its budget ([?faults] on
    [Refinement.check]), and the runner's [?fault_schedule] replays one
    {!schedule} — which is how tests replay a specific storage or network
    schedule. *)

type kind =
  | Read_error  (** transient: the read fails, disk state unchanged *)
  | Write_error  (** transient: nothing is persisted *)
  | Torn_write of int
      (** a multi-block write persists only its first [k] blocks *)
  | Disk_offline  (** a disk detaches mid-operation (two-disk only) *)
  | Disk_online  (** a detached disk re-attaches (two-disk only) *)
  | Msg_drop  (** network: a sent message is lost in flight *)
  | Msg_dup  (** network: a sent message is delivered twice *)
  | Msg_reorder of int
      (** network: a receive delivers the [k]-th waiting message
          ([k >= 1]) instead of the head *)
  | Msg_delay
      (** network: delivery is delayed past the receiver's timeout — a
          non-blocking receive times out even though a message is queued *)

val kind_name : kind -> string
val pp_kind : kind Fmt.t
val equal_kind : kind -> kind -> bool

type io_error = Eio of kind  (** carries the kind that caused it *)

val eio : io_error -> Tslang.Value.t
(** Distinguished error payload: fallible operations return either their
    normal value or [eio e], and {!is_eio} tells them apart.  Rendered as
    [Pair (Str "EIO", Str kind)] so counterexample traces show the cause. *)

val is_eio : Tslang.Value.t -> bool

val err_value : Tslang.Value.t
(** Client-visible degraded result: what a retry/degradation path returns
    once it gives up, and the error arm of graceful-degradation specs
    ("the operation completes atomically OR returns this distinguished
    error with durable state untouched").  Satisfies {!is_eio}; can never
    collide with a block ([Str]) or unit result. *)

type injection = { at : int; kind : kind }
(** Fire fault [kind] at the [at]-th fault-eligible step of the execution
    (0-based, counting only steps that declare at least one fault). *)

type schedule = injection list
