(** Multi-address journaling: the generalization of the fixed-pair
    write-ahead log ([Systems.Wal]) that GoJournal-style systems are built
    on.  A transaction is a {e list} of (address, block) writes, made
    atomic and durable by the same commit protocol the WAL uses for its
    pair:

    + write every entry — address and value — into the log region;
    + commit with ONE atomic write of the entry count into the commit
      record (count 0 = no transaction in flight);
    + apply the entries to the data region in order;
    + clear the commit record.

    A crash between (2) and (4) leaves a committed-but-unapplied
    transaction; recovery replays the first [count] log slots and clears
    the record — completing the crashed transaction on the writer's behalf
    (recovery helping, §5.4).  Replay is idempotent, so recovery may
    itself crash at any point and re-run (§5.5).

    The commit program is written once over a host world's disk ops
    ({!Disk.Single_disk.ops}: plain or fallible) and recovery over its
    disk lens, so that larger systems — the
    transactional key-value store {!Kvs}, the inode file system
    [Perennial_fs.Fs] — can embed a journal in their own world.  A
    standalone single-lock journal system with its own spec, checker
    configuration and seeded-bug variants makes the protocol checkable on
    its own. *)

(** {1 Layout} *)

type layout = { n_data : int; max_slots : int }
(** Disk layout for [{ n_data; max_slots }]:
    - blocks [0 .. n_data-1]: the data region;
    - block [n_data]: the commit record (entry count, decimal);
    - blocks [n_data+1 ..]: [max_slots] log slots, 2 blocks each — entry
      address, then entry value. *)

val layout : n_data:int -> max_slots:int -> layout
(** Raises [Invalid_argument] unless both are positive. *)

val rec_addr : layout -> int
val slot_addr : layout -> int -> int
val slot_val : layout -> int -> int
val disk_size : layout -> int

(** {1 Marshalling} *)

val int_block : int -> Disk.Block.t
(** Counts and addresses are stored as decimal strings; [Block.zero] is
    ["0"], so a fresh disk already holds an empty commit record. *)

val block_int : Disk.Block.t -> int
(** Total: unparseable content reads as [0] (empty record). *)

val value_of_entries : (int * Disk.Block.t) list -> Tslang.Value.t
val entries_of_value : Tslang.Value.t -> (int * Disk.Block.t) list

(** {1 Backends}

    The journal's commit/recovery protocol comes in two interchangeable
    flavours over the SAME disk layout:

    - [`Direct] (the default): the original single-transaction protocol —
      log slots, then one atomic count write into the commit record;
    - [`Wal]: the log region is driven as a {!Perennial_wal.Circ} circular
      log — the commit record doubles as the ring header, commits append
      records and install the header atomically (the commit point), and
      recovery replays the live ring.  This is the paper's WAL slotted
      under the journal: same atomic-transaction spec, checked unchanged.

    [Block.zero] parses as both an empty commit record and an empty ring,
    so a fresh disk works under either backend; a given disk must be
    driven by one backend per lifetime (the header encodings differ). *)

type backend = [ `Direct | `Wal ]

val circ : layout -> Perennial_wal.Circ.layout
(** The ring the [`Wal] backend drives: header at [rec_addr], [max_slots]
    record slots — the direct layout's blocks, verbatim. *)

(** {1 The protocol over a host world}

    ['w] is the host system's world; the disk ops or
    [get_disk]/[set_disk] locate the embedded disk.  The caller is
    responsible for mutual exclusion over the log region (one committer
    at a time). *)

val commit :
  'w Disk.Single_disk.ops ->
  ?backend:backend ->
  ?retries:int ->
  layout ->
  (int * Disk.Block.t) list ->
  ('w, Tslang.Value.t) Sched.Prog.t
(** Commit one transaction over the given disk ops: log, commit point
    (the record write, or the [`Wal] header install), apply, clear.
    Returns [V.unit].  The empty transaction commits immediately (no
    steps); more than [max_slots] entries is undefined behaviour (caller's
    overflow bug, surfaced as UB not silent truncation).

    Over {!Disk.Single_disk.fallible} ops, before the commit point every
    failed write is retried at most [retries] times (default 1) and then
    the whole transaction ABORTS cleanly, returning
    {!Sched.Fault.err_value}; once the commit point is durable the
    transaction is committed, so apply/clear retry without bound
    (recovery would finish the job anyway). *)

val recover_prog :
  ?backend:backend ->
  get_disk:('w -> Disk.Single_disk.t) ->
  set_disk:('w -> Disk.Single_disk.t -> 'w) ->
  layout ->
  ('w, Tslang.Value.t) Sched.Prog.t
(** Read the commit record; if a transaction is pending, replay its slots
    in order and clear the record.  Idempotent — safe to crash during and
    re-run.  Must be called with the backend that wrote the disk. *)

(** {1 Standalone journal system} *)

type state = Disk.Block.t list
(** Spec state: the data region, one block per address. *)

val spec : layout -> state Tslang.Spec.t
(** Ops [j_commit]/[j_read] plus graceful-degradation arms
    [j_commit_ft]/[j_read_ft] (effect-or-[err_value]); crash-durable
    ([crash = ret ()]): committed transactions are never torn or lost. *)

type world = { disk : Disk.Single_disk.t; locks : Disk.Locks.t }

val init_world : layout -> world
val crash_world : world -> world
val pp_world : world Fmt.t
val get_disk : world -> Disk.Single_disk.t
val set_disk : world -> Disk.Single_disk.t -> world
val get_locks : world -> Disk.Locks.t
val set_locks : world -> Disk.Locks.t -> world

val the_lock : int
(** The single lock serializing committers. *)

val commit_txn_prog :
  ?backend:backend -> layout -> (int * Disk.Block.t) list -> (world, Tslang.Value.t) Sched.Prog.t

val read_prog : layout -> int -> (world, Tslang.Value.t) Sched.Prog.t
val recover : ?backend:backend -> layout -> (world, Tslang.Value.t) Sched.Prog.t

(** {2 Calls and checker configuration} *)

val commit_call :
  ?backend:backend ->
  layout ->
  (int * Disk.Block.t) list ->
  Tslang.Spec.call * (world, Tslang.Value.t) Sched.Prog.t

val read_call : layout -> int -> Tslang.Spec.call * (world, Tslang.Value.t) Sched.Prog.t

val commit_ft_call :
  ?backend:backend ->
  ?retries:int ->
  layout ->
  (int * Disk.Block.t) list ->
  Tslang.Spec.call * (world, Tslang.Value.t) Sched.Prog.t

val read_ft_call :
  ?retries:int -> layout -> int -> Tslang.Spec.call * (world, Tslang.Value.t) Sched.Prog.t
(** Read through the fallible op with bounded retry; degrades to
    {!Sched.Fault.err_value}. *)

val probe : layout -> (Tslang.Spec.call * (world, Tslang.Value.t) Sched.Prog.t) list
(** Post-crash probes: read back every data address. *)

val checker_config :
  ?backend:backend ->
  layout ->
  ?max_crashes:int ->
  ?fault_budget:int ->
  (Tslang.Spec.call * (world, Tslang.Value.t) Sched.Prog.t) list list ->
  (world, state) Perennial_core.Refinement.config
(** [?backend] selects the recovery program; build the threads with the
    matching [commit_call ?backend]. *)

(** {1 Seeded bugs}

    Each is a deliberately broken variant of the protocol, kept for the
    negative (bug-catching) checks and the golden counterexamples. *)

module Buggy : sig
  val commit_record_first :
    get_disk:('w -> Disk.Single_disk.t) ->
    set_disk:('w -> Disk.Single_disk.t -> 'w) ->
    layout ->
    (int * Disk.Block.t) list ->
    ('w, unit) Sched.Prog.t
  (** Commit record written before the log entries: recovery can replay
      stale slots as if they were this transaction. *)

  val commit_no_log :
    get_disk:('w -> Disk.Single_disk.t) ->
    set_disk:('w -> Disk.Single_disk.t -> 'w) ->
    layout ->
    (int * Disk.Block.t) list ->
    ('w, unit) Sched.Prog.t
  (** In-place multi-address update without the journal: a crash mid-apply
      tears the transaction. *)

  val commit_txn_record_first :
    layout -> (int * Disk.Block.t) list -> (world, Tslang.Value.t) Sched.Prog.t

  val commit_txn_no_log :
    layout -> (int * Disk.Block.t) list -> (world, Tslang.Value.t) Sched.Prog.t

  val commit_call_record_first :
    layout -> (int * Disk.Block.t) list -> Tslang.Spec.call * (world, Tslang.Value.t) Sched.Prog.t

  val commit_call_no_log :
    layout -> (int * Disk.Block.t) list -> Tslang.Spec.call * (world, Tslang.Value.t) Sched.Prog.t

  val recover_clear_first : layout -> (world, Tslang.Value.t) Sched.Prog.t
  (** Clears the commit record before replaying: a crash in between loses
      the committed transaction. *)

  val recover_nop : (world, Tslang.Value.t) Sched.Prog.t
  (** Recovery that ignores the commit record entirely. *)

  val commit_ft_ignore_torn :
    get_disk:('w -> Disk.Single_disk.t) ->
    set_disk:('w -> Disk.Single_disk.t -> 'w) ->
    layout ->
    (int * Disk.Block.t) list ->
    ('w, Tslang.Value.t) Sched.Prog.t
  (** Treats a torn multi-slot log write as success and commits anyway. *)

  val commit_ft_swallow_apply :
    get_disk:('w -> Disk.Single_disk.t) ->
    set_disk:('w -> Disk.Single_disk.t -> 'w) ->
    layout ->
    (int * Disk.Block.t) list ->
    ('w, Tslang.Value.t) Sched.Prog.t
  (** Swallows a failed apply write after the commit record: reports
      success with a data block never written and the record cleared. *)

  val commit_txn_ft_ignore_torn :
    layout -> (int * Disk.Block.t) list -> (world, Tslang.Value.t) Sched.Prog.t

  val commit_ft_call_ignore_torn :
    layout -> (int * Disk.Block.t) list -> Tslang.Spec.call * (world, Tslang.Value.t) Sched.Prog.t
end
