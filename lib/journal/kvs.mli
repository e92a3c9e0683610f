(** A crash-safe transactional key-value store on the multi-address journal
    ({!Txn_log}) — the GoJournal/dafny-jrnl layering, reproduced inside the
    outline/refinement checking stack.

    The store holds a fixed capacity of [n_keys] keys (key = data-region
    address, value = one block).  Operations:

    - [kv_get k]        read key [k];
    - [kv_put k v]      durable single-key put (commits a journal txn);
    - [kv_txn entries]  durable multi-key put — all or nothing;
    - [kv_put_async]    buffered put: acknowledged before it is durable;
    - [kv_flush]        make every buffered put durable in ONE journal txn.

    Locking: one lock per key (ids [0..n_keys-1]) guarding that key's data
    block, plus a commit lock (id [n_keys]) guarding the log region and the
    volatile group-commit buffer.  Gets take only their key's lock; a
    durable commit takes every key lock (ascending, then the commit lock —
    a total order, so no deadlock) because flushing merges the whole buffer
    into one transaction.

    The group-commit loss window is visible in the specification, exactly
    as for [Systems.Group_commit]: abstract state is (committed map,
    pending transaction queue) and the crash transition DROPS the pending
    queue — committed puts survive, acknowledged-but-unflushed ones may be
    lost, in-flight transactions are never partially applied.  Checking
    the implementation against {!strict_spec} (crash loses nothing) must
    fail; that rejection is what shows the spec needs the loss window. *)

type params = { n_keys : int; max_slots : int; backend : Txn_log.backend }

val params : ?backend:Txn_log.backend -> ?max_slots:int -> n_keys:int -> unit -> params
(** [max_slots] defaults to [n_keys]: a merged group commit has at most
    one entry per key, so the log can always hold a full flush.
    [backend] (default [`Direct]) selects the journal's commit protocol;
    [`Wal] routes every commit and recovery through the circular log.
    Raises [Invalid_argument] if [n_keys <= 0] or [max_slots < n_keys]. *)

val layout : params -> Txn_log.layout

type txn = (int * Disk.Block.t) list

(** {1 Specification} *)

type state = {
  committed : Disk.Block.t list;  (** durable value per key *)
  pending : txn list;  (** acknowledged, not yet flushed; newest last *)
}

val view : state -> Disk.Block.t list
(** The observable map: committed with every pending txn applied in
    order. *)

val view_key : state -> int -> Disk.Block.t
val entries_of_value : Tslang.Value.t -> txn
val value_of_entries : txn -> Tslang.Value.t

val spec : params -> state Tslang.Spec.t
(** Ops [kv_get]/[kv_put]/[kv_txn]/[kv_put_async]/[kv_flush] plus
    graceful-degradation arms [kv_get_ft]/[kv_put_ft]/[kv_txn_ft]
    (effect-or-{!Sched.Fault.err_value}); the crash transition drops the
    pending queue — the group-commit loss window. *)

val strict_spec : params -> state Tslang.Spec.t
(** The lossless crash spec the implementation must FAIL against — the
    experiment showing the group-commit window is real. *)

(** {1 World and implementation} *)

type world = {
  disk : Disk.Single_disk.t;
  buffer : txn list;  (** volatile group-commit buffer, newest last *)
  locks : Disk.Locks.t;
}

val init_world : params -> world
val crash_world : world -> world
val pp_world : world Fmt.t
val get_disk : world -> Disk.Single_disk.t
val set_disk : world -> Disk.Single_disk.t -> world
val get_locks : world -> Disk.Locks.t
val set_locks : world -> Disk.Locks.t -> world

val commit_lock : params -> int
(** Key lock ids are [0..n_keys-1]; the commit lock is [n_keys]. *)

val get_prog : params -> int -> (world, Tslang.Value.t) Sched.Prog.t
(** Read under the key lock alone: a committing transaction holds the key
    locks of its whole footprint from log-append to record-clear, so the
    data block can never be observed mid-apply. *)

val get_sync_prog : params -> int -> (world, Tslang.Value.t) Sched.Prog.t
(** The coarser get the proof outline ([Kvs_proof]) covers exactly: key
    lock then commit lock, so the pinned commit record rules out the
    committed-but-unapplied window by lease agreement alone. *)

val put_prog : params -> int -> Tslang.Value.t -> (world, Tslang.Value.t) Sched.Prog.t
val txn_prog : params -> txn -> (world, Tslang.Value.t) Sched.Prog.t

val put_async_prog : params -> int -> Tslang.Value.t -> (world, Tslang.Value.t) Sched.Prog.t
(** Acknowledge after ONE volatile buffer append — the group-commit fast
    path, and the whole reason the spec's crash drops the pending queue. *)

val flush_prog : params -> (world, Tslang.Value.t) Sched.Prog.t

val recover : params -> (world, Tslang.Value.t) Sched.Prog.t
(** The journal's recovery: replay a committed-but-unapplied transaction
    (helping), clear the record.  The buffer died with the crash. *)

(** {1 Calls and checker configuration} *)

val get_call : params -> int -> Tslang.Spec.call * (world, Tslang.Value.t) Sched.Prog.t
val get_sync_call : params -> int -> Tslang.Spec.call * (world, Tslang.Value.t) Sched.Prog.t

val put_call :
  params -> int -> Tslang.Value.t -> Tslang.Spec.call * (world, Tslang.Value.t) Sched.Prog.t

val txn_call : params -> txn -> Tslang.Spec.call * (world, Tslang.Value.t) Sched.Prog.t

val put_async_call :
  params -> int -> Tslang.Value.t -> Tslang.Spec.call * (world, Tslang.Value.t) Sched.Prog.t

val flush_call : params -> Tslang.Spec.call * (world, Tslang.Value.t) Sched.Prog.t

val get_ft_call :
  ?retries:int -> params -> int -> Tslang.Spec.call * (world, Tslang.Value.t) Sched.Prog.t
(** The [_ft] calls run the same programs as the plain ones over the
    fallible disk ops: a get retries its disk read at most [retries]
    times (default 1) and degrades to {!Sched.Fault.err_value}; a put or
    txn commits through {!Txn_log.commit}, and on a clean abort leaves
    the buffer pending. *)

val put_ft_call :
  ?retries:int ->
  params ->
  int ->
  Tslang.Value.t ->
  Tslang.Spec.call * (world, Tslang.Value.t) Sched.Prog.t

val txn_ft_call :
  ?retries:int -> params -> txn -> Tslang.Spec.call * (world, Tslang.Value.t) Sched.Prog.t

val probe : params -> (Tslang.Spec.call * (world, Tslang.Value.t) Sched.Prog.t) list
(** Post-crash probes: read back every key. *)

val checker_config :
  params ->
  ?spec:state Tslang.Spec.t ->
  ?max_crashes:int ->
  ?fault_budget:int ->
  (Tslang.Spec.call * (world, Tslang.Value.t) Sched.Prog.t) list list ->
  (world, state) Perennial_core.Refinement.config

(** {1 Seeded bugs} *)

module Buggy : sig
  val get_skip_buffer : params -> int -> (world, Tslang.Value.t) Sched.Prog.t
  (** A get straight from the data region: misses acknowledged buffered
      puts — caught with no crash at all. *)

  val get_call_skip_buffer :
    params -> int -> Tslang.Spec.call * (world, Tslang.Value.t) Sched.Prog.t

  val txn_record_first : params -> txn -> Tslang.Spec.call * (world, Tslang.Value.t) Sched.Prog.t
  (** Commit through {!Txn_log.Buggy.commit_record_first}. *)

  val txn_no_log : params -> txn -> Tslang.Spec.call * (world, Tslang.Value.t) Sched.Prog.t
  (** Commit through {!Txn_log.Buggy.commit_no_log}. *)

  val recover_nop : (world, Tslang.Value.t) Sched.Prog.t

  val put_ft_swallow_apply :
    params -> int -> Tslang.Value.t -> (world, Tslang.Value.t) Sched.Prog.t
  (** Store-level wrapper of {!Txn_log.Buggy.commit_ft_swallow_apply}: the
      put reports success while the key's data block was never written —
      fault budget 1, no crash needed. *)

  val put_ft_call_swallow_apply :
    params -> int -> Tslang.Value.t -> Tslang.Spec.call * (world, Tslang.Value.t) Sched.Prog.t
end
