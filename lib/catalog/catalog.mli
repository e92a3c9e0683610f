(** The checker instances of this repository, each written once.

    An instance is a named refinement check over one of the systems: the
    configuration it checks, the verdict it must reach, how it runs, and how
    a selection's fault budget applies to it.  [perennial_check]'s
    selections report the groups below and the differential, domain and
    golden tests assert them; an instance used by two groups is one value
    listed twice. *)

module R := Perennial_core.Refinement
module E := Perennial_core.Explore

type expect = Holds | Violated

type mode =
  | Exhaustive
  | Random of { schedules : int; crash_prob : float }
      (** seeded random walks ({!Refinement.check_random}, default seed) *)

(** How the selection's fault budget ([perennial_check --faults]) applies. *)
type budget =
  | Own  (** ignored: the config's own budget *)
  | Flag  (** the selection's budget *)
  | Capped of int  (** the selection's budget, at most this *)
  | Fixed of int  (** this budget, whatever the selection's *)

type t

val v :
  ?expect:expect ->
  ?mode:mode ->
  ?budget:budget ->
  ?golden:string ->
  string ->
  (unit -> ('w, 's) R.config) ->
  t
(** [v name config] is an instance; defaults: [Holds], [Exhaustive], [Own],
    no golden. *)

val name : t -> string
val expect : t -> expect
val mode : t -> mode
val budget : t -> budget
val golden : t -> string option

type 'a on_config = { f : 'w 's. ('w, 's) R.config -> 'a }

val on_config : 'a on_config -> t -> 'a
(** [on_config { f } inst] is [f] applied to a fresh copy of the
    instance's configuration, for a check {!run} does not offer. *)

val run :
  ?strategy:E.strategy ->
  ?faults:int ->
  ?max_seconds:float ->
  ?domains:int ->
  ?fingerprint:bool ->
  ?symmetry:bool ->
  t ->
  R.result
(** Check the instance as its mode says.  [?faults] is the selection's
    fault budget (default 2, as [perennial_check]'s), mapped through the
    instance's {!budget}.  Random walks take none of the optional arguments
    but [?faults], which they ignore too. *)

val met : t -> R.result -> bool
(** The result is the instance's expected verdict. *)

val guard : (E.strategy * R.result) list -> string list
(** The cross-strategy rule over one instance's results, naive's included:
    every strategy reaches naive's verdict and explores no more executions
    than naive.  One message per strategy that breaks it. *)

(** {2 Instances}

    Listed individually where a caller picks one out of its group. *)

val rd_two_writers : t
val cached_block : t
val shadow_copy : t
val wal_recovery : t
val group_commit : t
val mailboat_deliver : t
val mailboat_fsync_deferred : t

val mailboat_deferred : t
(** Plain deliver under deferred durability: violated. *)

val mailboat_fsync_sync : t
(** The fsync deliver under the paper's sync model. *)

val layered : t
val rd_nop_recovery : t
val rd_zero_recovery : t
val rd_unlocked : t
val wal_commit_first : t
val wal_no_log : t
val wal_clear_first : t
val shadow_in_place : t
val gc_strict_spec : t
val mailboat_unspooled : t
val mailboat_wrong_dir : t
val journal_commit_read : t

val journal_commit_read_fault : t
(** [journal_commit_read] at fault budget 1. *)

val kvs_put_get : t
val kvs_txn : t
val kvs_async : t
val circ_append_snapshot : t
val wal_mwrite_logger : t
val wal_flush_installer : t
val wal_multiwrite_recovery : t
val wal_flush_faults : t
val wal_header_first : t
val wal_trim_first : t
val wal_absorb_logged : t
val fs_create_append : t

val fs_create_append_probed : t
(** [fs_create_append] with post probes that read both files. *)

val fs_rename_read : t
val fs_append_recovery : t
val fs_ft : t
val spool_deliver : t
val fs_double_free : t

val fs_unlink_probed : t
(** [fs_double_free]'s positive control: the journaled unlink under the
    same post probes. *)

val fs_rename_two_txns : t
val spool_no_fsync : t

val rd_ft : t
val journal_ft : t
val kvs_ft : t
val rd_no_retry : t
val journal_torn : t
val kvs_swallow : t
val net_inc : t
val net_contention : t
val net_retry_storm : t
val net_cross_shard : t
val lease : t
val net_hosted : t
val net_no_cache : t
val net_raw_retry : t
val net_no_fence : t
val journal_record_first : t
val journal_no_log : t
val journal_recover_clear_first : t
val kvs_recover_nop : t
val kvs_strict_spec : t
val kvs_txn_no_log : t
val kvs_skip_buffer : t

(** {2 Groups} *)

val refinement : t list
(** [perennial_check refinement]: the paper's systems, and Mailboat with
    its deferred-durability trio (plain deliver violated, fsync deliver
    holding under deferred and under sync durability). *)

val kvs : t list
(** [perennial_check kvs] *)

val wal : t list
(** [perennial_check wal]: the circular log, the WAL and its seeded bugs,
    the journal on the WAL backend. *)

val fs : t list
(** [perennial_check fs]: the inode file system and the spool on it. *)

val faults : t list
(** [perennial_check faults]: retry/degradation paths and seeded
    fault-handling bugs. *)

val net : t list
(** [perennial_check net]: the exactly-once RPC stack and its seeded
    bugs. *)

val strategies : t list
(** [perennial_check strategies]: the cross-strategy guard's instances. *)

val bugs : t list
(** [perennial_check bugs]: the seeded bugs of the paper's systems,
    Mailboat, the journal and the KVS (§9.5):
    [rd_bugs @ pattern_bugs @ journal_bugs]. *)

val rd_bugs : t list
val pattern_bugs : t list
val journal_bugs : t list

val all : t list
(** Every instance above, once. *)
