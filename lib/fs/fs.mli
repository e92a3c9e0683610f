(** A crash-safe inode file system on the journal stack — the capstone
    layering of the repo's storage tower:

    {v
      Spool (Mailboat re-hosted)          lib/fs/spool.ml
        Fs  (this module)                 POSIX subset, atomic ops
          Journal.Txn_log                 multi-address transactions
            Disk.Single_disk              crash-prone block device
    v}

    On-disk format (see {!Layout}): block 0 the allocation {!Bitmap},
    blocks [1..n_inodes] the {!Inode} table, then the data region, then
    the journal's commit record and log slots.  Inode 0 is the root
    directory; its entries name directories, whose entries name files —
    the same two-level namespace as the atomic {!Gfs.Fs} specification the
    implementation is checked against.

    {b Crash argument.}  Every mutating operation is: take the single
    file-system lock, make one pure {e decision} step that reads the
    locked state and computes a whole transaction (a canonical
    [(address, block) list]: freed blocks zeroed, per-address
    deduplicated, sorted), commit it through
    {!Journal.Txn_log.commit}, release the lock.  The journal makes
    the transaction all-or-nothing across crashes and recovery replays a
    committed-but-unapplied one, so every operation is crash-atomic —
    which is exactly the [Gfs.Fs] spec's step granularity.  Allocation
    lives inside the same transaction as the structures that reference
    the allocated blocks; that single fact is what rules out double-free
    and leak across crashes (cf. {!Buggy.unlink_free_first}).

    {b Durability.}  Under [`Sync] every operation is durable at return.
    Under [`Deferred], [append] buffers in a volatile per-inode cache and
    [fsync] commits the tail; a crash truncates each file to its synced
    prefix — mirroring [Gfs.Fs]'s durability modes and crash transition.

    Reads batch into the one decision step with a conservative read-only
    footprint over the whole file-system region; all mutation happens in
    the journal's per-block write steps, which carry precise footprints —
    so partial-order reduction stays sound and crash injection keeps
    per-block granularity where it matters. *)

type params = private { lay : Layout.t; durability : Gfs.Fs.durability; backend : Journal.Txn_log.backend }

val params : ?durability:Gfs.Fs.durability -> ?backend:Journal.Txn_log.backend -> Layout.t -> params
(** [durability] defaults to [`Sync]; [backend] (default [`Direct])
    selects the journal's commit protocol — [`Wal] routes every fs
    transaction and recovery through the circular log. *)

(** {1 World} *)

module IMap : Map.S with type key = int

type world = {
  disk : Disk.Single_disk.t;
  cache : string IMap.t;
      (** per-inode unsynced tail ([`Deferred] mode); volatile *)
  locks : Disk.Locks.t;
}

val get_disk : world -> Disk.Single_disk.t
val set_disk : world -> Disk.Single_disk.t -> world
val get_locks : world -> Disk.Locks.t
val set_locks : world -> Disk.Locks.t -> world

val crash_world : world -> world
(** Cache and locks are volatile; the disk survives. *)

val pp_world : world Fmt.t

val fs_lock : int
(** The single lock serializing file-system operations (coarse, like the
    paper's per-structure locks scaled down to the tiny model); {!Spool}
    claims ids from 1 up for its per-user locks. *)

val init_world : params -> dirs:string list -> files:(string * string * string) list -> world
(** A freshly formatted disk seeded with [dirs] and [files]
    [(dir, name, contents)], built through the same pure decision
    functions the operations use.  Raises [Invalid_argument] if the seed
    exceeds the layout's capacity. *)

(** {1 Operations}

    Boolean-returning operations answer [false] (never raise, never UB)
    for name/lookup failures, exactly as the spec does; resource
    exhaustion (out of inodes, data blocks, or directory slots) is
    undefined behaviour — size the instance so it cannot happen, as
    {!Layout} documents. *)

val mkdir_prog : params -> string -> (world, Tslang.Value.t) Sched.Prog.t
(** [bool]: create a directory under the root. *)

val create_prog : params -> string -> string -> (world, Tslang.Value.t) Sched.Prog.t
(** [bool]: create an empty file in a directory. *)

val append_prog : params -> string -> string -> string -> (world, Tslang.Value.t) Sched.Prog.t
(** [bool]: append bytes to a file; [false] if missing or the result
    would exceed {!Layout.max_file_bytes}.  Durable at return under
    [`Sync]; buffered until {!fsync_prog} under [`Deferred]. *)

val read_prog : params -> string -> string -> (world, Tslang.Value.t) Sched.Prog.t
(** [(contents, ok) pair]: durable bytes plus any unsynced tail. *)

val readdir_prog : params -> string -> (world, Tslang.Value.t) Sched.Prog.t
(** [(names, ok) pair]; ["/"] lists the directories, sorted. *)

val unlink_prog : params -> string -> string -> (world, Tslang.Value.t) Sched.Prog.t
(** [bool]: remove a file, freeing its inode and blocks in the same
    transaction. *)

val rename_prog :
  params -> src:string * string -> dst:string * string -> (world, Tslang.Value.t) Sched.Prog.t
(** [bool]: atomically move [src] to [dst], displacing any existing
    target — unlink and link in ONE transaction. *)

val rename_nr_prog :
  params -> src:string * string -> dst:string * string -> (world, Tslang.Value.t) Sched.Prog.t
(** No-replace rename: [false] if [dst] already exists.  The spool's
    atomic publish. *)

val fsync_prog : params -> string -> string -> (world, Tslang.Value.t) Sched.Prog.t
(** [bool]: make the file's buffered tail durable ([`Deferred]); a no-op
    under [`Sync]. *)

val create_ft_prog : ?retries:int -> params -> string -> string -> (world, Tslang.Value.t) Sched.Prog.t
(** Graceful degradation: the allocator's bitmap read goes through the
    fallible disk op with bounded retry (default 1), and the transaction
    commits through {!Journal.Txn_log.commit} over the fallible disk ops
    (abort before the commit record, unbounded retry after).  Degrades to
    {!Sched.Fault.err_value} with durable state untouched. *)

val append_ft_prog :
  ?retries:int -> params -> string -> string -> string -> (world, Tslang.Value.t) Sched.Prog.t

val recover : params -> (world, Tslang.Value.t) Sched.Prog.t
(** The journal's recovery; idempotent under crash-during-recovery. *)

(** {1 Specification} *)

val spec :
  params -> dirs:string list -> files:(string * string * string) list -> Gfs.Fs.t Tslang.Spec.t
(** The atomic {!Gfs.Fs} transition system over ops
    [fs_mkdir]/[fs_create]/[fs_append]/[fs_read]/[fs_readdir]/
    [fs_unlink]/[fs_rename]/[fs_fsync] plus
    graceful-degradation arms [fs_create_ft]/[fs_append_ft]
    (effect-or-{!Sched.Fault.err_value}).  The crash transition is
    {!Gfs.Fs.crash}: truncate to synced prefixes, drop unsynced
    handles. *)

(** {1 Calls and checker configuration} *)

val mkdir_call : params -> string -> Tslang.Spec.call * (world, Tslang.Value.t) Sched.Prog.t
val create_call : params -> string -> string -> Tslang.Spec.call * (world, Tslang.Value.t) Sched.Prog.t

val append_call :
  params -> string -> string -> string -> Tslang.Spec.call * (world, Tslang.Value.t) Sched.Prog.t

val read_call : params -> string -> string -> Tslang.Spec.call * (world, Tslang.Value.t) Sched.Prog.t
val readdir_call : params -> string -> Tslang.Spec.call * (world, Tslang.Value.t) Sched.Prog.t
val unlink_call : params -> string -> string -> Tslang.Spec.call * (world, Tslang.Value.t) Sched.Prog.t

val rename_call :
  params ->
  src:string * string ->
  dst:string * string ->
  Tslang.Spec.call * (world, Tslang.Value.t) Sched.Prog.t

val fsync_call : params -> string -> string -> Tslang.Spec.call * (world, Tslang.Value.t) Sched.Prog.t

val create_ft_call :
  ?retries:int -> params -> string -> string -> Tslang.Spec.call * (world, Tslang.Value.t) Sched.Prog.t

val append_ft_call :
  ?retries:int ->
  params ->
  string ->
  string ->
  string ->
  Tslang.Spec.call * (world, Tslang.Value.t) Sched.Prog.t

val probe :
  params ->
  dirs:string list ->
  files:(string * string) list ->
  (Tslang.Spec.call * (world, Tslang.Value.t) Sched.Prog.t) list
(** Post-crash probes: list every directory and read every named file.
    Probes may also be WRITE operations (create/append after recovery) —
    that is how the allocator double-free becomes observable. *)

val checker_config :
  params ->
  dirs:string list ->
  files:(string * string * string) list ->
  ?post:(Tslang.Spec.call * (world, Tslang.Value.t) Sched.Prog.t) list ->
  ?max_crashes:int ->
  ?fault_budget:int ->
  ?step_budget:int ->
  (Tslang.Spec.call * (world, Tslang.Value.t) Sched.Prog.t) list list ->
  (world, Gfs.Fs.t) Perennial_core.Refinement.config
(** [post] defaults to {!probe} over the seeded dirs and files. *)

(** {1 Seeded bugs} *)

module Buggy : sig
  val unlink_free_first : params -> string -> string -> (world, Tslang.Value.t) Sched.Prog.t
  (** Allocator double-free across a crash: the freed bits are written
      straight to the bitmap block — outside the journal — before the
      unlink transaction commits.  A crash in between leaves blocks both
      free (per the bitmap) and referenced (per the directory); the next
      allocation hands them out again and overwrites live file data.
      Expose with post probes that create-and-append after recovery, then
      read the original file. *)

  val unlink_call_free_first :
    params -> string -> string -> Tslang.Spec.call * (world, Tslang.Value.t) Sched.Prog.t

  val rename_two_txns :
    params -> src:string * string -> dst:string * string -> (world, Tslang.Value.t) Sched.Prog.t
  (** Rename as TWO journal transactions — unlink the displaced target
      first, then move the source.  Each transaction is atomic, but a
      crash between them has deleted the target without installing the
      new name: the composite is not. *)

  val rename_call_two_txns :
    params ->
    src:string * string ->
    dst:string * string ->
    Tslang.Spec.call * (world, Tslang.Value.t) Sched.Prog.t
end
