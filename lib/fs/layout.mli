(** Disk geometry of the inode file system ({!Fs}), layered on the journal.

    The journal's *data region* ({!Journal.Txn_log.layout}) is carved into
    three fixed areas, in address order:

    - block [0]: the allocation bitmap for the data blocks ({!Bitmap});
    - blocks [1 .. n_inodes]: the inode table, one inode per block
      ({!Inode}; [Block.zero] marks a free inode);
    - blocks [n_inodes+1 ..]: [n_blocks] data blocks, holding file bytes
      and packed directory entries ({!Dirent}).

    Beyond the data region lie the journal's commit record and log slots
    — the file system never addresses those directly; every mutation goes
    through {!Journal.Txn_log.commit}.

    Inode 0 is the root directory: its entries name the directories, whose
    own entries name the files — the same two-level namespace as the
    {!Gfs.Fs} specification. *)

type t = private {
  n_inodes : int;  (** inode-table size, including the root *)
  n_blocks : int;  (** data blocks governed by the bitmap *)
  block_bytes : int;  (** file bytes per data block *)
  dir_entries : int;  (** directory entries per data block *)
  inode_ptrs : int;  (** direct block pointers per inode *)
}

val v :
  ?block_bytes:int ->
  ?dir_entries:int ->
  ?inode_ptrs:int ->
  n_inodes:int ->
  n_blocks:int ->
  unit ->
  t
(** Defaults keep exhaustive checking tractable: [block_bytes = 2],
    [dir_entries = 2], [inode_ptrs = 3].  Raises [Invalid_argument] on a
    non-positive dimension. *)

val root_ino : int
(** [0] — the root directory's inode. *)

val bitmap_addr : t -> int
val inode_addr : t -> int -> int
val data_addr : t -> int -> int

val n_data : t -> int
(** Size of the journal's data region. *)

val max_slots : t -> int
(** Journal log slots — one per data-region address, since transactions
    are per-address deduplicated. *)

val journal : t -> Journal.Txn_log.layout
val disk_size : t -> int

val max_file_bytes : t -> int
(** [inode_ptrs * block_bytes] — the direct-block file-size cap, checked
    identically by the implementation and the specification. *)

val max_dir_entries : t -> int
(** [inode_ptrs * dir_entries] — entries one directory can hold. *)
