(** The Goose file-system model (paper §6.2): a POSIX subset over a fixed
    set of directories, every operation atomic, with the paper's crash model
    (file data persists, descriptors are lost) — plus the deferred-
    durability extension ([`Deferred] mode buffers appends until {!fsync}).

    A pure value: the world type used by the refinement checker and the
    Goose interpreter.  {!Tmpfs} is the mutable, lock-protected variant the
    running mail servers use. *)

type mode = Read | Append

type fd = { ino : int; mode : mode }

type durability = [ `Sync  (** the paper's model: writes are durable *)
                  | `Deferred  (** writes buffer until [fsync] *) ]

type t
(** Whole-file-system state; immutable. *)

val empty : t

val init : ?durability:durability -> string list -> t
(** [init dirs] creates the fixed directory layout (directories cannot be
    made at run time, matching the paper's restriction).  Default
    durability is [`Sync]. *)

val has_dir : t -> string -> bool

val dir_names : t -> string list
(** Directory names, sorted — the observable content of the root. *)

val mkdir : t -> string -> t option
(** Add an empty directory; [None] if it exists.  An extension over the
    paper's fixed layout, for use as a specification of {!Perennial_fs}. *)

val crash : t -> t
(** Directories persist and descriptors are lost; file contents survive up
    to their synced prefix — everything in [`Sync] mode, only what
    [fsync] reached in [`Deferred] mode. *)

val equal : t -> t -> bool
val compare : t -> t -> int
val pp : t Fmt.t

(** {1 Operations}

    All return [None] (or fail with an [ok=false] flag at the {!Ops}
    level) rather than raising, except for structurally-impossible
    arguments (unknown directory), which are programming errors. *)

val lookup : t -> string -> string -> int option
(** [lookup fs dir name] is the inode of [dir/name], if any. *)

val create : t -> string -> string -> (t * int) option
(** Atomic create-if-absent; opens the new file for append.  [None] if the
    name exists — the primitive Mailboat's random-ID retry loop relies on. *)

val open_read : t -> string -> string -> (t * int) option
val fd_of : t -> int -> fd option

val append : t -> int -> string -> t option
(** [None] on an invalid or read-only descriptor. *)

val fsync : t -> int -> t option
(** Make the descriptor's inode contents durable; a no-op under [`Sync]. *)

val read_at : t -> int -> int -> int -> string option
(** [read_at fs fd off len]: up to [len] bytes from [off]; reads observe
    buffered (unsynced) data, like a page cache. *)

val size : t -> int -> int option
val close : t -> int -> t option

val link : t -> src:string * string -> dst:string * string -> t option
(** Atomically give the file at [src] a second name at [dst]; [None] if
    [dst] exists or [src] does not — the Mailboat commit point. *)

val delete : t -> string -> string -> t option
(** Unlink; contents are freed with the last link.  [None] if absent. *)

val rename : t -> src:string * string -> dst:string * string -> t option
(** Atomically move [src] to [dst], replacing (and freeing, on last link)
    any displaced target — POSIX rename.  [None] if [src] is absent. *)

val append_path : t -> string -> string -> string -> t option
(** Descriptor-less append (same durability semantics as {!append});
    [None] if the file does not exist. *)

val fsync_path : t -> string -> string -> t option
(** Descriptor-less {!fsync}. *)

val list_dir : t -> string -> string list
(** Sorted file names; raises [Invalid_argument] on an unknown directory. *)

val read_file : t -> string -> string -> string option
(** Whole-file read by path, for tests and probes (not part of the modeled
    API — modeled code must go through descriptors). *)
