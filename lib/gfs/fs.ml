(** The Goose file-system model (paper §6.2): a subset of the POSIX API over
    a fixed set of directories, with every operation atomic with respect to
    other threads, and a crash model in which all file data persists but
    open file descriptors are lost.

    The state deliberately mirrors the four capability kinds of the paper:
    directories (name sets), directory entries (name -> inode), file
    descriptors (volatile, mode-tagged), and inode contents (byte strings).

    Beyond the paper's model, the file system supports *deferred
    durability* — the extension §1 calls non-fundamental future work.  In
    [`Deferred] mode an append lands in a volatile tail that only becomes
    crash-proof after [fsync]; a crash truncates every inode back to its
    synced prefix.  The paper's model is [`Sync], where every append is
    immediately durable.  The Mailboat variants in the test suite show a
    delivery that skips fsync losing (truncating) messages across a crash,
    and the fsync-before-link version verifying again.

    This is a pure value — the world type used by the refinement checker and
    the Goose interpreter.  [Tmpfs] provides the mutable, lock-protected
    variant used by the running mail servers. *)

module SMap = Map.Make (String)
module IMap = Map.Make (Int)

type mode = Read | Append

type fd = { ino : int; mode : mode }

type durability = [ `Sync  (** the paper's model: writes are durable *)
                  | `Deferred  (** writes buffer until [fsync] *) ]

type t = {
  dirs : int SMap.t SMap.t;  (** directory -> file name -> inode *)
  inodes : string IMap.t;  (** inode -> contents (including unsynced tail) *)
  synced : int IMap.t;  (** inode -> durable prefix length ([`Deferred]) *)
  durability : durability;
  nlink : int IMap.t;  (** inode -> number of directory entries *)
  fds : fd IMap.t;  (** open descriptors; volatile *)
  next_ino : int;
  next_fd : int;
}

let empty = {
  dirs = SMap.empty;
  inodes = IMap.empty;
  synced = IMap.empty;
  durability = `Sync;
  nlink = IMap.empty;
  fds = IMap.empty;
  next_ino = 0;
  next_fd = 0;
}

(** Create the fixed directory layout (directories cannot be made at run
    time, matching the paper's "fixed layout" restriction). *)
let init ?(durability = `Sync) dirs =
  List.fold_left
    (fun fs d -> { fs with dirs = SMap.add d SMap.empty fs.dirs })
    { empty with durability } dirs

let has_dir fs dir = SMap.mem dir fs.dirs

(** Directory names, sorted — the observable content of the root. *)
let dir_names fs = List.map fst (SMap.bindings fs.dirs)

(** [mkdir fs dir]: add an empty directory; [None] if it exists.  An
    extension over the paper's fixed layout, needed once the file system is
    an implementation target ({!Perennial_fs}) rather than an axiom. *)
let mkdir fs dir =
  if SMap.mem dir fs.dirs then None
  else Some { fs with dirs = SMap.add dir SMap.empty fs.dirs }

(** Crash: directories persist and descriptors are lost; file contents
    survive up to their synced prefix — everything in [`Sync] mode, only
    what [fsync] reached in [`Deferred] mode. *)
let crash fs =
  let inodes =
    match fs.durability with
    | `Sync -> fs.inodes
    | `Deferred ->
      IMap.mapi
        (fun ino contents ->
          let keep =
            match IMap.find_opt ino fs.synced with Some n -> n | None -> 0
          in
          String.sub contents 0 (min keep (String.length contents)))
        fs.inodes
  in
  (* whatever survived the crash is, by definition, durable now *)
  let synced = IMap.map String.length inodes in
  { fs with inodes; synced; fds = IMap.empty; next_fd = 0 }

(* --- comparison / printing --- *)

let compare_fd a b =
  let c = Int.compare a.ino b.ino in
  if c <> 0 then c else Stdlib.compare a.mode b.mode

let compare a b =
  let c = SMap.compare (SMap.compare Int.compare) a.dirs b.dirs in
  if c <> 0 then c
  else
    let c = IMap.compare String.compare a.inodes b.inodes in
    if c <> 0 then c
    else
      let c = IMap.compare Int.compare a.synced b.synced in
      if c <> 0 then c
      else
      let c = IMap.compare compare_fd a.fds b.fds in
      if c <> 0 then c
      else
        let c = Int.compare a.next_ino b.next_ino in
        if c <> 0 then c else Int.compare a.next_fd b.next_fd

let equal a b = compare a b = 0

let pp ppf fs =
  let dir ppf (d, entries) =
    Fmt.pf ppf "%s/{%a}" d
      (Fmt.list ~sep:Fmt.comma (fun ppf (n, i) -> Fmt.pf ppf "%s:%d" n i))
      (SMap.bindings entries)
  in
  Fmt.pf ppf "fs{%a | inodes %a}"
    (Fmt.list ~sep:Fmt.sp dir) (SMap.bindings fs.dirs)
    (Fmt.list ~sep:Fmt.comma (fun ppf (i, c) -> Fmt.pf ppf "%d:%S" i c))
    (IMap.bindings fs.inodes)

(* --- core operations (pure, total; [ok] results mirror the Go API) --- *)

let lookup fs dir name =
  match SMap.find_opt dir fs.dirs with
  | None -> None
  | Some entries -> SMap.find_opt name entries

(** [create fs dir name] makes an empty file and opens it for append;
    fails (returning [None]) if the name already exists.  The atomic
    create-if-absent that Mailboat's random-ID retry loop relies on. *)
let create fs dir name =
  if not (has_dir fs dir) then invalid_arg ("Fs.create: no directory " ^ dir)
  else
    match lookup fs dir name with
    | Some _ -> None
    | None ->
      let ino = fs.next_ino in
      let fd_num = fs.next_fd in
      let fs =
        {
          fs with
          dirs = SMap.add dir (SMap.add name ino (SMap.find dir fs.dirs)) fs.dirs;
          inodes = IMap.add ino "" fs.inodes;
          synced = IMap.add ino 0 fs.synced;
          nlink = IMap.add ino 1 fs.nlink;
          fds = IMap.add fd_num { ino; mode = Append } fs.fds;
          next_ino = ino + 1;
          next_fd = fd_num + 1;
        }
      in
      Some (fs, fd_num)

(** [open_read fs dir name] opens an existing file for reading. *)
let open_read fs dir name =
  match lookup fs dir name with
  | None -> None
  | Some ino ->
    let fd_num = fs.next_fd in
    let fs =
      { fs with fds = IMap.add fd_num { ino; mode = Read } fs.fds; next_fd = fd_num + 1 }
    in
    Some (fs, fd_num)

let fd_of fs fd = IMap.find_opt fd fs.fds

(** [append fs fd data]: append to a descriptor opened with [create].
    [None] if the descriptor is invalid or read-only. *)
let append fs fd data =
  match fd_of fs fd with
  | Some { ino; mode = Append } ->
    let contents = match IMap.find_opt ino fs.inodes with Some c -> c | None -> "" in
    let contents = contents ^ data in
    let synced =
      match fs.durability with
      | `Sync -> IMap.add ino (String.length contents) fs.synced
      | `Deferred -> fs.synced
    in
    Some { fs with inodes = IMap.add ino contents fs.inodes; synced }
  | Some { mode = Read; _ } | None -> None

(** [fsync fs fd]: make the descriptor's inode contents durable.  A no-op
    in [`Sync] mode.  [None] on an invalid descriptor. *)
let fsync fs fd =
  match fd_of fs fd with
  | Some { ino; _ } ->
    let len =
      String.length (match IMap.find_opt ino fs.inodes with Some c -> c | None -> "")
    in
    Some { fs with synced = IMap.add ino len fs.synced }
  | None -> None

(** [read_at fs fd off len]: up to [len] bytes from offset [off]. *)
let read_at fs fd off len =
  match fd_of fs fd with
  | Some { ino; _ } ->
    let contents = match IMap.find_opt ino fs.inodes with Some c -> c | None -> "" in
    let total = String.length contents in
    if off >= total then Some ""
    else Some (String.sub contents off (min len (total - off)))
  | None -> None

let size fs fd =
  match fd_of fs fd with
  | Some { ino; _ } ->
    Some (String.length (match IMap.find_opt ino fs.inodes with Some c -> c | None -> ""))
  | None -> None

let close fs fd =
  if IMap.mem fd fs.fds then Some { fs with fds = IMap.remove fd fs.fds } else None

(** [link fs ~src ~dst]: atomically give the file at [src] a second name at
    [dst]; fails if [dst] exists (the Mailboat commit point). *)
let link fs ~src:(sdir, sname) ~dst:(ddir, dname) =
  match lookup fs sdir sname with
  | None -> None
  | Some ino -> (
    if not (has_dir fs ddir) then invalid_arg ("Fs.link: no directory " ^ ddir)
    else
      match lookup fs ddir dname with
      | Some _ -> None
      | None ->
        let links = match IMap.find_opt ino fs.nlink with Some n -> n | None -> 0 in
        Some
          {
            fs with
            dirs = SMap.add ddir (SMap.add dname ino (SMap.find ddir fs.dirs)) fs.dirs;
            nlink = IMap.add ino (links + 1) fs.nlink;
          })

(** [delete fs dir name]: unlink; contents are freed when the last link
    goes.  [None] if the name does not exist. *)
let delete fs dir name =
  match lookup fs dir name with
  | None -> None
  | Some ino ->
    let links = match IMap.find_opt ino fs.nlink with Some n -> n | None -> 1 in
    let fs =
      { fs with dirs = SMap.add dir (SMap.remove name (SMap.find dir fs.dirs)) fs.dirs }
    in
    if links <= 1 then
      Some
        {
          fs with
          inodes = IMap.remove ino fs.inodes;
          synced = IMap.remove ino fs.synced;
          nlink = IMap.remove ino fs.nlink;
        }
    else Some { fs with nlink = IMap.add ino (links - 1) fs.nlink }

(** [rename fs ~src ~dst]: atomically move the entry at [src] to [dst],
    replacing (and freeing, on last link) any displaced target — POSIX
    rename.  [None] if [src] does not exist; a same-path rename succeeds
    without effect. *)
let rename fs ~src:(sdir, sname) ~dst:(ddir, dname) =
  if not (has_dir fs ddir) then invalid_arg ("Fs.rename: no directory " ^ ddir)
  else
    match lookup fs sdir sname with
    | None -> None
    | Some ino ->
      if sdir = ddir && sname = dname then Some fs
      else
        let fs =
          match delete fs ddir dname with Some fs' -> fs' | None -> fs
        in
        let fs =
          { fs with
            dirs = SMap.add sdir (SMap.remove sname (SMap.find sdir fs.dirs)) fs.dirs }
        in
        Some
          { fs with
            dirs = SMap.add ddir (SMap.add dname ino (SMap.find ddir fs.dirs)) fs.dirs }

(** [append_path fs dir name data]: descriptor-less append, for specs that
    keep no volatile descriptor table.  Same durability semantics as
    {!append}.  [None] if the file does not exist. *)
let append_path fs dir name data =
  match lookup fs dir name with
  | None -> None
  | Some ino ->
    let contents =
      (match IMap.find_opt ino fs.inodes with Some c -> c | None -> "") ^ data
    in
    let synced =
      match fs.durability with
      | `Sync -> IMap.add ino (String.length contents) fs.synced
      | `Deferred -> fs.synced
    in
    Some { fs with inodes = IMap.add ino contents fs.inodes; synced }

(** [fsync_path fs dir name]: descriptor-less {!fsync}. *)
let fsync_path fs dir name =
  match lookup fs dir name with
  | None -> None
  | Some ino ->
    let len =
      String.length (match IMap.find_opt ino fs.inodes with Some c -> c | None -> "")
    in
    Some { fs with synced = IMap.add ino len fs.synced }

(** [list_dir fs dir]: the file names in a directory, sorted. *)
let list_dir fs dir =
  match SMap.find_opt dir fs.dirs with
  | None -> invalid_arg ("Fs.list_dir: no directory " ^ dir)
  | Some entries -> List.map fst (SMap.bindings entries)

(** Whole-file read by path, for tests and probes (not part of the modeled
    API — real code must go through descriptors). *)
let read_file fs dir name =
  match lookup fs dir name with
  | None -> None
  | Some ino -> IMap.find_opt ino fs.inodes
