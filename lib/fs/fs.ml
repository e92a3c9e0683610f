(** The inode file system over the journal — see fs.mli for the layer
    picture and the crash argument. *)

module V = Tslang.Value
module T = Tslang.Transition
module Spec = Tslang.Spec
module P = Sched.Prog
module Fp = Sched.Footprint
module Fault = Sched.Fault
module Block = Disk.Block
module Txn = Journal.Txn_log
module IMap = Map.Make (Int)

type params = { lay : Layout.t; durability : Gfs.Fs.durability; backend : Txn.backend }

let params ?(durability = `Sync) ?(backend = `Direct) lay = { lay; durability; backend }

(* ------------------------------------------------------------------ *)
(* World                                                                *)
(* ------------------------------------------------------------------ *)

type world = {
  disk : Disk.Single_disk.t;
  cache : string IMap.t;
      (** per-inode unsynced tail ([`Deferred] mode); volatile *)
  locks : Disk.Locks.t;
}

let get_disk w = w.disk
let set_disk w disk = { w with disk }
let get_locks w = w.locks
let set_locks w locks = { w with locks }
let crash_world w = { w with cache = IMap.empty; locks = Disk.Locks.empty }

let pp_world ppf w =
  Fmt.pf ppf "%a cache:{%a} %a" Disk.Single_disk.pp w.disk
    (Fmt.list ~sep:Fmt.comma (fun ppf (i, s) -> Fmt.pf ppf "%d=%S" i s))
    (IMap.bindings w.cache) Disk.Locks.pp w.locks

(** One global lock serializes the file-system operations (coarse, like the
    paper's per-structure locks scaled down to the tiny model); {!Spool}
    claims ids from 1 up for its per-user locks. *)
let fs_lock = 0

let lock () = Disk.Locks.acquire ~get:get_locks ~set:set_locks fs_lock
let unlock () = Disk.Locks.release ~get:get_locks ~set:set_locks fs_lock

(* ------------------------------------------------------------------ *)
(* Pure views of the on-disk state                                      *)
(* ------------------------------------------------------------------ *)

(* Total: every function below must be safe on ANY disk content (the
   checker evaluates them mid-crash and under seeded bugs). *)

let bget d a = if Disk.Single_disk.in_bounds d a then Disk.Single_disk.get d a else Block.zero
let bitmap p d = Bitmap.of_block ~n:p.lay.Layout.n_blocks (bget d (Layout.bitmap_addr p.lay))

let inode p d i =
  if i >= 0 && i < p.lay.Layout.n_inodes then Inode.of_block (bget d (Layout.inode_addr p.lay i))
  else None

let ptrs_of p d i = match inode p d i with Some n -> n.Inode.ptrs | None -> []

let dir_entries_at p d ino =
  match inode p d ino with
  | Some { Inode.kind = Dir; ptrs; _ } ->
    Dirent.sort
      (List.concat_map (fun b -> Dirent.of_block (bget d (Layout.data_addr p.lay b))) ptrs)
  | _ -> []

(* Root entries name the directories; "/" itself is not a file directory. *)
let resolve_dir p d name =
  if name = "/" then None
  else
    match List.assoc_opt name (dir_entries_at p d Layout.root_ino) with
    | Some i -> (
      match inode p d i with Some { Inode.kind = Dir; _ } -> Some i | _ -> None)
    | None -> None

let lookup p d dir name =
  match resolve_dir p d dir with
  | None -> None
  | Some di -> List.assoc_opt name (dir_entries_at p d di)

let file_contents p d ino =
  match inode p d ino with
  | Some { Inode.kind = File; len; ptrs } ->
    let full =
      String.concat ""
        (List.map (fun b -> Block.to_string (bget d (Layout.data_addr p.lay b))) ptrs)
    in
    Some (String.sub full 0 (min len (String.length full)))
  | _ -> None

let cache_tail w ino = match IMap.find_opt ino w.cache with Some s -> s | None -> ""
let cache_set c ino tail = if tail = "" then IMap.remove ino c else IMap.add ino tail c

let free_inode p d =
  let rec find i =
    if i >= p.lay.Layout.n_inodes then None
    else if Inode.is_free (bget d (Layout.inode_addr p.lay i)) then Some i
    else find (i + 1)
  in
  find 1

(* ------------------------------------------------------------------ *)
(* Pure transaction builder                                             *)
(* ------------------------------------------------------------------ *)

let rec take n = function x :: r when n > 0 -> x :: take (n - 1) r | _ -> []
let rec drop n l = if n <= 0 then l else match l with [] -> [] | _ :: r -> drop (n - 1) r
let rec group n l = if l = [] then [] else take n l :: group n (drop n l)

let chunks p s =
  let bb = p.lay.Layout.block_bytes in
  let rec go i acc =
    if i >= String.length s then List.rev acc
    else
      let n = min bb (String.length s - i) in
      go (i + n) (String.sub s i n :: acc)
  in
  go 0 []

type txn = { bm0 : Bitmap.t; bm : Bitmap.t; writes : (int * Block.t) list (* latest first *) }

let txn_begin p d =
  let b = bitmap p d in
  { bm0 = b; bm = b; writes = [] }

let txn_write t a b = { t with writes = (a, b) :: t.writes }

(* Freed blocks are zeroed in the same transaction, so equal file-system
   states have byte-identical disks (canonical form; helps dedup). *)
let txn_free p t ptrs =
  let t = { t with bm = Bitmap.clear_all t.bm ptrs } in
  List.fold_left (fun t b -> txn_write t (Layout.data_addr p.lay b) Block.zero) t ptrs

let txn_alloc p t blocks =
  match Bitmap.alloc_n t.bm (List.length blocks) with
  | None -> None
  | Some (bm, idxs) ->
    let t = { t with bm } in
    Some
      ( List.fold_left2
          (fun t i b -> txn_write t (Layout.data_addr p.lay i) b)
          t idxs blocks,
        idxs )

let txn_set_inode p t i ino = txn_write t (Layout.inode_addr p.lay i) (Inode.to_block ino)
let txn_clear_inode p t i = txn_write t (Layout.inode_addr p.lay i) Inode.free

(* Rewrite inode [i]'s data wholesale: free the old blocks, allocate for
   the new ones first-fit.  [None] = out of data blocks. *)
let rewrite_inode p t i ~kind ~len ~old_ptrs blocks =
  let t = txn_free p t old_ptrs in
  match txn_alloc p t blocks with
  | None -> None
  | Some (t, ptrs) -> Some (txn_set_inode p t i (Inode.v ~kind ~len ~ptrs))

let rewrite_dir p t i ~old_ptrs entries =
  let entries = Dirent.sort entries in
  rewrite_inode p t i ~kind:Inode.Dir ~len:(List.length entries) ~old_ptrs
    (List.map Dirent.to_block (group p.lay.Layout.dir_entries entries))

let rewrite_file p t i ~old_ptrs contents =
  rewrite_inode p t i ~kind:Inode.File ~len:(String.length contents) ~old_ptrs
    (List.map Block.of_string (chunks p contents))

(* Finished entries: bitmap write if it changed, per-address deduplicated
   (latest write wins), in ascending address order — a canonical txn. *)
let txn_entries p t =
  let ws =
    if Bitmap.equal t.bm t.bm0 then t.writes
    else (Layout.bitmap_addr p.lay, Bitmap.to_block t.bm) :: t.writes
  in
  let rec dedup acc = function
    | [] -> acc
    | (a, b) :: rest -> if List.mem_assoc a acc then dedup acc rest else dedup ((a, b) :: acc) rest
  in
  List.sort (fun (a, _) (b, _) -> compare a b) (dedup [] ws)

let apply_writes d writes = List.fold_left (fun d (a, b) -> Disk.Single_disk.set d a b) d writes

(* ------------------------------------------------------------------ *)
(* Operation plans: one pure decision over the locked world             *)
(* ------------------------------------------------------------------ *)

type plan =
  | Plan of {
      txn : (int * Block.t) list;  (** journal this atomically (maybe []) *)
      cache : (int * string) option;  (** then set inode's tail ([""] clears) *)
      ret : V.t;
    }
  | No_space of string  (** resource exhaustion — modeled as code-level UB *)

let plan_ret v = Plan { txn = []; cache = None; ret = v }
let ret_false = plan_ret (V.bool false)
let plan_txn ?cache t ~p ~ret = Plan { txn = txn_entries p t; cache; ret }
let no_blocks = No_space "fs: out of data blocks"

let decide_mkdir p name w =
  let d = w.disk in
  if not (Dirent.valid_name name) then ret_false
  else
    let root = dir_entries_at p d Layout.root_ino in
    if List.mem_assoc name root then ret_false
    else if List.length root + 1 > Layout.max_dir_entries p.lay then No_space "fs: root full"
    else
      match free_inode p d with
      | None -> No_space "fs: out of inodes"
      | Some i -> (
        let t = txn_begin p d in
        match
          rewrite_dir p t Layout.root_ino ~old_ptrs:(ptrs_of p d Layout.root_ino)
            ((name, i) :: root)
        with
        | None -> no_blocks
        | Some t -> plan_txn (txn_set_inode p t i Inode.dir) ~p ~ret:(V.bool true))

let decide_create p dir name w =
  let d = w.disk in
  if not (Dirent.valid_name name) then ret_false
  else
    match resolve_dir p d dir with
    | None -> ret_false
    | Some di -> (
      let entries = dir_entries_at p d di in
      if List.mem_assoc name entries then ret_false
      else if List.length entries + 1 > Layout.max_dir_entries p.lay then
        No_space "fs: directory full"
      else
        match free_inode p d with
        | None -> No_space "fs: out of inodes"
        | Some i -> (
          let t = txn_begin p d in
          match rewrite_dir p t di ~old_ptrs:(ptrs_of p d di) ((name, i) :: entries) with
          | None -> no_blocks
          | Some t -> plan_txn (txn_set_inode p t i Inode.file) ~p ~ret:(V.bool true)))

let decide_append p dir name data w =
  let d = w.disk in
  match lookup p d dir name with
  | None -> ret_false
  | Some ino -> (
    let durable = Option.value ~default:"" (file_contents p d ino) in
    let tail = cache_tail w ino in
    if String.length durable + String.length tail + String.length data > Layout.max_file_bytes p.lay
    then ret_false
    else
      match p.durability with
      | `Deferred -> Plan { txn = []; cache = Some (ino, tail ^ data); ret = V.bool true }
      | `Sync -> (
        let t = txn_begin p d in
        match rewrite_file p t ino ~old_ptrs:(ptrs_of p d ino) (durable ^ data) with
        | None -> no_blocks
        | Some t -> plan_txn t ~p ~ret:(V.bool true)))

let decide_read p dir name w =
  let d = w.disk in
  match lookup p d dir name with
  | None -> plan_ret (V.pair (V.str "") (V.bool false))
  | Some ino ->
    let durable = Option.value ~default:"" (file_contents p d ino) in
    plan_ret (V.pair (V.str (durable ^ cache_tail w ino)) (V.bool true))

let decide_readdir p dir w =
  let d = w.disk in
  let names entries = V.list (List.map (fun (n, _) -> V.str n) entries) in
  if dir = "/" then
    plan_ret (V.pair (names (dir_entries_at p d Layout.root_ino)) (V.bool true))
  else
    match resolve_dir p d dir with
    | None -> plan_ret (V.pair (V.list []) (V.bool false))
    | Some di -> plan_ret (V.pair (names (dir_entries_at p d di)) (V.bool true))

let decide_unlink p dir name w =
  let d = w.disk in
  match resolve_dir p d dir with
  | None -> ret_false
  | Some di -> (
    let entries = dir_entries_at p d di in
    match List.assoc_opt name entries with
    | None -> ret_false
    | Some ino -> (
      let t = txn_begin p d in
      match rewrite_dir p t di ~old_ptrs:(ptrs_of p d di) (List.remove_assoc name entries) with
      | None -> no_blocks
      | Some t ->
        let t = txn_clear_inode p (txn_free p t (ptrs_of p d ino)) ino in
        plan_txn t ~p ~ret:(V.bool true) ~cache:(ino, "")))

let decide_rename p ~replace ~src:(sd, sn) ~dst:(dd, dn) w =
  let d = w.disk in
  if not (Dirent.valid_name dn) then ret_false
  else
    match resolve_dir p d sd, resolve_dir p d dd with
    | Some sdi, Some ddi -> (
      let sentries = dir_entries_at p d sdi in
      match List.assoc_opt sn sentries with
      | None -> ret_false
      | Some ino ->
        let dentries = if sdi = ddi then sentries else dir_entries_at p d ddi in
        let target = List.assoc_opt dn dentries in
        if (not replace) && target <> None then ret_false
        else if sd = dd && sn = dn then plan_ret (V.bool true)
        else
          let t = txn_begin p d in
          let t =
            match target with
            | Some tino -> txn_clear_inode p (txn_free p t (ptrs_of p d tino)) tino
            | None -> t
          in
          let cache = Option.map (fun tino -> (tino, "")) target in
          let finishp t = plan_txn t ~p ~ret:(V.bool true) ?cache in
          if sdi = ddi then
            let entries' = (dn, ino) :: List.remove_assoc dn (List.remove_assoc sn sentries) in
            match rewrite_dir p t sdi ~old_ptrs:(ptrs_of p d sdi) entries' with
            | None -> no_blocks
            | Some t -> finishp t
          else
            let dentries' = (dn, ino) :: List.remove_assoc dn dentries in
            if List.length dentries' > Layout.max_dir_entries p.lay then
              No_space "fs: directory full"
            else (
              match rewrite_dir p t sdi ~old_ptrs:(ptrs_of p d sdi) (List.remove_assoc sn sentries) with
              | None -> no_blocks
              | Some t -> (
                match rewrite_dir p t ddi ~old_ptrs:(ptrs_of p d ddi) dentries' with
                | None -> no_blocks
                | Some t -> finishp t)))
    | _ -> ret_false

let decide_fsync p dir name w =
  let d = w.disk in
  match lookup p d dir name with
  | None -> ret_false
  | Some ino -> (
    match p.durability with
    | `Sync -> plan_ret (V.bool true)
    | `Deferred -> (
      let tail = cache_tail w ino in
      if tail = "" then plan_ret (V.bool true)
      else
        let durable = Option.value ~default:"" (file_contents p d ino) in
        let t = txn_begin p d in
        match rewrite_file p t ino ~old_ptrs:(ptrs_of p d ino) (durable ^ tail) with
        | None -> no_blocks
        | Some t -> plan_txn t ~p ~ret:(V.bool true) ~cache:(ino, "")))

(* ------------------------------------------------------------------ *)
(* Programs                                                             *)
(* ------------------------------------------------------------------ *)

open P.Syntax

(* The decision step reads (only reads) the whole file-system region plus
   every cache cell — conservative and sound; all mutation happens in the
   journal commit's per-block steps, which carry precise footprints and
   give crash injection its granularity. *)
let decide_fp p =
  Fp.const
    (Fp.reads
       (List.init (Layout.n_data p.lay) Fp.disk
       @ List.init p.lay.Layout.n_inodes (Fp.cell_at "fscache")))

let cache_step label (ino, tail) =
  P.write
    ~fp:(Fp.const (Fp.writes [ Fp.cell_at "fscache" ino ]))
    label
    (fun w -> { w with cache = cache_set w.cache ino tail })

let plain = Disk.Single_disk.plain ~get_disk ~set_disk
let fallible = Disk.Single_disk.fallible ~get_disk ~set_disk

let commit d ?retries p txn =
  if txn = [] then P.return V.unit
  else Txn.commit d ~backend:p.backend ?retries (Layout.journal p.lay) txn

(* Commit [plan]'s transaction over the disk ops [d], then install its
   cache update and unlock.  On an aborted commit (fallible ops only)
   unlock and degrade to {!Sched.Fault.err_value}. *)
let finish d ?retries p label plan =
  match plan with
  | No_space msg -> P.ub msg
  | Plan { txn; cache; ret } ->
    let* r = commit d ?retries p txn in
    if Fault.is_eio r then
      let* () = unlock () in
      P.return Fault.err_value
    else
      let* () =
        match cache with
        | None -> P.return ()
        | Some c -> cache_step ("fs_cache(" ^ label ^ ")") c
      in
      let* () = unlock () in
      P.return ret

let run_op p label decide : (world, V.t) P.t =
  P.span ~cat:"fs" label
  @@ let* () = lock () in
  let* plan = P.read ~fp:(decide_fp p) label decide in
  finish plain p label plan

(** Graceful-degradation wrapper: the allocator's bitmap read goes through
    the fallible disk op with bounded retry, and the transaction commits
    through {!Journal.Txn_log.commit} over the fallible ops (abort before
    the commit record, unbounded retry after it).  Degrades to
    {!Sched.Fault.err_value} with durable state untouched. *)
let run_op_ft p ?(retries = 1) label decide : (world, V.t) P.t =
  P.span ~cat:"fs" label
  @@ let* () = lock () in
  let* r = Sched.Retry.bounded "fs_alloc" retries (fallible.read (Layout.bitmap_addr p.lay)) in
  if Fault.is_eio r then
    let* () = unlock () in
    P.return Fault.err_value
  else
    let* plan = P.read ~fp:(decide_fp p) label decide in
    finish fallible ~retries p label plan

let mkdir_prog p name = run_op p (Printf.sprintf "fs_mkdir(%s)" name) (decide_mkdir p name)

let create_prog p dir name =
  run_op p (Printf.sprintf "fs_create(%s/%s)" dir name) (decide_create p dir name)

let append_prog p dir name data =
  run_op p (Printf.sprintf "fs_append(%s/%s,%S)" dir name data) (decide_append p dir name data)

let read_prog p dir name =
  run_op p (Printf.sprintf "fs_read(%s/%s)" dir name) (decide_read p dir name)

let readdir_prog p dir = run_op p (Printf.sprintf "fs_readdir(%s)" dir) (decide_readdir p dir)

let unlink_prog p dir name =
  run_op p (Printf.sprintf "fs_unlink(%s/%s)" dir name) (decide_unlink p dir name)

let rename_prog p ~src:(sd, sn) ~dst:(dd, dn) =
  run_op p
    (Printf.sprintf "fs_rename(%s/%s,%s/%s)" sd sn dd dn)
    (decide_rename p ~replace:true ~src:(sd, sn) ~dst:(dd, dn))

let rename_nr_prog p ~src:(sd, sn) ~dst:(dd, dn) =
  run_op p
    (Printf.sprintf "fs_rename_nr(%s/%s,%s/%s)" sd sn dd dn)
    (decide_rename p ~replace:false ~src:(sd, sn) ~dst:(dd, dn))

let fsync_prog p dir name =
  run_op p (Printf.sprintf "fs_fsync(%s/%s)" dir name) (decide_fsync p dir name)

let create_ft_prog ?retries p dir name =
  run_op_ft p ?retries
    (Printf.sprintf "fs_create_ft(%s/%s)" dir name)
    (decide_create p dir name)

let append_ft_prog ?retries p dir name data =
  run_op_ft p ?retries
    (Printf.sprintf "fs_append_ft(%s/%s,%S)" dir name data)
    (decide_append p dir name data)

let recover p : (world, V.t) P.t =
  Txn.recover_prog ~backend:p.backend ~get_disk ~set_disk (Layout.journal p.lay)

(* ------------------------------------------------------------------ *)
(* Specification: the atomic Gfs.Fs transition system                   *)
(* ------------------------------------------------------------------ *)

let close_or st fd = match Gfs.Fs.close st fd with Some s -> s | None -> st

let spec_init p ~dirs ~files : Gfs.Fs.t =
  let st = Gfs.Fs.init ~durability:p.durability dirs in
  List.fold_left
    (fun st (dir, name, contents) ->
      match Gfs.Fs.create st dir name with
      | None -> invalid_arg "Fs.spec_init: duplicate seed file"
      | Some (st, fd) ->
        let st = if contents = "" then st else Option.value ~default:st (Gfs.Fs.append st fd contents) in
        let st = Option.value ~default:st (Gfs.Fs.fsync st fd) in
        close_or st fd)
    st files

let spec p ~dirs ~files : Gfs.Fs.t Spec.t =
  let open T.Syntax in
  let err_or v = T.choose [ v; Fault.err_value ] in
  {
    Spec.name = "fs";
    init = spec_init p ~dirs ~files;
    compare_state = Gfs.Fs.compare;
    pp_state = Gfs.Fs.pp;
    step =
      (fun op args ->
        match op, args with
        | "fs_mkdir", [ V.Str n ] ->
          let* st = T.reads in
          if not (Dirent.valid_name n) then T.ret (V.bool false)
          else (
            match Gfs.Fs.mkdir st n with
            | None -> T.ret (V.bool false)
            | Some st' ->
              let* () = T.puts st' in
              T.ret (V.bool true))
        | "fs_create", [ V.Str d; V.Str n ] ->
          let* st = T.reads in
          if not (Dirent.valid_name n) || not (Gfs.Fs.has_dir st d) then T.ret (V.bool false)
          else (
            match Gfs.Fs.create st d n with
            | None -> T.ret (V.bool false)
            | Some (st', fd) ->
              let* () = T.puts (close_or st' fd) in
              T.ret (V.bool true))
        | "fs_append", [ V.Str d; V.Str n; V.Str data ] ->
          let* st = T.reads in
          if not (Gfs.Fs.has_dir st d) then T.ret (V.bool false)
          else (
            match Gfs.Fs.lookup st d n with
            | None -> T.ret (V.bool false)
            | Some _ ->
              let cur = Option.value ~default:"" (Gfs.Fs.read_file st d n) in
              if String.length cur + String.length data > Layout.max_file_bytes p.lay then
                T.ret (V.bool false)
              else (
                match Gfs.Fs.append_path st d n data with
                | None -> T.ret (V.bool false)
                | Some st' ->
                  let* () = T.puts st' in
                  T.ret (V.bool true)))
        | "fs_read", [ V.Str d; V.Str n ] ->
          let* st = T.reads in
          if not (Gfs.Fs.has_dir st d) then T.ret (V.pair (V.str "") (V.bool false))
          else (
            match Gfs.Fs.read_file st d n with
            | None -> T.ret (V.pair (V.str "") (V.bool false))
            | Some c -> T.ret (V.pair (V.str c) (V.bool true)))
        | "fs_readdir", [ V.Str d ] ->
          let* st = T.reads in
          let names ns = V.list (List.map V.str ns) in
          if d = "/" then T.ret (V.pair (names (Gfs.Fs.dir_names st)) (V.bool true))
          else if Gfs.Fs.has_dir st d then T.ret (V.pair (names (Gfs.Fs.list_dir st d)) (V.bool true))
          else T.ret (V.pair (V.list []) (V.bool false))
        | "fs_unlink", [ V.Str d; V.Str n ] ->
          let* st = T.reads in
          if not (Gfs.Fs.has_dir st d) then T.ret (V.bool false)
          else (
            match Gfs.Fs.delete st d n with
            | None -> T.ret (V.bool false)
            | Some st' ->
              let* () = T.puts st' in
              T.ret (V.bool true))
        | "fs_rename", [ V.Str sd; V.Str sn; V.Str dd; V.Str dn ] ->
          let* st = T.reads in
          if
            not (Dirent.valid_name dn)
            || (not (Gfs.Fs.has_dir st sd))
            || not (Gfs.Fs.has_dir st dd)
          then T.ret (V.bool false)
          else (
            match Gfs.Fs.rename st ~src:(sd, sn) ~dst:(dd, dn) with
            | None -> T.ret (V.bool false)
            | Some st' ->
              let* () = T.puts st' in
              T.ret (V.bool true))
        | "fs_fsync", [ V.Str d; V.Str n ] ->
          let* st = T.reads in
          if not (Gfs.Fs.has_dir st d) then T.ret (V.bool false)
          else (
            match Gfs.Fs.fsync_path st d n with
            | None -> T.ret (V.bool false)
            | Some st' ->
              let* () = T.puts st' in
              T.ret (V.bool true))
        (* Graceful-degradation arms: the op completes atomically with its
           normal result OR returns err_value with durable state untouched. *)
        | "fs_create_ft", [ V.Str d; V.Str n ] ->
          let* st = T.reads in
          if not (Dirent.valid_name n) || not (Gfs.Fs.has_dir st d) then
            let* r = err_or (V.bool false) in
            T.ret r
          else (
            match Gfs.Fs.create st d n with
            | None ->
              let* r = err_or (V.bool false) in
              T.ret r
            | Some (st', fd) ->
              let* ok = T.choose [ true; false ] in
              if ok then
                let* () = T.puts (close_or st' fd) in
                T.ret (V.bool true)
              else T.ret Fault.err_value)
        | "fs_append_ft", [ V.Str d; V.Str n; V.Str data ] ->
          let* st = T.reads in
          let fail () =
            let* r = err_or (V.bool false) in
            T.ret r
          in
          if not (Gfs.Fs.has_dir st d) then fail ()
          else (
            match Gfs.Fs.lookup st d n with
            | None -> fail ()
            | Some _ ->
              let cur = Option.value ~default:"" (Gfs.Fs.read_file st d n) in
              if String.length cur + String.length data > Layout.max_file_bytes p.lay then fail ()
              else (
                match Gfs.Fs.append_path st d n data with
                | None -> fail ()
                | Some st' ->
                  let* ok = T.choose [ true; false ] in
                  if ok then
                    let* () = T.puts st' in
                    T.ret (V.bool true)
                  else T.ret Fault.err_value))
        | _ -> invalid_arg "fs spec: unknown op");
    crash = T.modify Gfs.Fs.crash;
  }

(* ------------------------------------------------------------------ *)
(* Formatting: build the initial world through the same pure builders   *)
(* ------------------------------------------------------------------ *)

let init_world p ~dirs ~files : world =
  let ps = { p with durability = `Sync } in
  let d0 =
    Disk.Single_disk.set
      (Disk.Single_disk.init (Layout.disk_size p.lay))
      (Layout.inode_addr p.lay Layout.root_ino)
      (Inode.to_block Inode.dir)
  in
  let w0 = { disk = d0; cache = IMap.empty; locks = Disk.Locks.empty } in
  let step w = function
    | Plan { txn; ret = V.Bool true; _ } -> { w with disk = apply_writes w.disk txn }
    | _ -> invalid_arg "Fs.init_world: seed layout rejected (capacity or duplicate)"
  in
  let w = List.fold_left (fun w dir -> step w (decide_mkdir ps dir w)) w0 dirs in
  List.fold_left
    (fun w (dir, name, contents) ->
      let w = step w (decide_create ps dir name w) in
      if contents = "" then w else step w (decide_append ps dir name contents w))
    w files

(* ------------------------------------------------------------------ *)
(* Calls and checker configuration                                      *)
(* ------------------------------------------------------------------ *)

let mkdir_call p name = (Spec.call "fs_mkdir" [ V.str name ], mkdir_prog p name)
let create_call p dir name = (Spec.call "fs_create" [ V.str dir; V.str name ], create_prog p dir name)

let append_call p dir name data =
  (Spec.call "fs_append" [ V.str dir; V.str name; V.str data ], append_prog p dir name data)

let read_call p dir name = (Spec.call "fs_read" [ V.str dir; V.str name ], read_prog p dir name)
let readdir_call p dir = (Spec.call "fs_readdir" [ V.str dir ], readdir_prog p dir)
let unlink_call p dir name = (Spec.call "fs_unlink" [ V.str dir; V.str name ], unlink_prog p dir name)

let rename_call p ~src:(sd, sn) ~dst:(dd, dn) =
  ( Spec.call "fs_rename" [ V.str sd; V.str sn; V.str dd; V.str dn ],
    rename_prog p ~src:(sd, sn) ~dst:(dd, dn) )

let fsync_call p dir name = (Spec.call "fs_fsync" [ V.str dir; V.str name ], fsync_prog p dir name)

let create_ft_call ?retries p dir name =
  (Spec.call "fs_create_ft" [ V.str dir; V.str name ], create_ft_prog ?retries p dir name)

let append_ft_call ?retries p dir name data =
  ( Spec.call "fs_append_ft" [ V.str dir; V.str name; V.str data ],
    append_ft_prog ?retries p dir name data )

(** Post-crash probes: list every directory and read every named file. *)
let probe p ~dirs ~files =
  (readdir_call p "/" :: List.map (fun d -> readdir_call p d) dirs)
  @ List.map (fun (d, n) -> read_call p d n) files

let checker_config p ~dirs ~files ?post ?(max_crashes = 1) ?(fault_budget = 0) ?step_budget
    threads : (world, Gfs.Fs.t) Perennial_core.Refinement.config =
  let post =
    match post with
    | Some post -> post
    | None -> probe p ~dirs ~files:(List.map (fun (d, n, _) -> (d, n)) files)
  in
  Perennial_core.Refinement.config ~spec:(spec p ~dirs ~files)
    ~init_world:(init_world p ~dirs ~files) ~crash_world ~pp_world ~threads ~recovery:(recover p)
    ~post ~max_crashes ~fault_budget ?step_budget ()

(* ------------------------------------------------------------------ *)
(* Seeded bugs                                                          *)
(* ------------------------------------------------------------------ *)

module Buggy = struct
  (** Allocator double-free across a crash: the freed bits are written
      straight to the bitmap block — outside the journal — before the
      unlink transaction commits.  A crash in between leaves blocks both
      free (per the bitmap) and referenced (per the directory); the next
      allocation hands them out again and overwrites live file data.
      Expose with post probes that create-and-append after recovery, then
      read the original file. *)
  let unlink_free_first p dir name : (world, V.t) P.t =
    let label = Printf.sprintf "fs_unlink(%s/%s)" dir name in
    let* () = lock () in
    let* plan = P.read ~fp:(decide_fp p) label (decide_unlink p dir name) in
    match plan with
    | No_space msg -> P.ub msg
    | Plan { txn; cache; ret } ->
      let bm_addr = Layout.bitmap_addr p.lay in
      let bm, rest = List.partition (fun (a, _) -> a = bm_addr) txn in
      (* BUG: non-journaled free *)
      let* () =
        P.seq (List.map (fun (a, b) -> Disk.Single_disk.write ~get_disk ~set_disk a b) bm)
      in
      let* _ = commit plain p rest in
      let* () =
        match cache with
        | None -> P.return ()
        | Some c -> cache_step ("fs_cache(" ^ label ^ ")") c
      in
      let* () = unlock () in
      P.return ret

  let unlink_call_free_first p dir name =
    (Spec.call "fs_unlink" [ V.str dir; V.str name ], unlink_free_first p dir name)

  (** Rename as TWO journal transactions — unlink the displaced target
      first, then move the source.  Each transaction is atomic, but a
      crash between them has deleted the target without installing the
      new name: the composite is not. *)
  let rename_two_txns p ~src:(sd, sn) ~dst:(dd, dn) : (world, V.t) P.t =
    let label = Printf.sprintf "fs_rename(%s/%s,%s/%s)" sd sn dd dn in
    let* () = lock () in
    let* plans =
      P.read ~fp:(decide_fp p) label (fun w ->
          let d = w.disk in
          let target =
            match resolve_dir p d sd, resolve_dir p d dd with
            | Some sdi, Some ddi when List.assoc_opt sn (dir_entries_at p d sdi) <> None
                                      && not (sd = dd && sn = dn) -> (
              match List.assoc_opt dn (dir_entries_at p d ddi) with
              | Some tino -> Some (ddi, tino)
              | None -> None)
            | _ -> None
          in
          match target with
          | None -> [ decide_rename p ~replace:true ~src:(sd, sn) ~dst:(dd, dn) w ]
          | Some (ddi, tino) -> (
            let dentries = dir_entries_at p d ddi in
            let t = txn_begin p d in
            let t = txn_clear_inode p (txn_free p t (ptrs_of p d tino)) tino in
            match rewrite_dir p t ddi ~old_ptrs:(ptrs_of p d ddi) (List.remove_assoc dn dentries) with
            | None -> [ no_blocks ]
            | Some t ->
              let txn1 = txn_entries p t in
              let plan1 = Plan { txn = txn1; cache = Some (tino, ""); ret = V.bool true } in
              let w1 = { w with disk = apply_writes d txn1 } in
              [ plan1; decide_rename p ~replace:true ~src:(sd, sn) ~dst:(dd, dn) w1 ]))
    in
    let rec commit_all = function
      | [] -> finish plain p label ret_false
      | [ last ] -> finish plain p label last
      | plan :: rest -> (
        match plan with
        | No_space msg -> P.ub msg
        | Plan { txn; cache; _ } ->
          let* _ = commit plain p txn in
          let* () =
            match cache with
            | None -> P.return ()
            | Some c -> cache_step ("fs_cache(" ^ label ^ ")") c
          in
          commit_all rest)
    in
    commit_all plans

  let rename_call_two_txns p ~src ~dst =
    let sd, sn = src and dd, dn = dst in
    ( Spec.call "fs_rename" [ V.str sd; V.str sn; V.str dd; V.str dn ],
      rename_two_txns p ~src ~dst )
end
