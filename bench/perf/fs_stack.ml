(* The fs-stack workload: a seeded stream of file-system operations run one
   at a time through [Sched.Runner] on the modeled stack (fs -> txn_log ->
   disk), once on each journal backend.  Every return is checked against
   the atomic [Gfs.Fs] spec; every [crash_every] ops the world crashes,
   recovers, and is probed against the spec's crash outcome. *)

module V = Tslang.Value
module Spec = Tslang.Spec
module Fs = Perennial_fs.Fs
module L = Perennial_fs.Layout
module J = Journal.Txn_log

(* Large enough that the generator's caps (files, bytes per file) can never
   exhaust inodes, data blocks or directory slots: 1 root + 4 dirs + 16
   files fit 24 inodes, and 16 files x 4 blocks + at most 8 directory
   blocks + the root's fit 96 data blocks.  So [No_space] UB never fires;
   if it does, the op counts as failed. *)
let layout = L.v ~block_bytes:4 ~dir_entries:4 ~inode_ptrs:4 ~n_inodes:24 ~n_blocks:96 ()
let dirs = [ "d0"; "d1"; "d2"; "d3" ]
let max_files = 16
let crash_every = 64

type op =
  | Read of string * string
  | Readdir of string
  | Create of string * string
  | Append of string * string * string
  | Rename of (string * string) * (string * string)
  | Unlink of string * string

let is_read = function
  | Read _ | Readdir _ -> true
  | Create _ | Append _ | Rename _ | Unlink _ -> false

let call_of p = function
  | Read (d, n) -> Fs.read_call p d n
  | Readdir d -> Fs.readdir_call p d
  | Create (d, n) -> Fs.create_call p d n
  | Append (d, n, s) -> Fs.append_call p d n s
  | Rename (src, dst) -> Fs.rename_call p ~src ~dst
  | Unlink (d, n) -> Fs.unlink_call p d n

(* Half reads (read 35 %, readdir 15 %), half writes (create 12 %, append
   20 %, rename 8 %, unlink 10 %).  The generator tracks live files so
   every op names an existing file or a fresh name, and falls back to
   another write when one is impossible (full, empty, no room). *)
let generate ~seed n =
  let rng = Random.State.make [| seed |] in
  let int k = Random.State.int rng k in
  let pick l = List.nth l (int (List.length l)) in
  let files = ref [] (* (name, dir, length); names are never reused *) in
  let fresh = ref 0 in
  let max_bytes = L.max_file_bytes layout in
  let create () =
    incr fresh;
    let d = pick dirs and n = Printf.sprintf "f%d" !fresh in
    files := (n, d, 0) :: !files;
    Create (d, n)
  in
  let unlink () =
    let n, d, _ = pick !files in
    files := List.filter (fun (m, _, _) -> m <> n) !files;
    Unlink (d, n)
  in
  let create_or_unlink () = if List.length !files < max_files then create () else unlink () in
  let append () =
    match List.filter (fun (_, _, len) -> len < max_bytes) !files with
    | [] -> create_or_unlink ()
    | room ->
      let n, d, len = pick room in
      let data = String.init (1 + int (min 4 (max_bytes - len))) (fun _ -> Char.chr (97 + int 26)) in
      let grow ((m, _, _) as f) = if m = n then (n, d, len + String.length data) else f in
      files := List.map grow !files;
      Append (d, n, data)
  in
  let rename () =
    let n, d, len = pick !files in
    let dd = pick dirs in
    let victims = List.filter (fun (m, d', _) -> d' = dd && m <> n) !files in
    let dn =
      if victims <> [] && int 4 = 0 then (fun (m, _, _) -> m) (pick victims)
      else (incr fresh; Printf.sprintf "f%d" !fresh)
    in
    files := (dn, dd, len) :: List.filter (fun (m, _, _) -> m <> n && m <> dn) !files;
    Rename ((d, n), (dd, dn))
  in
  let readdir () = Readdir (if int 5 = 0 then "/" else pick dirs) in
  let read () =
    match !files with
    | [] -> readdir ()
    | fs ->
      let n, d, _ = pick fs in
      Read (d, n)
  in
  Array.init n (fun _ ->
      let r = int 100 in
      if r < 35 then read ()
      else if r < 50 then readdir ()
      else if r < 62 then create_or_unlink ()
      else if r < 82 then append ()
      else if !files = [] then create ()
      else if r < 90 then rename ()
      else unlink ())

(* Disk blocks touched by one run, split by journal region. *)
type io = {
  mutable reads : int;
  mutable data_writes : int;  (** home locations: the fs's own blocks *)
  mutable header_writes : int;  (** commit record (direct) / ring header (wal) *)
  mutable log_writes : int;  (** log slots (direct) / ring records (wal) *)
}

let fresh_io () = { reads = 0; data_writes = 0; header_writes = 0; log_writes = 0 }
let writes io = io.data_writes + io.header_writes + io.log_writes

(* Classify each [disk_read(a)] / [disk_write(a)] step label of a run by its
   address against the journal layout. *)
let count_io io trace =
  let rec_addr = J.rec_addr (L.journal layout) in
  let addr prefix l =
    let k = String.length prefix in
    int_of_string (String.sub l k (String.length l - k - 1))
  in
  List.iter
    (fun (_, l) ->
      if String.starts_with ~prefix:"disk_read(" l then io.reads <- io.reads + 1
      else if String.starts_with ~prefix:"disk_write(" l then begin
        let a = addr "disk_write(" l in
        if a < rec_addr then io.data_writes <- io.data_writes + 1
        else if a = rec_addr then io.header_writes <- io.header_writes + 1
        else io.log_writes <- io.log_writes + 1
      end)
    trace

(* Per-backend totals of one pass: exact counts, identical on every pass. *)
type backend_counts = {
  op_io : io;
  mutable steps : int;
  mutable txns : int;  (** ops that wrote at least one block *)
  rec_io : io;
  mutable recoveries : int;
}

(* Latency samples of one pass, in ns. *)
type lat = { read_ns : Sample.t; write_ns : Sample.t; op_ns : Sample.t; recover_ns : Sample.t }

let lat () =
  { read_ns = Sample.create (); write_ns = Sample.create (); op_ns = Sample.create ();
    recover_ns = Sample.create () }

type result = {
  attempted : int;
  failed : int;
  ops : int;
  op_ns : int;  (** summed latency of the ops (recovery excluded) *)
  counts : (J.backend * backend_counts) list;
}

(* One pass: the stream on each backend from a fresh disk.  [limit] runs
   only a prefix of the stream (the traced run's slice).  An op's call and
   program are built when it is issued, and that counts in its latency, as
   it would for any caller. *)
let pass ?limit stream lat =
  let attempted = ref 0 and failed = ref 0 and ops = ref 0 and op_ns = ref 0 in
  let run_backend b =
    let p = Fs.params ~backend:b layout in
    let c = { op_io = fresh_io (); steps = 0; txns = 0; rec_io = fresh_io (); recoveries = 0 } in
    let spec = Fs.spec p ~dirs ~files:[] in
    let world = ref (Fs.init_world p ~dirs ~files:[]) in
    let st = ref spec.Spec.init in
    let explains st call v = List.exists (fun (_, v') -> V.equal v v') (Spec.op_outcomes spec st call) in
    let fail what =
      incr failed;
      if !failed = 1 then Printf.eprintf "perf: fs-stack: %s\n%!" what
    in
    (* Probe every directory and live file; the spec state must explain
       every answer. *)
    let probe_failure () =
      let files =
        List.concat_map (fun d -> List.map (fun n -> (d, n)) (Gfs.Fs.list_dir !st d)) dirs
      in
      List.find_map
        (fun (call, prog) ->
          match Sched.Runner.run !world [ prog ] with
          | out when explains !st call out.results.(0) -> None
          | _ -> Some (Format.asprintf "after recovery, %a disagrees with the spec" Spec.pp_call call)
          | exception e -> Some (Printexc.to_string e))
        (Fs.probe p ~dirs ~files)
    in
    let crash_and_recover () =
      incr attempted;
      world := Fs.crash_world !world;
      let t0 = Sample.now_ns () in
      match Sched.Runner.run !world [ Fs.recover p ] with
      | out ->
        Sample.add lat.recover_ns (Sample.now_ns () - t0);
        world := out.world;
        count_io c.rec_io out.trace;
        c.recoveries <- c.recoveries + 1;
        (match Spec.crash_outcomes spec !st with
        | [ st' ] -> st := st'
        | _ -> fail "the spec's crash is not deterministic");
        Option.iter fail (probe_failure ())
      | exception e -> fail (Printexc.to_string e)
    in
    let n = Option.fold ~none:(Array.length stream) ~some:(min (Array.length stream)) limit in
    for i = 0 to n - 1 do
      if i > 0 && i mod crash_every = 0 then crash_and_recover ();
      let op = stream.(i) in
      incr attempted;
      let t0 = Sample.now_ns () in
      let call, prog = call_of p op in
      match Sched.Runner.run !world [ prog ] with
      | out ->
        let dt = Sample.now_ns () - t0 in
        Sample.add (if is_read op then lat.read_ns else lat.write_ns) dt;
        Sample.add lat.op_ns dt;
        incr ops;
        op_ns := !op_ns + dt;
        world := out.world;
        let w0 = writes c.op_io in
        count_io c.op_io out.trace;
        if writes c.op_io > w0 then c.txns <- c.txns + 1;
        c.steps <- c.steps + out.steps;
        (match List.find_opt (fun (_, v) -> V.equal v out.results.(0)) (Spec.op_outcomes spec !st call) with
        | Some (st', _) -> st := st'
        | None -> fail (Printf.sprintf "op %d returned what the spec cannot explain" i))
      | exception e -> fail (Printexc.to_string e)
    done;
    crash_and_recover ();
    (b, c)
  in
  let counts = List.map run_backend [ `Direct; `Wal ] in
  { attempted = !attempted; failed = !failed; ops = !ops; op_ns = !op_ns; counts }

(* Blocks written by each op kind on a fresh direct-journal disk: a create
   and an append that each allocate a block, a rename that empties its
   source directory into the destination, a read, and an unlink that frees
   both the file's block and its directory's. *)
let scripted_writes () =
  let p = Fs.params layout in
  let world = ref (Fs.init_world p ~dirs ~files:[]) in
  List.map
    (fun (kind, (_, prog)) ->
      let out = Sched.Runner.run !world [ prog ] in
      world := out.world;
      let io = fresh_io () in
      count_io io out.trace;
      (kind, writes io))
    [ ("create", Fs.create_call p "d0" "a");
      ("append", Fs.append_call p "d0" "a" "xy");
      ("rename", Fs.rename_call p ~src:("d0", "a") ~dst:("d1", "b"));
      ("read", Fs.read_call p "d1" "b");
      ("unlink", Fs.unlink_call p "d1" "b") ]
