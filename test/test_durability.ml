(* Tests for the deferred-durability extension (the paper's §1 future-work
   item): under buffered writes, Mailboat's delivery is only correct with
   an fsync before the commit link — the refinement checker shows both
   directions. *)

module C = Perennial_catalog.Catalog
module Fs = Gfs.Fs

(* --- the Fs model itself --- *)

let test_sync_mode_survives_crash () =
  let fs = Fs.init [ "d" ] in
  let fs, fd = Option.get (Fs.create fs "d" "f") in
  let fs = Option.get (Fs.append fs fd "hello") in
  let fs = Fs.crash fs in
  Alcotest.(check (option string)) "intact" (Some "hello") (Fs.read_file fs "d" "f")

let test_deferred_crash_truncates () =
  let fs = Fs.init ~durability:`Deferred [ "d" ] in
  let fs, fd = Option.get (Fs.create fs "d" "f") in
  let fs = Option.get (Fs.append fs fd "hello") in
  let fs = Fs.crash fs in
  Alcotest.(check (option string)) "truncated to synced prefix" (Some "")
    (Fs.read_file fs "d" "f")

let test_deferred_fsync_persists () =
  let fs = Fs.init ~durability:`Deferred [ "d" ] in
  let fs, fd = Option.get (Fs.create fs "d" "f") in
  let fs = Option.get (Fs.append fs fd "hel") in
  let fs = Option.get (Fs.fsync fs fd) in
  let fs = Option.get (Fs.append fs fd "lo") in
  let fs = Fs.crash fs in
  (* only the synced prefix survives *)
  Alcotest.(check (option string)) "prefix" (Some "hel") (Fs.read_file fs "d" "f")

let test_deferred_reads_see_buffered () =
  (* before a crash, reads observe buffered data (OS page cache) *)
  let fs = Fs.init ~durability:`Deferred [ "d" ] in
  let fs, fd = Option.get (Fs.create fs "d" "f") in
  let fs = Option.get (Fs.append fs fd "xyz") in
  Alcotest.(check (option string)) "buffered visible" (Some "xyz")
    (Fs.read_at fs fd 0 10)

let test_fsync_noop_in_sync_mode () =
  let fs = Fs.init [ "d" ] in
  let fs, fd = Option.get (Fs.create fs "d" "f") in
  let fs = Option.get (Fs.append fs fd "abc") in
  let fs' = Option.get (Fs.fsync fs fd) in
  Alcotest.(check bool) "no change" true (Fs.equal fs fs')

(* --- Mailboat under deferred durability --- *)

(* plain delivery links a possibly-unsynced file: a crash after the link
   truncates an already-visible message *)
let test_mailboat_without_fsync_violates () = Test_explore.expect C.mailboat_deferred
let test_mailboat_with_fsync_holds () = Test_explore.expect C.mailboat_fsync_deferred

(* the fsync variant remains correct under the paper's model *)
let test_fsync_delivery_also_correct_under_sync () = Test_explore.expect C.mailboat_fsync_sync

(* --- qcheck: the Fs invariants hold under random op sequences --- *)

type op =
  | Create of string
  | Append of int * string
  | Fsync of int
  | Close of int
  | Delete of string
  | Link of string * string
  | Crash

let gen_op =
  QCheck.Gen.(
    oneof
      [ map (fun n -> Create ("f" ^ string_of_int n)) (int_bound 3);
        map2 (fun fd s -> Append (fd, s)) (int_bound 5) (string_size (return 2));
        map (fun fd -> Fsync fd) (int_bound 5);
        map (fun fd -> Close fd) (int_bound 5);
        map (fun n -> Delete ("f" ^ string_of_int n)) (int_bound 3);
        map2 (fun a b -> Link ("f" ^ string_of_int a, "g" ^ string_of_int b)) (int_bound 3)
          (int_bound 3);
        return Crash ])

let show_op = function
  | Create s -> "create " ^ s
  | Append (fd, s) -> Printf.sprintf "append %d %S" fd s
  | Fsync fd -> Printf.sprintf "fsync %d" fd
  | Close fd -> Printf.sprintf "close %d" fd
  | Delete s -> "delete " ^ s
  | Link (a, b) -> Printf.sprintf "link %s %s" a b
  | Crash -> "crash"

let apply_op fs = function
  | Create name -> (match Fs.create fs "d" name with Some (fs, _) -> fs | None -> fs)
  | Append (fd, s) -> (match Fs.append fs fd s with Some fs -> fs | None -> fs)
  | Fsync fd -> (match Fs.fsync fs fd with Some fs -> fs | None -> fs)
  | Close fd -> (match Fs.close fs fd with Some fs -> fs | None -> fs)
  | Delete name -> (match Fs.delete fs "d" name with Some fs -> fs | None -> fs)
  | Link (a, b) -> (
    match Fs.link fs ~src:("d", a) ~dst:("d", b) with Some fs -> fs | None -> fs)
  | Crash -> Fs.crash fs

(* every directory entry points at a live inode, and every live inode is
   reachable from some entry or descriptor *)
let fs_invariant fs =
  let entries = Fs.list_dir fs "d" in
  List.for_all
    (fun name ->
      match Fs.read_file fs "d" name with Some _ -> true | None -> false)
    entries

let prop_fs_invariants mode =
  QCheck.Test.make
    ~name:(Printf.sprintf "Fs invariants under random ops (%s)" mode)
    ~count:300
    QCheck.(make ~print:(fun l -> String.concat "; " (List.map show_op l))
              QCheck.Gen.(list_size (int_bound 20) gen_op))
    (fun ops ->
      let durability = if mode = "sync" then `Sync else `Deferred in
      let fs = Fs.init ~durability [ "d" ] in
      let fs = List.fold_left apply_op fs ops in
      fs_invariant fs)

let prop_crash_idempotent =
  QCheck.Test.make ~name:"Fs: crash is idempotent" ~count:300
    QCheck.(make ~print:(fun l -> String.concat "; " (List.map show_op l))
              QCheck.Gen.(list_size (int_bound 15) gen_op))
    (fun ops ->
      let fs = Fs.init ~durability:`Deferred [ "d" ] in
      let fs = List.fold_left apply_op fs ops in
      Fs.equal (Fs.crash fs) (Fs.crash (Fs.crash fs)))

let prop_sync_crash_preserves_contents =
  QCheck.Test.make ~name:"Fs: sync-mode crash preserves all contents" ~count:300
    QCheck.(make ~print:(fun l -> String.concat "; " (List.map show_op l))
              QCheck.Gen.(list_size (int_bound 15) gen_op))
    (fun ops ->
      let ops = List.filter (fun o -> o <> Crash) ops in
      let fs = Fs.init [ "d" ] in
      let fs = List.fold_left apply_op fs ops in
      let crashed = Fs.crash fs in
      List.for_all
        (fun name -> Fs.read_file crashed "d" name = Fs.read_file fs "d" name)
        (Fs.list_dir fs "d"))

let qcheck_tests =
  List.map QCheck_alcotest.to_alcotest
    [ prop_fs_invariants "sync"; prop_fs_invariants "deferred"; prop_crash_idempotent;
      prop_sync_crash_preserves_contents ]

let suite =
  [
    Alcotest.test_case "sync mode survives crash" `Quick test_sync_mode_survives_crash;
    Alcotest.test_case "deferred crash truncates" `Quick test_deferred_crash_truncates;
    Alcotest.test_case "deferred fsync persists prefix" `Quick test_deferred_fsync_persists;
    Alcotest.test_case "deferred reads see buffered" `Quick test_deferred_reads_see_buffered;
    Alcotest.test_case "fsync is a no-op in sync mode" `Quick test_fsync_noop_in_sync_mode;
    Alcotest.test_case "mailboat w/o fsync violates (deferred)" `Quick
      test_mailboat_without_fsync_violates;
    Alcotest.test_case "mailboat with fsync holds (deferred)" `Quick
      test_mailboat_with_fsync_holds;
    Alcotest.test_case "fsync delivery correct under sync too" `Quick
      test_fsync_delivery_also_correct_under_sync;
  ]
  @ qcheck_tests
