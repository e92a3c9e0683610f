(* The inode file system over the journal (lib/fs):
   - qcheck properties for the bitmap allocator and the inode/dirent
     marshalling (round-trip, alloc/free disjointness, no-leak);
   - positive refinement of create/append/read/readdir/mkdir/unlink/
     rename/fsync against the atomic Gfs.Fs spec — interleavings x crash
     points (incl. crash-during-recovery) x fault schedules, under all
     three exploration strategies;
   - the seeded bugs: allocator double-free across a crash, rename split
     into two transactions, and the spool's missing fsync before the
     directory commit — each caught, one kept as a golden counterexample
     byte-identical across strategies;
   - Mailboat's spool re-hosted on the real FS: deliver/pickup/delete
     run end to end, and refinement holds with crashes. *)

module V = Tslang.Value
module R = Perennial_core.Refinement
module E = Perennial_core.Explore
module C = Perennial_catalog.Catalog
module Runner = Sched.Runner
module L = Perennial_fs.Layout
module Bm = Perennial_fs.Bitmap
module In = Perennial_fs.Inode
module De = Perennial_fs.Dirent
module Fs = Perennial_fs.Fs
module Sp = Perennial_fs.Spool
module MC = Mailboat.Core
module SMap = Map.Make (String)

let params ?durability ~ni ~nb () = Fs.params ?durability (L.v ~n_inodes:ni ~n_blocks:nb ())

(* ------------------------------------------------------------------ *)
(* Bitmap allocator (qcheck)                                            *)
(* ------------------------------------------------------------------ *)

(* A bitmap reached by an arbitrary op sequence. *)
let bitmap_gen =
  QCheck.Gen.(
    int_range 1 8 >>= fun n ->
    list_size (int_bound 12) (pair bool (int_bound 9)) >>= fun ops ->
    return
      (List.fold_left (fun t (set, i) -> if set then Bm.set t i else Bm.clear t i) (Bm.create n) ops))

let prop_bitmap_roundtrip =
  QCheck.Test.make ~count:300 ~name:"bitmap block round-trip" (QCheck.make bitmap_gen)
    (fun t -> Bm.equal (Bm.of_block ~n:(Bm.size t) (Bm.to_block t)) t)

let prop_bitmap_no_leak =
  QCheck.Test.make ~count:300 ~name:"bitmap no-leak: used + free = size" (QCheck.make bitmap_gen)
    (fun t -> List.length (Bm.used t) + Bm.free_count t = Bm.size t)

let prop_bitmap_alloc_disjoint =
  QCheck.Test.make ~count:300 ~name:"bitmap alloc: fresh, disjoint, accounted"
    (QCheck.make bitmap_gen) (fun t ->
      match Bm.alloc t with
      | None -> Bm.free_count t = 0
      | Some (t', i) ->
        (not (Bm.mem t i)) && Bm.mem t' i
        && Bm.free_count t' = Bm.free_count t - 1
        && List.length (Bm.used t') = List.length (Bm.used t) + 1)

let prop_bitmap_alloc_n =
  QCheck.Test.make ~count:300 ~name:"bitmap alloc_n: distinct and previously free"
    (QCheck.make QCheck.Gen.(pair bitmap_gen (int_bound 9))) (fun (t, k) ->
      match Bm.alloc_n t k with
      | None -> Bm.free_count t < k
      | Some (t', is) ->
        List.length is = k
        && List.length (List.sort_uniq compare is) = k
        && List.for_all (fun i -> (not (Bm.mem t i)) && Bm.mem t' i) is
        && Bm.free_count t' = Bm.free_count t - k)

(* A fresh disk block (Block.zero) reads as an all-free bitmap. *)
let test_bitmap_fresh_block () =
  let t = Bm.of_block ~n:4 Disk.Block.zero in
  Alcotest.(check int) "all free" 4 (Bm.free_count t)

(* ------------------------------------------------------------------ *)
(* Inode / directory-entry marshalling (qcheck)                         *)
(* ------------------------------------------------------------------ *)

let inode_gen =
  QCheck.Gen.(
    triple (oneofl [ In.File; In.Dir ]) (int_bound 20) (list_size (int_bound 5) (int_bound 30)))

let prop_inode_roundtrip =
  QCheck.Test.make ~count:300 ~name:"inode block round-trip" (QCheck.make inode_gen)
    (fun (kind, len, ptrs) ->
      let i = In.v ~kind ~len ~ptrs in
      match In.of_block (In.to_block i) with Some i' -> In.equal i i' | None -> false)

let test_inode_free () =
  Alcotest.(check bool) "zero block is a free slot" true (In.of_block In.free = None);
  Alcotest.(check bool) "is_free" true (In.is_free In.free)

let entries_gen =
  QCheck.Gen.(
    list_size (int_bound 5)
      (pair (string_size ~gen:(char_range 'a' 'd') (int_range 1 3)) (int_bound 9))
    >>= fun es ->
    (* sorted and name-unique, the invariant the FS maintains on disk *)
    let es = List.sort_uniq (fun (a, _) (b, _) -> String.compare a b) es in
    return es)

let prop_dirent_roundtrip =
  QCheck.Test.make ~count:300 ~name:"dirent block round-trip" (QCheck.make entries_gen)
    (fun es -> De.of_block (De.to_block es) = es)

let test_dirent_names () =
  List.iter
    (fun n -> Alcotest.(check bool) ("invalid: " ^ n) false (De.valid_name n))
    [ ""; "a:b"; "a;b"; "a|b"; "a/b"; "a,b" ];
  List.iter
    (fun n -> Alcotest.(check bool) ("valid: " ^ n) true (De.valid_name n))
    [ "a"; "tmp-m0"; "user0" ]

let test_layout_addresses () =
  let l = L.v ~n_inodes:3 ~n_blocks:4 () in
  let addrs =
    (L.bitmap_addr l :: List.init 3 (L.inode_addr l)) @ List.init 4 (L.data_addr l)
  in
  Alcotest.(check int) "distinct addresses" (L.n_data l)
    (List.length (List.sort_uniq compare addrs));
  Alcotest.(check bool) "all below n_data" true (List.for_all (fun a -> a < L.n_data l) addrs);
  Alcotest.(check bool) "journal region beyond data" true (L.disk_size l > L.n_data l)

(* ------------------------------------------------------------------ *)
(* Positive refinement against the atomic Gfs.Fs spec                   *)
(* ------------------------------------------------------------------ *)

let test_create_append_all_strategies () =
  let stats =
    List.map
      (fun s ->
        Verdict.holds
          (Printf.sprintf "create+append under %s" (E.strategy_name s))
          (C.run ~strategy:s C.fs_create_append_probed))
      E.all_strategies
  in
  match List.map (fun (s : R.stats) -> s.executions) stats with
  | [ naive; dpor; dpor_sleep ] ->
    Alcotest.(check bool) "dpor explores no more than naive" true (dpor <= naive);
    Alcotest.(check bool) "sleep sets explore no more than dpor" true (dpor_sleep <= dpor)
  | _ -> assert false

let test_rename_concurrent_read () =
  ignore
    (Verdict.holds "rename replaces target under crashes"
       (C.run ~strategy:E.Dpor_sleep C.fs_rename_read))

let test_unlink_create_concurrent () =
  let p = params ~ni:5 ~nb:6 () in
  ignore
    (Verdict.holds "unlink concurrent with create"
       (R.check ~strategy:E.Dpor_sleep
          (Fs.checker_config p ~dirs:[ "a" ]
             ~files:[ ("a", "f", "xy") ]
             ~post:
               (Fs.probe p ~dirs:[ "a" ] ~files:[ ("a", "f"); ("a", "g") ])
             ~max_crashes:1
             [ [ Fs.unlink_call p "a" "f" ]; [ Fs.create_call p "a" "g" ] ])))

let test_mkdir_readdir () =
  let p = params ~ni:3 ~nb:4 () in
  ignore
    (Verdict.holds "mkdir concurrent with readdir of the root"
       (R.check ~strategy:E.Dpor_sleep
          (Fs.checker_config p ~dirs:[ "a" ] ~files:[] ~max_crashes:1
             [ [ Fs.mkdir_call p "b" ]; [ Fs.readdir_call p "/" ] ])))

let test_deferred_append_fsync () =
  (* `Deferred: appends buffer in the volatile cache; a crash truncates to
     the synced prefix — exactly the spec's crash transition. *)
  let p = params ~durability:`Deferred ~ni:3 ~nb:4 () in
  ignore
    (Verdict.holds "deferred append/fsync under crashes"
       (R.check ~strategy:E.Dpor_sleep
          (Fs.checker_config p ~dirs:[ "a" ]
             ~files:[ ("a", "f", "") ]
             ~max_crashes:1
             [ [ Fs.append_call p "a" "f" "zz"; Fs.fsync_call p "a" "f" ];
               [ Fs.read_call p "a" "f" ] ])))

let test_crash_during_recovery () =
  ignore (Verdict.holds "append with crash during recovery" (C.run C.fs_append_recovery))

let test_ft_ops_with_faults () =
  (* Graceful degradation: bounded-retry allocator read + commit_ft
     abort-before-record, under a fault budget and a crash. *)
  ignore
    (Verdict.holds "ft create/append under faults 1 + crash"
       (C.run ~strategy:E.Dpor_sleep ~faults:1 C.fs_ft))

(* ------------------------------------------------------------------ *)
(* Seeded bugs                                                          *)
(* ------------------------------------------------------------------ *)

(* The seeded double-free, after its positive control: the journaled
   unlink under the same post probes. *)
let test_bug_double_free () =
  ignore (Verdict.holds "journaled unlink holds" (C.run C.fs_unlink_probed));
  let f = Verdict.violated "allocator double-free caught" (C.run C.fs_double_free) in
  Alcotest.(check bool) "counterexample crashes" true
    (List.exists (fun (e : R.event) -> e.ev_kind = R.Crash) f.events)

let test_bug_rename_two_txns () =
  let p = params ~ni:5 ~nb:6 () in
  (* positive control first: the one-transaction rename holds *)
  ignore
    (Verdict.holds "one-txn rename holds"
       (R.check
          (Fs.checker_config p ~dirs:[ "a"; "b" ]
             ~files:[ ("a", "s", "xy"); ("b", "t", "uv") ]
             ~max_crashes:1
             [ [ Fs.rename_call p ~src:("a", "s") ~dst:("b", "t") ] ])));
  let f = Verdict.violated "two-txn rename caught" (C.run C.fs_rename_two_txns) in
  Alcotest.(check bool) "counterexample crashes" true
    (List.exists (fun (e : R.event) -> e.ev_kind = R.Crash) f.events)

(* ------------------------------------------------------------------ *)
(* Golden counterexample, byte-identical across strategies              *)
(* ------------------------------------------------------------------ *)

let test_golden_rename_two_txns () = Golden.lanes C.fs_rename_two_txns

(* ------------------------------------------------------------------ *)
(* Mailboat's spool on the real file system                             *)
(* ------------------------------------------------------------------ *)

let test_spool_deliver_pickup_delete_runs () =
  (* The full Maildir cycle executed on the fs-backed world. *)
  let sp = Sp.params ~users:1 () in
  let w0 = Sp.init_world sp ~users:1 in
  let w1, _ = Runner.run1 w0 (Sp.deliver_prog sp 0 "abcd") in
  let w2, inbox = Runner.run1 w1 (Sp.pickup_prog sp 0) in
  Alcotest.(check bool) "picked up" true
    (inbox = V.list [ V.pair (V.str "m0") (V.str "abcd") ]);
  let w3, _ = Runner.run1 w2 (Sp.delete_prog sp 0 "m0") in
  let w4, _ = Runner.run1 w3 (Sp.unlock_prog 0) in
  let w5, inbox = Runner.run1 w4 (Sp.pickup_prog sp 0) in
  Alcotest.(check bool) "deleted" true (inbox = V.list []);
  (* the spool itself is empty again: the rename unspooled *)
  let _, spool = Runner.run1 w5 (Fs.readdir_prog sp MC.spool) in
  Alcotest.(check bool) "spool empty" true (fst (V.get_pair spool) = V.list [])

let test_spool_deliver_crash () =
  ignore
    (Verdict.holds "spool deliver with crash" (C.run ~strategy:E.Dpor_sleep C.spool_deliver))

let test_spool_deliver_pickup_concurrent () =
  let sp = Sp.params ~users:1 () in
  ignore
    (Verdict.holds "spool deliver concurrent with pickup"
       (R.check ~strategy:E.Dpor_sleep
          (Sp.checker_config sp ~users:1 ~max_crashes:0
             [ [ Sp.deliver_call sp 0 "ab" ];
               [ Sp.pickup_call sp 0; Sp.unlock_call 0 ] ])))

let test_spool_delete_session () =
  let sp = Sp.params ~users:1 () in
  let w = Fs.init_world sp ~dirs:(MC.dirs ~users:1) ~files:[ (MC.user_dir 0, "m0", "hi") ] in
  let st = SMap.add (MC.user_dir 0) (SMap.singleton "m0" "hi") (MC.spec_init ~users:1) in
  let spec = { (MC.spec ~users:1) with Tslang.Spec.init = st } in
  ignore
    (Verdict.holds "spool pickup/delete session with crash"
       (R.check ~strategy:E.Dpor_sleep
          (R.config ~spec ~init_world:w ~crash_world:Fs.crash_world ~pp_world:Fs.pp_world
             ~threads:[ [ Sp.pickup_call sp 0; Sp.delete_call sp 0 "m0"; Sp.unlock_call 0 ] ]
             ~recovery:(Sp.recover_prog sp)
             ~post:(Sp.session_calls sp 0) ~max_crashes:1 ())))

let test_spool_deferred_fsync () =
  let sp = Sp.params ~durability:`Deferred ~users:1 () in
  ignore
    (Verdict.holds "deferred spool deliver (with fsync) holds"
       (R.check ~strategy:E.Dpor_sleep
          (Sp.checker_config sp ~users:1 ~max_crashes:1 [ [ Sp.deliver_call sp 0 "ab" ] ])))

let test_spool_bug_nofsync () =
  (* The seeded bug: publish the mailbox name without fsyncing the spooled
     bytes; a crash after the rename truncates delivered mail. *)
  let f =
    Verdict.violated "missing fsync before directory commit caught"
      (C.run ~strategy:E.Dpor_sleep C.spool_no_fsync)
  in
  Alcotest.(check bool) "counterexample crashes" true
    (List.exists (fun (e : R.event) -> e.ev_kind = R.Crash) f.events);
  (* the same program is correct under the paper's always-durable model *)
  let sp_sync = Sp.params ~users:1 () in
  ignore
    (Verdict.holds "nofsync deliver holds under `Sync"
       (R.check ~strategy:E.Dpor_sleep
          (Sp.checker_config sp_sync ~users:1 ~max_crashes:1
             [ [ Sp.deliver_nofsync_call sp_sync 0 "ab" ] ])))

let suite =
  [
    QCheck_alcotest.to_alcotest prop_bitmap_roundtrip;
    QCheck_alcotest.to_alcotest prop_bitmap_no_leak;
    QCheck_alcotest.to_alcotest prop_bitmap_alloc_disjoint;
    QCheck_alcotest.to_alcotest prop_bitmap_alloc_n;
    Alcotest.test_case "bitmap: fresh block reads all-free" `Quick test_bitmap_fresh_block;
    QCheck_alcotest.to_alcotest prop_inode_roundtrip;
    Alcotest.test_case "inode: free slot" `Quick test_inode_free;
    QCheck_alcotest.to_alcotest prop_dirent_roundtrip;
    Alcotest.test_case "dirent: name validity" `Quick test_dirent_names;
    Alcotest.test_case "layout: address map" `Quick test_layout_addresses;
    Alcotest.test_case "fs: create+append, all strategies" `Quick test_create_append_all_strategies;
    Alcotest.test_case "fs: rename vs concurrent read" `Quick test_rename_concurrent_read;
    Alcotest.test_case "fs: unlink vs concurrent create" `Quick test_unlink_create_concurrent;
    Alcotest.test_case "fs: mkdir vs readdir" `Quick test_mkdir_readdir;
    Alcotest.test_case "fs: deferred append/fsync" `Quick test_deferred_append_fsync;
    Alcotest.test_case "fs: crash during recovery" `Quick test_crash_during_recovery;
    Alcotest.test_case "fs: ft ops under faults" `Quick test_ft_ops_with_faults;
    Alcotest.test_case "bug: allocator double-free caught" `Quick test_bug_double_free;
    Alcotest.test_case "bug: two-transaction rename caught" `Quick test_bug_rename_two_txns;
    Alcotest.test_case "golden: fs counterexample" `Quick test_golden_rename_two_txns;
    Alcotest.test_case "spool: deliver/pickup/delete on lib/fs" `Quick
      test_spool_deliver_pickup_delete_runs;
    Alcotest.test_case "spool: deliver with crash" `Quick test_spool_deliver_crash;
    Alcotest.test_case "spool: deliver vs pickup" `Quick test_spool_deliver_pickup_concurrent;
    Alcotest.test_case "spool: pickup/delete session" `Quick test_spool_delete_session;
    Alcotest.test_case "spool: deferred deliver+fsync holds" `Quick test_spool_deferred_fsync;
    Alcotest.test_case "bug: spool missing fsync caught" `Quick test_spool_bug_nofsync;
  ]
