module V = Tslang.Value
module R = Perennial_core.Refinement
module E = Perennial_core.Explore

type expect = Holds | Violated
type mode = Exhaustive | Random of { schedules : int; crash_prob : float }
type budget = Own | Flag | Capped of int | Fixed of int

type t =
  | I : {
      name : string;
      expect : expect;
      mode : mode;
      budget : budget;
      golden : string option;
      config : unit -> ('w, 's) R.config;
    }
      -> t

let v ?(expect = Holds) ?(mode = Exhaustive) ?(budget = Own) ?golden name config =
  I { name; expect; mode; budget; golden; config }

let name (I i) = i.name
let expect (I i) = i.expect
let mode (I i) = i.mode
let budget (I i) = i.budget
let golden (I i) = i.golden

type 'a on_config = { f : 'w 's. ('w, 's) R.config -> 'a }

let on_config { f } (I i) = f (i.config ())

let run ?strategy ?(faults = 2) ?max_seconds ?domains ?fingerprint ?symmetry (I i) =
  match i.mode with
  | Random { schedules; crash_prob } -> R.check_random ~schedules ~crash_prob (i.config ())
  | Exhaustive ->
    let faults =
      match i.budget with
      | Own -> None
      | Flag -> Some faults
      | Capped n -> Some (min faults n)
      | Fixed n -> Some n
    in
    R.check ?strategy ?faults ?max_seconds ?domains ?fingerprint ?symmetry (i.config ())

let met inst r =
  match (expect inst, r) with
  | Holds, R.Refinement_holds _ | Violated, R.Refinement_violated _ -> true
  | _ -> false

let guard results =
  let naive = List.assoc E.Naive results in
  let verdict = R.verdict_name and execs r = (R.stats_of r).R.executions in
  List.filter_map
    (fun (s, r) ->
      if verdict r <> verdict naive then
        Some (Fmt.str "%s verdict %s, naive %s" (E.strategy_name s) (verdict r) (verdict naive))
      else if execs r > execs naive then
        Some
          (Fmt.str "%s explored %d executions > naive's %d" (E.strategy_name s) (execs r)
             (execs naive))
      else None)
    results

let bug ?budget ?golden name config = v ~expect:Violated ?budget ?golden name config
let vx = V.str "x"
let vy = V.str "y"
let b = Disk.Block.of_string

(* ------------------------------------------------------------------ *)
(* The paper's systems and Mailboat                                     *)
(* ------------------------------------------------------------------ *)

module RD = Systems.Replicated_disk
module MB = Mailboat.Core

let rd_two_writers =
  v "replicated-disk: 2 writers + crash + disk failure" (fun () ->
      RD.checker_config ~may_fail:true ~max_crashes:1 ~size:1
        [ [ RD.write_call 0 vx ]; [ RD.write_call 0 vy ] ])

let cached_block =
  v "cached-block: put + get + crash (versioned memory)" (fun () ->
      Systems.Cached_block.checker_config ~max_crashes:1
        [ [ Systems.Cached_block.put_call vx ]; [ Systems.Cached_block.get_call ] ])

let shadow_copy =
  v "shadow-copy: writer + reader + crash" (fun () ->
      Systems.Shadow_copy.checker_config ~max_crashes:1
        [ [ Systems.Shadow_copy.write_call vx vy ]; [ Systems.Shadow_copy.read_call ] ])

let wal_recovery =
  v "write-ahead-log: writer + crash during recovery" (fun () ->
      Systems.Wal.checker_config ~max_crashes:2 [ [ Systems.Wal.write_call vx vy ] ])

let group_commit =
  v "group-commit: write+flush + crash (lossy spec)" (fun () ->
      Systems.Group_commit.checker_config ~max_crashes:1
        [ [ Systems.Group_commit.write_call vx vy; Systems.Group_commit.flush_call ] ])

let mailboat_deliver =
  v "mailboat: deliver + crash + recovery" (fun () ->
      MB.checker_config ~users:1 ~max_crashes:1 [ [ MB.deliver_call 0 "ab" ] ])

let mailboat_fsync_deferred =
  v "mailboat: fsync deliver under deferred durability" (fun () ->
      MB.checker_config ~users:1 ~max_crashes:1 ~durability:`Deferred
        [ [ MB.deliver_fsync_call 0 "ab" ] ])

let mailboat_deferred =
  bug "mailboat: deliver without fsync under deferred durability" (fun () ->
      MB.checker_config ~users:1 ~max_crashes:1 ~durability:`Deferred
        [ [ MB.deliver_call 0 "ab" ] ])

let mailboat_fsync_sync =
  v "mailboat: fsync deliver under the paper's sync model" (fun () ->
      MB.checker_config ~users:1 ~max_crashes:1 [ [ MB.deliver_fsync_call 0 "ab" ] ])

let layered =
  v "layered: WAL over replicated disk + crash + disk failure" (fun () ->
      Systems.Layered.checker_config ~may_fail:true ~max_crashes:1
        [ [ Systems.Layered.write_call vx vy ] ])

let mailboat_random =
  v "mailboat: randomized check, larger instance"
    ~mode:(Random { schedules = 100; crash_prob = 0.05 })
    (fun () ->
      MB.checker_config ~users:2 ~max_crashes:1
        [ [ MB.deliver_call 0 "ab"; MB.deliver_call 0 "cd" ];
          [ MB.deliver_call 1 "ef" ];
          [ MB.pickup_call 1; MB.unlock_call 1 ] ])

let refinement =
  [ rd_two_writers; cached_block; shadow_copy; wal_recovery; group_commit; mailboat_deliver;
    mailboat_deferred; mailboat_fsync_deferred; mailboat_fsync_sync; layered; mailboat_random ]

(* The paper's §9.5 bug suite and the seeded bugs of the other patterns *)

let rd_buggy ~recovery ?(may_fail = true) ?(max_crashes = 1) threads () =
  R.config ~spec:(RD.spec 1) ~init_world:(RD.init_world ~may_fail 1) ~crash_world:RD.crash_world
    ~pp_world:RD.pp_world ~threads ~recovery ~post:(RD.probe 1) ~max_crashes ()

let rd_nop_recovery =
  bug "seeded: rd without recovery"
    (rd_buggy ~recovery:RD.Buggy.recover_nop [ [ RD.write_call 0 vx ] ])

let rd_zero_recovery =
  bug "seeded: rd recovery zeroes both disks (§1)"
    (rd_buggy ~recovery:(RD.Buggy.recover_zero 1) ~may_fail:false [ [ RD.write_call 0 vx ] ])

let rd_unlocked =
  bug "seeded: rd unlocked writes"
    (rd_buggy ~recovery:(RD.recover_prog 1) ~max_crashes:0
       [ [ RD.Buggy.write_call_unlocked 0 vx ]; [ RD.Buggy.write_call_unlocked 0 vy ] ])

let rd_bugs = [ rd_nop_recovery; rd_zero_recovery; rd_unlocked ]

module SW = Systems.Wal

let wal_commit_first =
  bug "seeded: wal commit flag before log" (fun () ->
      SW.checker_config ~max_crashes:1 [ [ SW.Buggy.write_call_commit_first vx vy ] ])

let wal_no_log =
  bug "seeded: wal apply without log" (fun () ->
      SW.checker_config ~max_crashes:1 [ [ SW.Buggy.write_call_no_log vx vy ] ])

let wal_clear_first =
  bug "seeded: wal recovery clears flag first" (fun () ->
      R.config ~spec:SW.spec ~init_world:(SW.init_world ()) ~crash_world:SW.crash_world
        ~pp_world:SW.pp_world ~threads:[ [ SW.write_call vx vy ] ]
        ~recovery:SW.Buggy.recover_clear_first ~post:[ SW.read_call ] ~max_crashes:2 ())

let shadow_in_place =
  bug "seeded: shadow-copy in-place write" (fun () ->
      Systems.Shadow_copy.checker_config ~max_crashes:1
        [ [ Systems.Shadow_copy.Buggy.write_call_in_place vx vy ] ])

let gc_strict_spec =
  bug "seeded: group-commit under a lossless crash spec" (fun () ->
      Systems.Group_commit.checker_config ~spec:Systems.Group_commit.strict_spec ~max_crashes:1
        [ [ Systems.Group_commit.write_call vx vy ] ])

let mailboat_unspooled =
  bug "seeded: mailboat unspooled deliver" (fun () ->
      MB.checker_config ~users:1 ~max_crashes:1 [ [ MB.Buggy.deliver_call_unspooled 0 "abcd" ] ])

let mailboat_wrong_dir =
  bug "seeded: mailboat recovery deletes mailboxes" (fun () ->
      R.config ~spec:(MB.spec ~users:1) ~init_world:(MB.init_world ~users:1 ())
        ~crash_world:MB.crash_world ~pp_world:MB.pp_world
        ~threads:[ [ MB.deliver_call 0 "ab" ] ]
        ~recovery:(MB.Buggy.recover_wrong_dir ~users:1)
        ~post:[ MB.pickup_call 0; MB.unlock_call 0 ] ~max_crashes:1 ())

let pattern_bugs =
  [ wal_commit_first; wal_no_log; wal_clear_first; shadow_in_place; gc_strict_spec;
    mailboat_unspooled; mailboat_wrong_dir ]

(* ------------------------------------------------------------------ *)
(* The journal and the KVS                                              *)
(* ------------------------------------------------------------------ *)

module J = Journal.Txn_log
module K = Journal.Kvs

let ly = J.layout ~n_data:2 ~max_slots:2
let p = K.params ~n_keys:2 ()

let journal_commit_read_config ?fault_budget () =
  J.checker_config ly ~max_crashes:1 ?fault_budget
    [ [ J.commit_call ly [ (0, b "A"); (1, b "B") ] ]; [ J.read_call ly 0 ] ]

let journal_commit_read = v "journal: commit || read + crash" journal_commit_read_config

let journal_commit_read_fault =
  v "journal: commit || read + crash + 1 fault" (journal_commit_read_config ~fault_budget:1)

let kvs_put_get =
  v "kvs: put || get + crash" (fun () ->
      K.checker_config p ~max_crashes:1 [ [ K.put_call p 0 (V.str "A") ]; [ K.get_call p 1 ] ])

let kvs_txn =
  v "kvs: txn + crash during recovery" (fun () ->
      K.checker_config p ~max_crashes:2 [ [ K.txn_call p [ (0, b "A"); (1, b "B") ] ] ])

let kvs_async =
  v "kvs: async put; flush || get + crash" (fun () ->
      K.checker_config p ~max_crashes:1
        [ [ K.put_async_call p 0 (V.str "A"); K.flush_call p ]; [ K.get_call p 0 ] ])

let kvs = [ kvs_put_get; kvs_txn; kvs_async ]
let strategies = [ rd_two_writers; journal_commit_read; kvs_put_get; kvs_txn; kvs_async ]

let journal_record_first =
  bug "seeded: journal commit record before log" ~golden:"journal_record_first" (fun () ->
      J.checker_config ly ~max_crashes:1
        [ [ J.commit_call ly [ (0, b "A") ];
            J.Buggy.commit_call_record_first ly [ (0, b "C"); (1, b "D") ] ] ])

let journal_no_log =
  bug "seeded: journal unlogged multi-write" ~golden:"journal_no_log" (fun () ->
      J.checker_config ly ~max_crashes:1
        [ [ J.Buggy.commit_call_no_log ly [ (0, b "A"); (1, b "B") ] ] ])

let journal_recover_clear_first =
  bug "seeded: journal recovery clears the record first" ~golden:"journal_recover_clear_first"
    (fun () ->
      R.config ~spec:(J.spec ly) ~init_world:(J.init_world ly) ~crash_world:J.crash_world
        ~pp_world:J.pp_world
        ~threads:[ [ J.commit_call ly [ (0, b "A"); (1, b "B") ] ] ]
        ~recovery:(J.Buggy.recover_clear_first ly) ~post:(J.probe ly) ~max_crashes:2 ())

let kvs_recover_nop =
  bug "seeded: kvs without recovery" ~golden:"kvs_recover_nop" (fun () ->
      R.config ~spec:(K.spec p) ~init_world:(K.init_world p) ~crash_world:K.crash_world
        ~pp_world:K.pp_world
        ~threads:[ [ K.txn_call p [ (0, b "A"); (1, b "B") ] ] ]
        ~recovery:K.Buggy.recover_nop ~post:(K.probe p) ~max_crashes:1 ())

let kvs_strict_spec =
  bug "seeded: kvs async put under a lossless crash spec" ~golden:"kvs_strict_spec" (fun () ->
      K.checker_config p ~spec:(K.strict_spec p) ~max_crashes:1
        [ [ K.put_async_call p 0 (V.str "A") ] ])

let kvs_txn_no_log =
  bug "seeded: kvs txn without the journal" (fun () ->
      K.checker_config p ~max_crashes:1 [ [ K.Buggy.txn_no_log p [ (0, b "A"); (1, b "B") ] ] ])

let kvs_skip_buffer =
  bug "seeded: kvs get skips the group-commit buffer" (fun () ->
      K.checker_config p ~max_crashes:0
        [ [ K.put_async_call p 0 (V.str "A"); K.Buggy.get_call_skip_buffer p 0 ] ])

let journal_bugs =
  [ journal_record_first; journal_no_log; journal_recover_clear_first; kvs_recover_nop;
    kvs_strict_spec; kvs_txn_no_log; kvs_skip_buffer ]

let bugs = rd_bugs @ pattern_bugs @ journal_bugs

(* ------------------------------------------------------------------ *)
(* The circular write-ahead log under the journal                       *)
(* ------------------------------------------------------------------ *)

module C = Perennial_wal.Circ
module W = Perennial_wal.Wal

let wp = W.params ~n_data:1 ~cap:2 ()

let circ_append_snapshot =
  v "circ: append || snapshot + crash" (fun () ->
      let cly = C.layout ~base:0 ~cap:2 in
      C.checker_config cly ~max_crashes:1
        [ [ C.append_call cly [ (1, b "x") ] ]; [ C.snapshot_call cly ] ])

let wal_mwrite_logger =
  v "wal: mwrite || logger + crash" (fun () ->
      W.checker_config wp ~max_crashes:1
        [ [ W.mwrite_call wp [ (0, b "A") ] ]; [ W.logger_call wp ] ])

let wal_flush_installer =
  v "wal: mwrite; flush || installer + crash" (fun () ->
      W.checker_config wp ~max_crashes:1
        [ [ W.mwrite_call wp [ (0, b "A") ]; W.flush_call wp 1 ]; [ W.installer_call wp ] ])

let wal_multiwrite_recovery =
  v "wal: multiwrite flush + crash during recovery" (fun () ->
      let wp2 = W.params ~n_data:2 ~cap:2 () in
      W.checker_config wp2 ~max_crashes:2
        [ [ W.mwrite_call wp2 [ (0, b "A"); (1, b "B") ]; W.flush_call wp2 1 ] ])

let wal_flush_faults =
  v "wal: mwrite; flush + crash + faults" ~budget:Flag (fun () ->
      W.checker_config wp ~max_crashes:1 [ [ W.mwrite_call wp [ (0, b "A") ]; W.flush_call wp 1 ] ])

let wal_header_first =
  bug "seeded: wal logger installs header before records" ~golden:"wal_logger_header_first"
    (fun () ->
      W.checker_config wp ~max_crashes:1
        [ [ W.mwrite_call wp [ (0, b "A") ];
            W.flush_call wp 1;
            W.installer_call wp;
            W.mwrite_call wp [ (0, b "B") ];
            W.Buggy.logger_call_header_first wp ] ])

let wal_trim_first =
  bug "seeded: wal installer trims before applying home" ~golden:"wal_installer_trim_first"
    (fun () ->
      W.checker_config wp ~max_crashes:1
        [ [ W.mwrite_call wp [ (0, b "A") ];
            W.flush_call wp 1;
            W.Buggy.installer_call_trim_first wp ] ])

let wal_absorb_logged =
  bug "seeded: wal absorption collapses across the flush barrier"
    ~golden:"wal_flush_absorb_logged" (fun () ->
      W.checker_config wp ~max_crashes:1
        [ [ W.mwrite_call wp [ (0, b "A") ];
            W.logger_call wp;
            W.mwrite_call wp [ (0, b "B") ];
            W.Buggy.flush_call_absorb_logged wp 2 ] ])

let wal =
  [ circ_append_snapshot;
    wal_mwrite_logger;
    wal_flush_installer;
    wal_multiwrite_recovery;
    wal_flush_faults;
    wal_header_first;
    wal_trim_first;
    wal_absorb_logged;
    v "journal[wal backend]: commit || read + crash" (fun () ->
        J.checker_config ~backend:`Wal ly ~max_crashes:1
          [ [ J.commit_call ~backend:`Wal ly [ (0, b "A"); (1, b "B") ] ]; [ J.read_call ly 0 ] ]);
    v "journal[wal backend]: ft commit + crash + faults" ~budget:Flag (fun () ->
        J.checker_config ~backend:`Wal ly ~max_crashes:1
          [ [ J.commit_ft_call ~backend:`Wal ly [ (0, b "A"); (1, b "B") ] ] ]) ]

(* ------------------------------------------------------------------ *)
(* The inode file system on the journal, and the spool on it            *)
(* ------------------------------------------------------------------ *)

module L = Perennial_fs.Layout
module Fs = Perennial_fs.Fs
module Sp = Perennial_fs.Spool

let fsp = Fs.params (L.v ~n_inodes:4 ~n_blocks:5 ())
let fsp2 = Fs.params (L.v ~n_inodes:5 ~n_blocks:6 ())

let create_append ?post p () =
  Fs.checker_config p ~dirs:[ "a" ] ~files:[ ("a", "f", "xy") ] ?post ~max_crashes:1
    [ [ Fs.create_call p "a" "g" ]; [ Fs.append_call p "a" "f" "z" ] ]

let fs_create_append = v "fs: create || append + crash" (create_append fsp)

let fs_create_append_probed =
  v "fs: create || append + crash, both files probed"
    (create_append ~post:(Fs.probe fsp ~dirs:[ "a" ] ~files:[ ("a", "f"); ("a", "g") ]) fsp)

let fs_rename_read =
  v "fs: rename (replacing) || read + crash" (fun () ->
      Fs.checker_config fsp2 ~dirs:[ "a"; "b" ]
        ~files:[ ("a", "s", "xy"); ("b", "t", "uv") ]
        ~max_crashes:1
        [ [ Fs.rename_call fsp2 ~src:("a", "s") ~dst:("b", "t") ]; [ Fs.read_call fsp2 "b" "t" ] ])

let fs_append_recovery =
  v "fs: append + crash during recovery" (fun () ->
      let p = Fs.params (L.v ~n_inodes:3 ~n_blocks:4 ()) in
      Fs.checker_config p ~dirs:[ "a" ] ~files:[ ("a", "f", "x") ] ~max_crashes:2
        [ [ Fs.append_call p "a" "f" "y" ] ])

let fs_ft =
  v "fs: ft create/append + crash + faults" ~budget:Flag (fun () ->
      Fs.checker_config fsp ~dirs:[ "a" ]
        ~files:[ ("a", "f", "x") ]
        ~post:(Fs.probe fsp ~dirs:[ "a" ] ~files:[ ("a", "f"); ("a", "g") ])
        ~max_crashes:1
        [ [ Fs.create_ft_call fsp "a" "g"; Fs.append_ft_call fsp "a" "f" "y" ] ])

let spool_deliver =
  v "spool-on-fs: deliver + crash + recovery" (fun () ->
      let sp = Sp.params ~users:1 () in
      Sp.checker_config sp ~users:1 ~max_crashes:1 [ [ Sp.deliver_call sp 0 "ab" ] ])

(* [unlink] of a file under post probes that WRITE after recovery, making
   a double-free observable by re-allocating the freed blocks. *)
let unlink_probed unlink () =
  let p = Fs.params (L.v ~n_inodes:4 ~n_blocks:4 ()) in
  Fs.checker_config p ~dirs:[ "a" ]
    ~files:[ ("a", "f", "xy") ]
    ~post:
      [ Fs.readdir_call p "a"; Fs.create_call p "a" "g"; Fs.append_call p "a" "g" "zz";
        Fs.read_call p "a" "f"; Fs.read_call p "a" "g" ]
    ~max_crashes:1
    [ [ unlink p "a" "f" ] ]

let fs_double_free =
  bug "seeded: fs allocator double-free across crash"
    (unlink_probed Fs.Buggy.unlink_call_free_first)

let fs_unlink_probed =
  v "fs: unlink + crash, freed blocks re-allocated" (unlink_probed Fs.unlink_call)

let fs_rename_two_txns =
  bug "seeded: fs rename as two transactions" ~golden:"fs_rename_two_txns" (fun () ->
      Fs.checker_config fsp2 ~dirs:[ "a"; "b" ]
        ~files:[ ("a", "s", "xy"); ("b", "t", "uv") ]
        ~max_crashes:1
        [ [ Fs.Buggy.rename_call_two_txns fsp2 ~src:("a", "s") ~dst:("b", "t") ] ])

let spool_no_fsync =
  bug "seeded: spool missing fsync before directory commit" (fun () ->
      let sp = Sp.params ~durability:`Deferred ~users:1 () in
      Sp.checker_config sp ~users:1 ~max_crashes:1 [ [ Sp.deliver_nofsync_call sp 0 "ab" ] ])

let fs =
  [ fs_create_append;
    fs_rename_read;
    fs_append_recovery;
    v "fs: deferred append/fsync + crash" (fun () ->
        let p = Fs.params ~durability:`Deferred (L.v ~n_inodes:3 ~n_blocks:4 ()) in
        Fs.checker_config p ~dirs:[ "a" ] ~files:[ ("a", "f", "") ] ~max_crashes:1
          [ [ Fs.append_call p "a" "f" "zz"; Fs.fsync_call p "a" "f" ] ]);
    fs_ft;
    v "fs[wal backend]: create || append + crash"
      (create_append (Fs.params ~backend:`Wal (L.v ~n_inodes:4 ~n_blocks:5 ())));
    spool_deliver;
    fs_double_free;
    fs_rename_two_txns;
    spool_no_fsync ]

(* ------------------------------------------------------------------ *)
(* Fault injection                                                      *)
(* ------------------------------------------------------------------ *)

let rd_no_retry =
  bug "seeded: rd retry-without-re-read" ~budget:Flag ~golden:"rd_fault_no_retry" (fun () ->
      RD.checker_config ~may_fail:false ~size:1 ~max_crashes:0
        [ [ RD.write_call 0 vx; RD.Buggy.read_ft_call_no_retry 0 ] ])

let rd_ft =
  v "replicated-disk: ft write || ft read + crash + faults" ~budget:Flag (fun () ->
      RD.checker_config ~size:1 ~max_crashes:1 [ [ RD.write_ft_call 0 vx ]; [ RD.read_ft_call 0 ] ])

let journal_ft =
  v "journal: ft commit || ft read + crash + faults" ~budget:Flag (fun () ->
      J.checker_config ly ~max_crashes:1
        [ [ J.commit_ft_call ly [ (0, b "A"); (1, b "B") ] ]; [ J.read_ft_call ly 0 ] ])

let kvs_ft =
  v "kvs: ft put; ft get + crash + faults" ~budget:Flag (fun () ->
      K.checker_config p ~max_crashes:1 [ [ K.put_ft_call p 0 (V.str "A"); K.get_ft_call p 0 ] ])

let journal_torn =
  bug "seeded: journal torn commit record" ~budget:Flag (fun () ->
      J.checker_config ly ~max_crashes:1
        [ [ J.Buggy.commit_ft_call_ignore_torn ly [ (0, b "A"); (1, b "B") ] ] ])

let kvs_swallow =
  bug "seeded: kvs error swallowed after partial apply" ~budget:Flag (fun () ->
      K.checker_config p ~max_crashes:0
        [ [ K.Buggy.put_ft_call_swallow_apply p 0 (V.str "A"); K.get_call p 0 ] ])

let faults = [ rd_ft; journal_ft; kvs_ft; rd_no_retry; journal_torn; kvs_swallow ]

(* ------------------------------------------------------------------ *)
(* The network adversary and exactly-once RPC                           *)
(* ------------------------------------------------------------------ *)

module SK = Dist.Shard_kv

(* Network schedules branch at every send/recv/try_recv, so they blow up
   much faster than disk-fault schedules: the budget is capped at one
   adversarial event.  One event is exactly what the seeded bugs need and
   keeps every instance exhaustively checkable in seconds.  Lease instances
   branch on premature timeouts alone; their budget stays at zero so expiry
   placement is the only dimension. *)
let net_event = Capped 1

let net_no_cache =
  bug "seeded: server without reply cache (duplicate re-executes)" ~budget:net_event
    ~golden:"net_bug1_dup_no_cache" (fun () ->
      let p = SK.params ~n_keys:1 ~n_clients:1 ~retries:0 () in
      SK.checker_config p ~max_crashes:0 ~fault_budget:1
        [ [ SK.Buggy.srv_call_no_cache p 0 ]; [ SK.ninc_call p ~client:0 ~seq:0 0; SK.bye_call ] ])

let net_raw_retry =
  bug "seeded: raw retry without seq number (stale write wins)" ~budget:net_event
    ~golden:"net_bug2_raw_retry" (fun () ->
      let pr = SK.params ~n_keys:1 ~n_clients:1 ~retries:1 () in
      let p0 = SK.params ~n_keys:1 ~n_clients:1 ~retries:0 () in
      SK.checker_config pr ~max_crashes:0 ~fault_budget:1
        [ [ SK.srv_call pr 0 ];
          [ SK.Buggy.nput_call_raw_retry pr ~client:0 ~seq:0 0 (V.str "A");
            SK.nput_call p0 ~client:0 ~seq:1 0 (V.str "B");
            SK.bye_call ] ])

let net_no_fence =
  bug "seeded: lease write without epoch fence (zombie write)" ~budget:(Fixed 0)
    ~golden:"net_bug3_no_fence" (fun () ->
      let p = SK.params ~n_keys:1 ~n_clients:2 () in
      SK.checker_config p ~max_crashes:0
        [ [ SK.Buggy.linc_call_no_fence p ~client:0 0 ];
          [ SK.Buggy.linc_call_no_fence p ~client:1 0 ];
          [ SK.expire_call ] ])

let net_inc =
  v "shard-kv: exactly-once inc + crash + net adversary" ~budget:net_event (fun () ->
      let p = SK.params ~n_keys:1 ~n_clients:1 () in
      SK.checker_config p ~max_crashes:1 ~fault_budget:1
        [ [ SK.ninc_call p ~client:0 ~seq:0 0; SK.bye_call ]; [ SK.srv_call p 0 ] ])

let net_contention =
  v "shard-kv: 2-client contention + net adversary" ~budget:net_event (fun () ->
      let p = SK.params ~n_keys:1 ~n_clients:2 ~retries:0 () in
      SK.checker_config p ~max_crashes:0 ~fault_budget:1
        [ [ SK.ninc_call p ~client:0 ~seq:0 0; SK.bye_call ];
          [ SK.ninc_call p ~client:1 ~seq:0 0; SK.bye_call ];
          [ SK.srv_call p 0 ] ])

let net_retry_storm =
  v "shard-kv: retry storm (timeout/backoff) + net adversary" ~budget:net_event (fun () ->
      let pr = SK.params ~n_keys:1 ~n_clients:1 ~retries:1 () in
      let p0 = SK.params ~n_keys:1 ~n_clients:1 ~retries:0 () in
      SK.checker_config pr ~max_crashes:0 ~fault_budget:1
        [ [ SK.nput_call pr ~client:0 ~seq:0 0 (V.str "A");
            SK.nput_call p0 ~client:0 ~seq:1 0 (V.str "B");
            SK.bye_call ];
          [ SK.srv_call pr 0 ] ])

let net_cross_shard =
  v "shard-kv: cross-shard put/get + net adversary" ~budget:net_event (fun () ->
      let p = SK.params ~n_keys:2 ~n_shards:2 ~n_clients:1 ~retries:0 () in
      SK.checker_config p ~max_crashes:0 ~fault_budget:1
        [ [ SK.nput_call p ~client:0 ~seq:0 0 (V.str "A");
            SK.nget_call p ~client:0 ~seq:1 1;
            SK.bye_call ];
          [ SK.srv_call p 0 ];
          [ SK.srv_call p 1 ] ])

let lease =
  v "lease: 2 holders + expiry + crash (epoch fencing)" ~budget:(Fixed 0) (fun () ->
      let p = SK.params ~n_keys:1 ~n_clients:2 () in
      SK.checker_config p ~max_crashes:1
        [ [ SK.linc_call p ~client:0 0 ]; [ SK.linc_call p ~client:1 0 ]; [ SK.expire_call ] ])

let net_hosted =
  v "hosted shard-kv (journal-backed) + crash + net adversary" ~budget:net_event (fun () ->
      let p = SK.params ~n_keys:1 ~n_shards:1 ~n_clients:1 ~retries:0 ~init_val:(V.str "0") () in
      SK.Hosted.checker_config p ~max_crashes:1 ~fault_budget:1
        [ [ SK.Hosted.nput_call p ~client:0 ~seq:0 0 (V.str "A"); SK.Hosted.bye_call ];
          [ SK.Hosted.srv_call p 0 ] ])

let net =
  [ net_inc; net_contention; net_retry_storm; net_cross_shard; lease; net_hosted; net_no_cache;
    net_raw_retry; net_no_fence ]

let all =
  List.fold_left
    (fun acc i -> if List.memq i acc then acc else acc @ [ i ])
    []
    (refinement @ bugs @ kvs @ strategies @ wal @ fs @ faults @ net
    @ [ journal_commit_read_fault; fs_create_append_probed; fs_unlink_probed ])
