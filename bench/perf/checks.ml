(* The checker instances the perf workloads run, built exactly as
   [perennial_check] builds them: the six positive checks of its [net]
   selection, and the 38 checks of its refinement, kvs, wal, fs and faults
   selections (positive and seeded-bug, both journal backends).

   An instance keeps its configuration apart from the call that checks it,
   so the traced run can wrap the configuration's spec before checking. *)

module V = Tslang.Value
module R = Perennial_core.Refinement
module E = Perennial_core.Explore

type expect = Holds | Violated

type t =
  | Check : {
      name : string;
      expect : expect;
      cfg : ('w, 's) R.config;
      run : ('w, 's) R.config -> R.result;
    }
      -> t

(* How a selection checks its exhaustive instances; [?faults] overrides the
   config's fault budget, as [perennial_check --faults] does. *)
type checker = { check : 'w 's. ?faults:int -> ('w, 's) R.config -> R.result }

let name (Check c) = c.name

let holds name run cfg = Check { name; expect = Holds; cfg; run }
let bug name run cfg = Check { name; expect = Violated; cfg; run }

(* The positive instances of [perennial_check net]: the network-event budget
   is capped at one, the lease instance runs at budget zero. *)
let net (c : checker) =
  let module SK = Dist.Shard_kv in
  let check cfg = c.check ~faults:1 cfg in
  let check0 cfg = c.check ~faults:0 cfg in
  let p1 = SK.params ~n_keys:1 ~n_clients:1 () in
  let pc = SK.params ~n_keys:1 ~n_clients:2 ~retries:0 () in
  let pr = SK.params ~n_keys:1 ~n_clients:1 ~retries:1 () in
  let p0 = SK.params ~n_keys:1 ~n_clients:1 ~retries:0 () in
  let px = SK.params ~n_keys:2 ~n_shards:2 ~n_clients:1 ~retries:0 () in
  let pl = SK.params ~n_keys:1 ~n_clients:2 () in
  let ph = SK.params ~n_keys:1 ~n_shards:1 ~n_clients:1 ~retries:0 ~init_val:(V.str "0") () in
  [ holds "shard-kv: exactly-once inc + crash" check
      (SK.checker_config p1 ~max_crashes:1 ~fault_budget:1
         [ [ SK.ninc_call p1 ~client:0 ~seq:0 0; SK.bye_call ]; [ SK.srv_call p1 0 ] ]);
    holds "shard-kv: 2-client contention" check
      (SK.checker_config pc ~max_crashes:0 ~fault_budget:1
         [ [ SK.ninc_call pc ~client:0 ~seq:0 0; SK.bye_call ];
           [ SK.ninc_call pc ~client:1 ~seq:0 0; SK.bye_call ];
           [ SK.srv_call pc 0 ] ]);
    holds "shard-kv: retry storm" check
      (SK.checker_config pr ~max_crashes:0 ~fault_budget:1
         [ [ SK.nput_call pr ~client:0 ~seq:0 0 (V.str "A");
             SK.nput_call p0 ~client:0 ~seq:1 0 (V.str "B");
             SK.bye_call ];
           [ SK.srv_call pr 0 ] ]);
    holds "shard-kv: cross-shard put/get" check
      (SK.checker_config px ~max_crashes:0 ~fault_budget:1
         [ [ SK.nput_call px ~client:0 ~seq:0 0 (V.str "A");
             SK.nget_call px ~client:0 ~seq:1 1;
             SK.bye_call ];
           [ SK.srv_call px 0 ]; [ SK.srv_call px 1 ] ]);
    holds "lease: 2 holders + expiry + crash" check0
      (SK.checker_config pl ~max_crashes:1 ~fault_budget:0
         [ [ SK.linc_call pl ~client:0 0 ]; [ SK.linc_call pl ~client:1 0 ]; [ SK.expire_call ] ]);
    holds "hosted shard-kv + crash" check
      (SK.Hosted.checker_config ph ~max_crashes:1 ~fault_budget:1
         [ [ SK.Hosted.nput_call ph ~client:0 ~seq:0 0 (V.str "A"); SK.Hosted.bye_call ];
           [ SK.Hosted.srv_call ph 0 ] ]) ]

(* [perennial_check refinement]: the paper's systems, plus its randomized
   mailboat check (walks seeded by [seed]). *)
let refinement (c : checker) ~seed =
  let check cfg = c.check cfg in
  let module RD = Systems.Replicated_disk in
  let module MB = Mailboat.Core in
  let vx = V.str "x" and vy = V.str "y" in
  [ holds "replicated-disk: 2 writers + crash + disk failure" check
      (RD.checker_config ~may_fail:true ~max_crashes:1 ~size:1
         [ [ RD.write_call 0 vx ]; [ RD.write_call 0 vy ] ]);
    holds "cached-block: put + get + crash" check
      (Systems.Cached_block.checker_config ~max_crashes:1
         [ [ Systems.Cached_block.put_call vx ]; [ Systems.Cached_block.get_call ] ]);
    holds "shadow-copy: writer + reader + crash" check
      (Systems.Shadow_copy.checker_config ~max_crashes:1
         [ [ Systems.Shadow_copy.write_call vx vy ]; [ Systems.Shadow_copy.read_call ] ]);
    holds "write-ahead-log: writer + crash during recovery" check
      (Systems.Wal.checker_config ~max_crashes:2 [ [ Systems.Wal.write_call vx vy ] ]);
    holds "group-commit: write+flush + crash" check
      (Systems.Group_commit.checker_config ~max_crashes:1
         [ [ Systems.Group_commit.write_call vx vy; Systems.Group_commit.flush_call ] ]);
    holds "mailboat: deliver + crash + recovery" check
      (MB.checker_config ~users:1 ~max_crashes:1 [ [ MB.deliver_call 0 "ab" ] ]);
    holds "mailboat: fsync deliver under deferred durability" check
      (MB.checker_config ~users:1 ~max_crashes:1 ~durability:`Deferred
         [ [ MB.deliver_fsync_call 0 "ab" ] ]);
    holds "layered: WAL over replicated disk + crash + disk failure" check
      (Systems.Layered.checker_config ~may_fail:true ~max_crashes:1
         [ [ Systems.Layered.write_call vx vy ] ]);
    holds "mailboat: randomized check, larger instance"
      (R.check_random ~seed ~schedules:100 ~crash_prob:0.05)
      (MB.checker_config ~users:2 ~max_crashes:1
         [ [ MB.deliver_call 0 "ab"; MB.deliver_call 0 "cd" ];
           [ MB.deliver_call 1 "ef" ];
           [ MB.pickup_call 1; MB.unlock_call 1 ] ]) ]

let kvs_params () = Journal.Kvs.params ~n_keys:2 ()

let kvs_put_get p =
  let module K = Journal.Kvs in
  K.checker_config p ~max_crashes:1 [ [ K.put_call p 0 (V.str "A") ]; [ K.get_call p 1 ] ]

(* [perennial_check kvs] *)
let kvs (c : checker) =
  let check cfg = c.check cfg in
  let module K = Journal.Kvs in
  let b = Disk.Block.of_string in
  let p = kvs_params () in
  [ holds "kvs: put || get + crash" check (kvs_put_get p);
    holds "kvs: txn + crash during recovery" check
      (K.checker_config p ~max_crashes:2 [ [ K.txn_call p [ (0, b "A"); (1, b "B") ] ] ]);
    holds "kvs: async put; flush || get + crash" check
      (K.checker_config p ~max_crashes:1
         [ [ K.put_async_call p 0 (V.str "A"); K.flush_call p ]; [ K.get_call p 0 ] ]) ]

(* [perennial_check wal --faults 2] *)
let wal (c : checker) =
  let check cfg = c.check cfg in
  let checkf cfg = c.check ~faults:2 cfg in
  let module C = Perennial_wal.Circ in
  let module W = Perennial_wal.Wal in
  let module J = Journal.Txn_log in
  let b = Disk.Block.of_string in
  let cly = C.layout ~base:0 ~cap:2 in
  let wp = W.params ~n_data:1 ~cap:2 () in
  let wp2 = W.params ~n_data:2 ~cap:2 () in
  let ly = J.layout ~n_data:2 ~max_slots:2 in
  [ holds "circ: append || snapshot + crash" check
      (C.checker_config cly ~max_crashes:1
         [ [ C.append_call cly [ (1, b "x") ] ]; [ C.snapshot_call cly ] ]);
    holds "wal: mwrite || logger + crash" check
      (W.checker_config wp ~max_crashes:1
         [ [ W.mwrite_call wp [ (0, b "A") ] ]; [ W.logger_call wp ] ]);
    holds "wal: mwrite; flush || installer + crash" check
      (W.checker_config wp ~max_crashes:1
         [ [ W.mwrite_call wp [ (0, b "A") ]; W.flush_call wp 1 ]; [ W.installer_call wp ] ]);
    holds "wal: multiwrite flush + crash during recovery" check
      (W.checker_config wp2 ~max_crashes:2
         [ [ W.mwrite_call wp2 [ (0, b "A"); (1, b "B") ]; W.flush_call wp2 1 ] ]);
    holds "wal: mwrite; flush + crash + faults" checkf
      (W.checker_config wp ~max_crashes:1
         [ [ W.mwrite_call wp [ (0, b "A") ]; W.flush_call wp 1 ] ]);
    bug "seeded: wal logger installs header before records" check
      (W.checker_config wp ~max_crashes:1
         [ [ W.mwrite_call wp [ (0, b "A") ];
             W.flush_call wp 1;
             W.installer_call wp;
             W.mwrite_call wp [ (0, b "B") ];
             W.Buggy.logger_call_header_first wp ] ]);
    bug "seeded: wal installer trims before applying home" check
      (W.checker_config wp ~max_crashes:1
         [ [ W.mwrite_call wp [ (0, b "A") ];
             W.flush_call wp 1;
             W.Buggy.installer_call_trim_first wp ] ]);
    bug "seeded: wal absorption collapses across the flush barrier" check
      (W.checker_config wp ~max_crashes:1
         [ [ W.mwrite_call wp [ (0, b "A") ];
             W.logger_call wp;
             W.mwrite_call wp [ (0, b "B") ];
             W.Buggy.flush_call_absorb_logged wp 2 ] ]);
    holds "journal[wal backend]: commit || read + crash" check
      (J.checker_config ~backend:`Wal ly ~max_crashes:1
         [ [ J.commit_call ~backend:`Wal ly [ (0, b "A"); (1, b "B") ] ]; [ J.read_call ly 0 ] ]);
    holds "journal[wal backend]: ft commit + crash + faults" checkf
      (J.checker_config ~backend:`Wal ly ~max_crashes:1
         [ [ J.commit_ft_call ~backend:`Wal ly [ (0, b "A"); (1, b "B") ] ] ]) ]

let fs_params () = Perennial_fs.Fs.params (Perennial_fs.Layout.v ~n_inodes:4 ~n_blocks:5 ())

let fs_create_append p =
  let module Fs = Perennial_fs.Fs in
  Fs.checker_config p ~dirs:[ "a" ] ~files:[ ("a", "f", "xy") ] ~max_crashes:1
    [ [ Fs.create_call p "a" "g" ]; [ Fs.append_call p "a" "f" "z" ] ]

(* [perennial_check fs --faults 2] *)
let fs (c : checker) =
  let check cfg = c.check cfg in
  let checkf cfg = c.check ~faults:2 cfg in
  let module L = Perennial_fs.Layout in
  let module Fs = Perennial_fs.Fs in
  let module Sp = Perennial_fs.Spool in
  let p = fs_params () in
  let p2 = Fs.params (L.v ~n_inodes:5 ~n_blocks:6 ()) in
  let p3 = Fs.params (L.v ~n_inodes:3 ~n_blocks:4 ()) in
  let pd = Fs.params ~durability:`Deferred (L.v ~n_inodes:3 ~n_blocks:4 ()) in
  let pw = Fs.params ~backend:`Wal (L.v ~n_inodes:4 ~n_blocks:5 ()) in
  let pb = Fs.params (L.v ~n_inodes:4 ~n_blocks:4 ()) in
  let sp = Sp.params ~users:1 () in
  let spd = Sp.params ~durability:`Deferred ~users:1 () in
  let write_probes =
    [ Fs.readdir_call pb "a"; Fs.create_call pb "a" "g"; Fs.append_call pb "a" "g" "zz";
      Fs.read_call pb "a" "f"; Fs.read_call pb "a" "g" ]
  in
  [ holds "fs: create || append + crash" check (fs_create_append p);
    holds "fs: rename (replacing) || read + crash" check
      (Fs.checker_config p2 ~dirs:[ "a"; "b" ]
         ~files:[ ("a", "s", "xy"); ("b", "t", "uv") ]
         ~max_crashes:1
         [ [ Fs.rename_call p2 ~src:("a", "s") ~dst:("b", "t") ]; [ Fs.read_call p2 "b" "t" ] ]);
    holds "fs: append + crash during recovery" check
      (Fs.checker_config p3 ~dirs:[ "a" ] ~files:[ ("a", "f", "x") ] ~max_crashes:2
         [ [ Fs.append_call p3 "a" "f" "y" ] ]);
    holds "fs: deferred append/fsync + crash" check
      (Fs.checker_config pd ~dirs:[ "a" ] ~files:[ ("a", "f", "") ] ~max_crashes:1
         [ [ Fs.append_call pd "a" "f" "zz"; Fs.fsync_call pd "a" "f" ] ]);
    holds "fs: ft create/append + crash + faults" checkf
      (Fs.checker_config p ~dirs:[ "a" ] ~files:[ ("a", "f", "x") ]
         ~post:(Fs.probe p ~dirs:[ "a" ] ~files:[ ("a", "f"); ("a", "g") ])
         ~max_crashes:1
         [ [ Fs.create_ft_call p "a" "g"; Fs.append_ft_call p "a" "f" "y" ] ]);
    holds "fs[wal backend]: create || append + crash" check (fs_create_append pw);
    holds "spool-on-fs: deliver + crash + recovery" check
      (Sp.checker_config sp ~users:1 ~max_crashes:1 [ [ Sp.deliver_call sp 0 "ab" ] ]);
    bug "seeded: fs allocator double-free across crash" check
      (Fs.checker_config pb ~dirs:[ "a" ] ~files:[ ("a", "f", "xy") ] ~post:write_probes
         ~max_crashes:1
         [ [ Fs.Buggy.unlink_call_free_first pb "a" "f" ] ]);
    bug "seeded: fs rename as two transactions" check
      (Fs.checker_config p2 ~dirs:[ "a"; "b" ]
         ~files:[ ("a", "s", "xy"); ("b", "t", "uv") ]
         ~max_crashes:1
         [ [ Fs.Buggy.rename_call_two_txns p2 ~src:("a", "s") ~dst:("b", "t") ] ]);
    bug "seeded: spool missing fsync before directory commit" check
      (Sp.checker_config spd ~users:1 ~max_crashes:1 [ [ Sp.deliver_nofsync_call spd 0 "ab" ] ]) ]

(* [perennial_check faults --faults 2] *)
let faults (c : checker) =
  let check cfg = c.check ~faults:2 cfg in
  let module RD = Systems.Replicated_disk in
  let module J = Journal.Txn_log in
  let module K = Journal.Kvs in
  let b = Disk.Block.of_string in
  let p = kvs_params () in
  let ly = J.layout ~n_data:2 ~max_slots:2 in
  [ holds "replicated-disk: ft write || ft read + crash + faults" check
      (RD.checker_config ~size:1 ~max_crashes:1
         [ [ RD.write_ft_call 0 (V.str "x") ]; [ RD.read_ft_call 0 ] ]);
    holds "journal: ft commit || ft read + crash + faults" check
      (J.checker_config ly ~max_crashes:1
         [ [ J.commit_ft_call ly [ (0, b "A"); (1, b "B") ] ]; [ J.read_ft_call ly 0 ] ]);
    holds "kvs: ft put; ft get + crash + faults" check
      (K.checker_config p ~max_crashes:1 [ [ K.put_ft_call p 0 (V.str "A"); K.get_ft_call p 0 ] ]);
    bug "seeded: rd retry-without-re-read" check
      (RD.checker_config ~may_fail:false ~size:1 ~max_crashes:0
         [ [ RD.write_call 0 (V.str "x"); RD.Buggy.read_ft_call_no_retry 0 ] ]);
    bug "seeded: journal torn commit record" check
      (J.checker_config ly ~max_crashes:1
         [ [ J.Buggy.commit_ft_call_ignore_torn ly [ (0, b "A"); (1, b "B") ] ] ]);
    bug "seeded: kvs error swallowed after partial apply" check
      (K.checker_config p ~max_crashes:0
         [ [ K.Buggy.put_ft_call_swallow_apply p 0 (V.str "A"); K.get_call p 0 ] ]) ]

(* The storage-dpor set: every storage selection under the given checker,
   plus seeded random walks over the positive kvs and fs instances. *)
let storage (c : checker) ~seed =
  refinement c ~seed @ kvs c @ wal c @ fs c @ faults c
  @ [ holds "kvs: put || get, 200 random walks" (R.check_random ~seed ~schedules:200)
        (kvs_put_get (kvs_params ()));
      holds "fs: create || append, 200 random walks" (R.check_random ~seed ~schedules:200)
        (fs_create_append (fs_params ())) ]
