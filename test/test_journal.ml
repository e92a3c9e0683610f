(* Tests for the multi-address journal ({!Journal.Txn_log}) and the
   transactional KV store on top of it ({!Journal.Kvs}): recovery replay,
   crash-during-recovery idempotence, refinement on finite instances with
   crashes (including during recovery), seeded-bug rejection, and the
   proof outlines of {!Journal.Kvs_proof}. *)

module V = Tslang.Value
module R = Perennial_core.Refinement
module O = Perennial_core.Outline
module C = Perennial_catalog.Catalog
module J = Journal.Txn_log
module K = Journal.Kvs
module KP = Journal.Kvs_proof
module Block = Disk.Block

let b = Block.of_string
let bv s = Block.to_value (b s)

(* Run a program for exactly [n] atomic steps — the world as it stood at
   the crash. *)
let run_steps w prog n =
  let rec go w prog n =
    if n = 0 then w
    else
      match prog with
      | Sched.Prog.Mark (_, p) -> go w p n
      | Sched.Prog.Done _ -> w
      | Sched.Prog.Atomic { action; k; _ } -> (
        match action w with
        | Sched.Prog.Steps ((w', v) :: _) -> go w' (k v) (n - 1)
        | Sched.Prog.Steps [] | Sched.Prog.Ub _ -> w)
  in
  go w prog n

let data_blocks ly w =
  List.init ly.J.n_data (fun a -> Disk.Single_disk.get (J.get_disk w) a)

let check_data name ly w expected =
  Alcotest.(check (list string))
    name expected
    (List.map Block.to_string (data_blocks ly w))

(* --- journal: commit, replay, idempotence --- *)

let ly = J.layout ~n_data:3 ~max_slots:2

let test_commit_applies () =
  let w, _ = Sched.Runner.run1 (J.init_world ly) (J.commit_txn_prog ly [ (0, b "A"); (2, b "C") ]) in
  check_data "data region" ly w [ "A"; "0"; "C" ];
  Alcotest.(check string)
    "record cleared" "0"
    (Block.to_string (Disk.Single_disk.get (J.get_disk w) (J.rec_addr ly)))

(* Crash after the commit-record write, before the apply: recovery must
   replay the log (helping). commit_txn_prog steps: lock, 2x2 slot
   writes, record write = 6. *)
let test_recovery_replays_committed () =
  let prog = J.commit_txn_prog ly [ (0, b "A"); (2, b "C") ] in
  let mid = run_steps (J.init_world ly) prog 6 in
  check_data "not yet applied" ly mid [ "0"; "0"; "0" ];
  let w, _ = Sched.Runner.run1 (J.crash_world mid) (J.recover ly) in
  check_data "replayed" ly w [ "A"; "0"; "C" ];
  Alcotest.(check string)
    "record cleared" "0"
    (Block.to_string (Disk.Single_disk.get (J.get_disk w) (J.rec_addr ly)))

(* Crash before the record write: nothing committed, nothing replayed. *)
let test_recovery_ignores_uncommitted () =
  let prog = J.commit_txn_prog ly [ (0, b "A"); (2, b "C") ] in
  let mid = run_steps (J.init_world ly) prog 5 in
  let w, _ = Sched.Runner.run1 (J.crash_world mid) (J.recover ly) in
  check_data "untouched" ly w [ "0"; "0"; "0" ]

(* Recovery may crash at any point and re-run: the final state must be the
   same as an uninterrupted recovery, for every cut point. *)
let test_recovery_idempotent () =
  let prog = J.commit_txn_prog ly [ (0, b "A"); (2, b "C") ] in
  let committed = J.crash_world (run_steps (J.init_world ly) prog 6) in
  let full, _ = Sched.Runner.run1 committed (J.recover ly) in
  for n = 0 to 8 do
    let partial = J.crash_world (run_steps committed (J.recover ly) n) in
    let again, _ = Sched.Runner.run1 partial (J.recover ly) in
    check_data
      (Printf.sprintf "recovery cut at step %d" n)
      ly again
      (List.map Block.to_string (data_blocks ly full))
  done

(* --- journal: refinement on finite instances --- *)

let ly2 = J.layout ~n_data:2 ~max_slots:2

let test_journal_refinement_holds () = Test_explore.expect C.journal_commit_read

let test_journal_crash_during_recovery () =
  Verdict.check_holds "commit, 2 crashes (incl. during recovery)"
    (J.checker_config ly2 ~max_crashes:2 [ [ J.commit_call ly2 [ (0, b "A"); (1, b "B") ] ] ])

(* Commit record before the log entries: after a first transaction has
   left stale slot contents, a crash right after the record write makes
   recovery replay garbage over committed data. *)
let test_journal_record_first_caught () = Test_explore.expect C.journal_record_first
let test_journal_no_log_caught () = Test_explore.expect C.journal_no_log
let test_journal_recover_clear_first_caught () = Test_explore.expect C.journal_recover_clear_first

(* --- kvs: refinement --- *)

let p = K.params ~n_keys:2 ()

let test_kvs_put_get_holds () = Test_explore.expect C.kvs_put_get
let test_kvs_txn_crash_during_recovery () = Test_explore.expect C.kvs_txn

let test_kvs_txn_vs_gets_holds () =
  Verdict.check_holds "txn || get (both flavours), no crash"
    (K.checker_config p ~max_crashes:0
       [
         [ K.txn_call p [ (0, b "A"); (1, b "B") ] ];
         [ K.get_call p 0 ];
         [ K.get_sync_call p 1 ];
       ])

let test_kvs_group_commit_holds () = Test_explore.expect C.kvs_async

(* The loss window is real: against the strict (lossless-crash) spec the
   same store is rejected — an acknowledged async put can vanish. *)
let test_kvs_strict_spec_rejected () = Test_explore.expect C.kvs_strict_spec

let test_kvs_lossy_spec_accepts_same_instance () =
  Verdict.check_holds "async put vs lossy crash spec"
    (K.checker_config p ~max_crashes:1 [ [ K.put_async_call p 0 (bv "A") ] ])

(* --- kvs: seeded bugs --- *)

let test_kvs_get_skip_buffer_caught () = Test_explore.expect C.kvs_skip_buffer

let test_kvs_record_first_caught () =
  Verdict.check_violated "kvs commit record before log entries"
    (K.checker_config p ~max_crashes:1
       [
         [
           K.put_call p 0 (bv "A");
           K.Buggy.txn_record_first p [ (0, b "C"); (1, b "D") ];
         ];
       ])

let test_kvs_no_log_caught () = Test_explore.expect C.kvs_txn_no_log
let test_kvs_recover_nop_caught () = Test_explore.expect C.kvs_recover_nop

(* --- kvs: proof outlines --- *)

let test_kvs_outlines_accepted () =
  List.iter
    (fun (name, result) ->
      match result with
      | O.Accepted _ -> ()
      | O.Rejected why -> Alcotest.failf "%s rejected: %s" name why)
    (KP.check ())

let test_kvs_buggy_outline_rejected () =
  match KP.check_buggy () with
  | O.Rejected _ -> ()
  | O.Accepted r -> Alcotest.failf "record-first outline accepted (%a)" O.pp_report r

let suite =
  [
    Alcotest.test_case "journal: commit applies" `Quick test_commit_applies;
    Alcotest.test_case "journal: recovery replays committed txn" `Quick
      test_recovery_replays_committed;
    Alcotest.test_case "journal: recovery ignores uncommitted txn" `Quick
      test_recovery_ignores_uncommitted;
    Alcotest.test_case "journal: recovery idempotent at every cut" `Quick
      test_recovery_idempotent;
    Alcotest.test_case "journal: refinement holds (commit || read)" `Quick
      test_journal_refinement_holds;
    Alcotest.test_case "journal: holds with crash during recovery" `Quick
      test_journal_crash_during_recovery;
    Alcotest.test_case "journal: record-before-log caught" `Quick
      test_journal_record_first_caught;
    Alcotest.test_case "journal: unlogged multi-write caught" `Quick
      test_journal_no_log_caught;
    Alcotest.test_case "journal: clear-before-replay recovery caught" `Quick
      test_journal_recover_clear_first_caught;
    Alcotest.test_case "kvs: put || get holds with crash" `Quick test_kvs_put_get_holds;
    Alcotest.test_case "kvs: txn holds with crash during recovery" `Quick
      test_kvs_txn_crash_during_recovery;
    Alcotest.test_case "kvs: txn vs concurrent gets holds" `Quick test_kvs_txn_vs_gets_holds;
    Alcotest.test_case "kvs: group commit holds with crash" `Quick test_kvs_group_commit_holds;
    Alcotest.test_case "kvs: strict crash spec rejected" `Quick test_kvs_strict_spec_rejected;
    Alcotest.test_case "kvs: lossy crash spec accepted" `Quick
      test_kvs_lossy_spec_accepts_same_instance;
    Alcotest.test_case "kvs: buffer-skipping get caught" `Quick test_kvs_get_skip_buffer_caught;
    Alcotest.test_case "kvs: record-before-log caught" `Quick test_kvs_record_first_caught;
    Alcotest.test_case "kvs: unjournaled txn caught" `Quick test_kvs_no_log_caught;
    Alcotest.test_case "kvs: nop recovery caught" `Quick test_kvs_recover_nop_caught;
    Alcotest.test_case "kvs proof: outlines accepted" `Quick test_kvs_outlines_accepted;
    Alcotest.test_case "kvs proof: record-first outline rejected" `Quick
      test_kvs_buggy_outline_rejected;
  ]
