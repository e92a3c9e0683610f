(* Tests for the §9.1 crash-safety pattern systems: shadow copy, write-ahead
   log, group commit — refinement-checked exhaustively, with seeded bugs
   rejected — and the WAL proof outlines (recovery helping). *)

module V = Tslang.Value
module R = Perennial_core.Refinement
module O = Perennial_core.Outline
module C = Perennial_catalog.Catalog
module Sc = Systems.Shadow_copy
module W = Systems.Wal
module Gc = Systems.Group_commit

let vx = V.str "x"
let vy = V.str "y"

(* --- shadow copy --- *)

let test_shadow_write_crash () =
  Verdict.check_holds "shadow write with crash"
    (Sc.checker_config ~max_crashes:1 [ [ Sc.write_call vx vy ] ])

let test_shadow_two_writers () =
  Verdict.check_holds "shadow two writers"
    (Sc.checker_config ~max_crashes:1
       [ [ Sc.write_call vx vy ]; [ Sc.write_call vy vx ] ])

let test_shadow_writer_reader () = Test_explore.expect C.shadow_copy

let test_shadow_seq_writes () =
  Verdict.check_holds "shadow sequential writes"
    (Sc.checker_config ~max_crashes:1
       [ [ Sc.write_call vx vx; Sc.write_call vy vy ] ])

let test_shadow_bug_in_place () = Test_explore.expect C.shadow_in_place

let test_shadow_bug_flip_first () =
  Verdict.check_violated "shadow flip-before-fill"
    (Sc.checker_config ~max_crashes:1 [ [ Sc.Buggy.write_call_flip_first vx vy ] ])

(* --- write-ahead log --- *)

let test_wal_write_crash () =
  Verdict.check_holds "wal write with crash"
    (W.checker_config ~max_crashes:1 [ [ W.write_call vx vy ] ])

let test_wal_crash_during_recovery () = Test_explore.expect C.wal_recovery

let test_wal_writer_reader () =
  Verdict.check_holds "wal writer/reader"
    (W.checker_config ~max_crashes:1 [ [ W.write_call vx vy ]; [ W.read_call ] ])

let test_wal_bug_no_log () = Test_explore.expect C.wal_no_log
let test_wal_bug_commit_first () = Test_explore.expect C.wal_commit_first

(* Needs two crashes: one mid-apply, one mid-(broken)-recovery. *)
let test_wal_bug_recover_clear_first () = Test_explore.expect C.wal_clear_first

let test_wal_bug_recover_nop () =
  Verdict.check_violated "wal no recovery"
    (Perennial_core.Refinement.config ~spec:W.spec ~init_world:(W.init_world ())
       ~crash_world:W.crash_world ~pp_world:W.pp_world
       ~threads:[ [ W.write_call vx vy ] ]
       ~recovery:W.Buggy.recover_nop ~post:[ W.read_call ] ~max_crashes:1 ())

(* --- group commit --- *)

let test_gc_write_flush_crash () = Test_explore.expect C.group_commit

let test_gc_concurrent_writers () =
  Verdict.check_holds "group commit concurrent writers"
    (Gc.checker_config ~max_crashes:1
       [ [ Gc.write_call vx vx ]; [ Gc.write_call vy vy; Gc.flush_call ] ])

let test_gc_reader () =
  Verdict.check_holds "group commit reader sees buffered"
    (Gc.checker_config ~max_crashes:0 [ [ Gc.write_call vx vy ]; [ Gc.read_call ] ])

let test_gc_strict_spec_rejected () =
  (* Against a crash spec that forbids losing buffered transactions, the
     implementation must fail — this is what the lossy spec exists for. *)
  Test_explore.expect C.gc_strict_spec

let test_gc_lossy_spec_holds () =
  Verdict.check_holds "group commit vs lossy spec"
    (Gc.checker_config ~max_crashes:1 [ [ Gc.write_call vx vy ] ])

(* --- WAL proof outlines --- *)

let test_wal_proof_accepted () =
  List.iter
    (fun (name, r) ->
      match r with
      | O.Accepted _ -> ()
      | O.Rejected why -> Alcotest.failf "wal %s rejected: %s" name why)
    (Systems.Wal_proof.check ())

let test_wal_proof_helping_required () =
  (* Remove the Simulate from recovery's replay path: the flag can no longer
     be cleared because the abstract state cannot match the disks. *)
  let broken =
    {
      O.r_body =
        [
          O.Synthesize "data0"; O.Synthesize "data1"; O.Synthesize "flag";
          O.Synthesize "log0"; O.Synthesize "log1";
          O.Read_durable { loc = "flag"; bind = "f" };
          O.Read_durable { loc = "log0"; bind = "r0" };
          O.Read_durable { loc = "log1"; bind = "r1" };
          O.Choice
            [
              [
                O.Atomic [ O.Write_durable { loc = "data0"; value = Seplogic.Sval.var "r0" } ];
                O.Atomic [ O.Write_durable { loc = "data1"; value = Seplogic.Sval.var "r1" } ];
                O.Atomic [ O.Write_durable { loc = "flag"; value = Seplogic.Sval.str "e" } ];
              ];
              [];
            ];
          O.Crash_step;
        ];
    }
  in
  match O.check_recovery Systems.Wal_proof.system broken with
  | O.Rejected _ -> ()
  | O.Accepted r ->
    Alcotest.failf "recovery without helping unexpectedly accepted (%a)" O.pp_report r

let suite =
  [
    Alcotest.test_case "shadow: write with crash" `Quick test_shadow_write_crash;
    Alcotest.test_case "shadow: two writers" `Quick test_shadow_two_writers;
    Alcotest.test_case "shadow: writer/reader" `Quick test_shadow_writer_reader;
    Alcotest.test_case "shadow: sequential writes" `Quick test_shadow_seq_writes;
    Alcotest.test_case "shadow bug: in-place write" `Quick test_shadow_bug_in_place;
    Alcotest.test_case "shadow bug: flip before fill" `Quick test_shadow_bug_flip_first;
    Alcotest.test_case "wal: write with crash" `Quick test_wal_write_crash;
    Alcotest.test_case "wal: crash during recovery" `Quick test_wal_crash_during_recovery;
    Alcotest.test_case "wal: writer/reader" `Quick test_wal_writer_reader;
    Alcotest.test_case "wal bug: no log" `Quick test_wal_bug_no_log;
    Alcotest.test_case "wal bug: commit before log" `Quick test_wal_bug_commit_first;
    Alcotest.test_case "wal bug: recovery clears flag first" `Quick test_wal_bug_recover_clear_first;
    Alcotest.test_case "wal bug: no recovery" `Quick test_wal_bug_recover_nop;
    Alcotest.test_case "gc: write+flush with crash" `Quick test_gc_write_flush_crash;
    Alcotest.test_case "gc: concurrent writers" `Quick test_gc_concurrent_writers;
    Alcotest.test_case "gc: reader sees buffered" `Quick test_gc_reader;
    Alcotest.test_case "gc: strict spec rejected" `Quick test_gc_strict_spec_rejected;
    Alcotest.test_case "gc: lossy spec holds" `Quick test_gc_lossy_spec_holds;
    Alcotest.test_case "wal proof accepted" `Quick test_wal_proof_accepted;
    Alcotest.test_case "wal proof: helping required" `Quick test_wal_proof_helping_required;
  ]
