(* Tests for the concurrent-recovery-refinement checker, driven by the
   replicated-disk system (paper §1, §3, §5).  The correct implementation
   must pass under exhaustive interleaving + crash + disk-failure
   exploration; each seeded bug must be rejected. *)

module V = Tslang.Value
module R = Perennial_core.Refinement
module C = Perennial_catalog.Catalog
module Rd = Systems.Replicated_disk

(* --- the correct replicated disk --- *)

let test_rd_sequential_no_crash () =
  (* One writer, no crash injection, no disk failure: the base case. *)
  let cfg =
    Rd.checker_config ~may_fail:false ~max_crashes:0 ~size:1
      [ [ Rd.write_call 0 (V.str "x") ] ]
  in
  let stats = Verdict.holds "sequential write" (R.check cfg) in
  Alcotest.(check bool) "sequential write: explored some executions" true (stats.R.executions > 0)

let test_rd_two_writers_same_addr () =
  let cfg =
    Rd.checker_config ~may_fail:false ~max_crashes:0 ~size:1
      [ [ Rd.write_call 0 (V.str "a") ]; [ Rd.write_call 0 (V.str "b") ] ]
  in
  let stats = Verdict.holds "two writers" (R.check cfg) in
  Alcotest.(check bool) "two writers: explored some executions" true (stats.R.executions > 0)

let test_rd_writer_reader_interleaved () =
  let cfg =
    Rd.checker_config ~may_fail:false ~max_crashes:0 ~size:1
      [ [ Rd.write_call 0 (V.str "a") ]; [ Rd.read_call 0 ] ]
  in
  let stats = Verdict.holds "writer/reader" (R.check cfg) in
  Alcotest.(check bool) "writer/reader: explored some executions" true (stats.R.executions > 0)

let test_rd_crash_during_write () =
  (* The headline check: crash at any point during a write, recovery copies
     d1 -> d2, probes must observe a consistent single disk. *)
  let cfg =
    Rd.checker_config ~may_fail:true ~max_crashes:1 ~size:1
      [ [ Rd.write_call 0 (V.str "x") ] ]
  in
  let stats = Verdict.holds "crash during write" (R.check cfg) in
  Alcotest.(check bool) "crash during write: explored some executions" true (stats.R.executions > 0)

let test_rd_crash_two_writers_failover () = Test_explore.expect C.rd_two_writers

let test_rd_crash_during_recovery () =
  (* max_crashes = 2 exercises crash-during-recovery (idempotence, §5.5). *)
  let cfg =
    Rd.checker_config ~may_fail:false ~max_crashes:2 ~size:1
      [ [ Rd.write_call 0 (V.str "x") ] ]
  in
  let stats = Verdict.holds "crash during recovery" (R.check cfg) in
  Alcotest.(check bool) "crash during recovery: explored some executions" true (stats.R.executions > 0)

let test_rd_two_addresses () =
  let cfg =
    Rd.checker_config ~may_fail:false ~max_crashes:1 ~size:2
      [ [ Rd.write_call 0 (V.str "a") ]; [ Rd.write_call 1 (V.str "b") ] ]
  in
  let stats = Verdict.holds "two addresses, independent locks" (R.check cfg) in
  Alcotest.(check bool) "two addresses, independent locks: explored some executions" true (stats.R.executions > 0)

let test_rd_sequenced_ops_per_thread () =
  (* A thread writes then reads its own write: session order respected. *)
  let cfg =
    Rd.checker_config ~may_fail:false ~max_crashes:0 ~size:1
      [ [ Rd.write_call 0 (V.str "a"); Rd.read_call 0 ];
        [ Rd.write_call 0 (V.str "b") ] ]
  in
  let stats = Verdict.holds "sequenced ops per thread" (R.check cfg) in
  Alcotest.(check bool) "sequenced ops per thread: explored some executions" true (stats.R.executions > 0)

(* --- seeded bugs must be rejected (E7) --- *)

let buggy_config ~recovery ?(may_fail = true) ?(max_crashes = 1) ~size threads =
  R.config ~spec:(Rd.spec size)
    ~init_world:(Rd.init_world ~may_fail size)
    ~crash_world:Rd.crash_world ~pp_world:Rd.pp_world ~threads ~recovery
    ~post:(Rd.probe size) ~max_crashes ()

let test_bug_no_recovery () = Test_explore.expect C.rd_nop_recovery

(* The paper's §1 example of wrong recovery: zero both disks. *)
let test_bug_zeroing_recovery () = Test_explore.expect C.rd_zero_recovery

let test_bug_partial_recovery () =
  let cfg =
    buggy_config ~recovery:(Rd.Buggy.recover_partial 2) ~size:2
      [ [ Rd.write_call 1 (V.str "x") ] ]
  in
  let r = R.check cfg in
  ignore (Verdict.violated "partial recovery misses address 1" r);
  Alcotest.(check bool) "partial recovery misses address 1: steps counted" true ((R.stats_of r).R.steps > 0)

(* Two lockless writers can install opposite orders on the two disks;
   a disk-1 failure between two probe reads exposes it. *)
let test_bug_unlocked_write () = Test_explore.expect C.rd_unlocked

let test_bug_early_unlock () =
  let cfg =
    buggy_config ~recovery:(Rd.recover_prog 1) ~may_fail:true ~max_crashes:0 ~size:1
      [ [ Rd.Buggy.write_call_early_unlock 0 (V.str "a") ];
        [ Rd.Buggy.write_call_early_unlock 0 (V.str "b") ] ]
  in
  let r = R.check cfg in
  ignore (Verdict.violated "early unlock" r);
  Alcotest.(check bool) "early unlock: steps counted" true ((R.stats_of r).R.steps > 0)

let test_bug_double_release_is_ub () =
  (* Releasing an un-held lock is code-level UB and must be flagged. *)
  let open Sched.Prog.Syntax in
  let bad_prog : (Rd.world, V.t) Sched.Prog.t =
    let* () = Rd.unlock 0 in
    Sched.Prog.return V.unit
  in
  let cfg =
    buggy_config ~recovery:(Rd.recover_prog 1) ~may_fail:false ~max_crashes:0 ~size:1
      [ [ (Tslang.Spec.call "rd_read" [ V.int 0 ], bad_prog) ] ]
  in
  match R.check cfg with
  | R.Refinement_violated (f, _) ->
    Alcotest.(check bool) "mentions UB" true
      (Astring_contains.contains f.R.reason "undefined")
  | _ -> Alcotest.fail "double release not caught"

(* --- counterexample quality --- *)

let test_trace_contents () =
  (* the zeroing-recovery counterexample must tell the whole story: the
     write, the crash, the recovery steps, and the violating probe read *)
  match C.run C.rd_zero_recovery with
  | R.Refinement_violated (f, _) ->
    let whole = String.concat "\n" (List.map (fun e -> e.R.ev_text) f.R.events) in
    Alcotest.(check bool) "mentions the write" true
      (Astring_contains.contains whole "disk_write");
    Alcotest.(check bool) "mentions the crash" true (Astring_contains.contains whole "CRASH");
    Alcotest.(check bool) "mentions recovery" true
      (Astring_contains.contains whole "recovery:");
    Alcotest.(check bool) "ends at the probe" true (Astring_contains.contains whole "post");
    Alcotest.(check bool) "reason names the value" true
      (Astring_contains.contains f.R.reason "returning")
  | _ -> Alcotest.fail "expected a violation"

let test_stats_accounting () =
  (* sanity relations on the statistics of a passing run *)
  let cfg =
    Rd.checker_config ~may_fail:false ~max_crashes:1 ~size:1
      [ [ Rd.write_call 0 (V.str "x") ] ]
  in
  match R.check cfg with
  | R.Refinement_holds s ->
    Alcotest.(check bool) "steps >= executions" true (s.R.steps >= s.R.executions);
    Alcotest.(check bool) "crashes counted" true (s.R.crashes_injected > 0);
    Alcotest.(check bool) "candidates bounded" true
      (s.R.max_candidates >= 1 && s.R.max_candidates < 100);
    Alcotest.(check bool) "frontier depth tracked" true (s.R.frontier_hwm > 0);
    Alcotest.(check bool) "frontier no deeper than total steps" true
      (s.R.frontier_hwm <= s.R.steps)
  | _ -> Alcotest.fail "expected pass"

let test_structured_events () =
  (* the counterexample's structured events must be renderable as lanes
     and as a Chrome trace document *)
  match C.run C.rd_zero_recovery with
  | R.Refinement_violated (f, _) ->
    Alcotest.(check bool) "events present" true (f.R.events <> []);
    Alcotest.(check bool) "a crash event is structured" true
      (List.exists (fun e -> e.R.ev_kind = R.Crash) f.R.events);
    Alcotest.(check bool) "main-phase events carry a thread id" true
      (List.exists
         (fun e -> e.R.ev_phase = R.Main && e.R.ev_tid <> None)
         f.R.events);
    let lanes = Fmt.str "%a" R.pp_failure_lanes f in
    Alcotest.(check bool) "lanes mention t0" true (Astring_contains.contains lanes "t0");
    (* the Chrome export must survive a JSON round-trip *)
    let doc = Obs.Json.to_string (R.failure_chrome f) in
    (match Obs.Json.of_string doc with
    | Ok (Obs.Json.Obj fields) ->
      (match List.assoc_opt "traceEvents" fields with
      | Some (Obs.Json.Arr evs) ->
        Alcotest.(check int) "one trace event per failure event"
          (List.length f.R.events) (List.length evs)
      | _ -> Alcotest.fail "no traceEvents array")
    | Ok _ -> Alcotest.fail "chrome doc is not an object"
    | Error e -> Alcotest.failf "chrome doc does not parse: %s" e)
  | _ -> Alcotest.fail "expected a violation"

let test_check_exn_messages () =
  (* the two check_exn failure modes must be distinguishable by prefix and
     both must include the rendered stats *)
  (match C.on_config { f = (fun c -> R.check_exn c) } C.rd_nop_recovery with
  | _ -> Alcotest.fail "expected check_exn to raise on a violation"
  | exception Failure msg ->
    Alcotest.(check bool) "violation prefix" true
      (String.length msg > 20 && String.sub msg 0 20 = "Refinement_violated:");
    Alcotest.(check bool) "violation includes stats" true
      (Astring_contains.contains msg "executions="));
  let starved =
    Rd.checker_config ~may_fail:false ~max_crashes:1 ~size:1
      [ [ Rd.write_call 0 (V.str "x") ] ]
  in
  let starved = { starved with R.step_budget = 3 } in
  match R.check_exn starved with
  | _ -> Alcotest.fail "expected check_exn to raise on budget exhaustion"
  | exception Failure msg ->
    Alcotest.(check bool) "budget prefix" true
      (String.length msg > 17 && String.sub msg 0 17 = "Budget_exhausted:");
    Alcotest.(check bool) "budget includes stats" true
      (Astring_contains.contains msg "steps=")

(* --- deadlock detection --- *)

let test_deadlock_detected () =
  let open Sched.Prog.Syntax in
  (* Two threads acquiring two locks in opposite orders. *)
  let t1 : (Rd.world, V.t) Sched.Prog.t =
    let* () = Rd.lock 0 in
    let* () = Rd.lock 1 in
    let* () = Rd.unlock 1 in
    let* () = Rd.unlock 0 in
    Sched.Prog.return V.unit
  in
  let t2 : (Rd.world, V.t) Sched.Prog.t =
    let* () = Rd.lock 1 in
    let* () = Rd.lock 0 in
    let* () = Rd.unlock 0 in
    let* () = Rd.unlock 1 in
    Sched.Prog.return V.unit
  in
  let cfg =
    R.config ~spec:(Rd.spec 2)
      ~init_world:(Rd.init_world ~may_fail:false 2)
      ~crash_world:Rd.crash_world ~pp_world:Rd.pp_world
      ~threads:
        [ [ (Tslang.Spec.call "rd_write" [ V.int 0; V.str "0" ], t1) ];
          [ (Tslang.Spec.call "rd_write" [ V.int 1; V.str "0" ], t2) ] ]
      ~recovery:(Rd.recover_prog 2) ~max_crashes:0 ()
  in
  (match R.check cfg with
  | R.Refinement_violated (f, _) ->
    Alcotest.(check bool) "mentions deadlock" true
      (Astring_contains.contains f.R.reason "deadlock")
  | _ -> Alcotest.fail "deadlock not detected")

let suite =
  [
    Alcotest.test_case "rd: sequential write" `Quick test_rd_sequential_no_crash;
    Alcotest.test_case "rd: two writers same addr" `Quick test_rd_two_writers_same_addr;
    Alcotest.test_case "rd: writer/reader" `Quick test_rd_writer_reader_interleaved;
    Alcotest.test_case "rd: crash during write" `Quick test_rd_crash_during_write;
    Alcotest.test_case "rd: crash + 2 writers + failover" `Slow test_rd_crash_two_writers_failover;
    Alcotest.test_case "rd: crash during recovery" `Quick test_rd_crash_during_recovery;
    Alcotest.test_case "rd: two addresses" `Quick test_rd_two_addresses;
    Alcotest.test_case "rd: sequenced ops per thread" `Quick test_rd_sequenced_ops_per_thread;
    Alcotest.test_case "bug: no recovery" `Quick test_bug_no_recovery;
    Alcotest.test_case "bug: zeroing recovery" `Quick test_bug_zeroing_recovery;
    Alcotest.test_case "bug: partial recovery" `Quick test_bug_partial_recovery;
    Alcotest.test_case "bug: unlocked writes" `Quick test_bug_unlocked_write;
    Alcotest.test_case "bug: early unlock" `Quick test_bug_early_unlock;
    Alcotest.test_case "bug: double release is UB" `Quick test_bug_double_release_is_ub;
    Alcotest.test_case "deadlock detected" `Quick test_deadlock_detected;
    Alcotest.test_case "counterexample trace contents" `Quick test_trace_contents;
    Alcotest.test_case "structured counterexample events" `Quick test_structured_events;
    Alcotest.test_case "check_exn distinct messages" `Quick test_check_exn_messages;
    Alcotest.test_case "stats accounting" `Quick test_stats_accounting;
  ]
