(* The fault-injection layer end to end:
   - the runner's injection oracle ([?fault_schedule]);
   - exhaustive fault×crash refinement for the retry/degradation paths of
     the replicated disk, the journal and the KV store (fault budget 2);
   - the three seeded fault-handling bugs, each caught with the injected
     fault visible in the counterexample;
   - one golden fault counterexample, byte-for-byte identical under all
     three exploration strategies;
   - the [?max_seconds] wall-clock budget. *)

module V = Tslang.Value
module R = Perennial_core.Refinement
module E = Perennial_core.Explore
module C = Perennial_catalog.Catalog
module F = Sched.Fault
module RD = Systems.Replicated_disk
module Block = Disk.Block

let bv s = Block.to_value (Block.of_string s)

(* ------------------------------------------------------------------ *)
(* The runner's injection oracle                                        *)
(* ------------------------------------------------------------------ *)

let test_runner_oracle () =
  let w = RD.init_world 1 in
  (* no schedule: the fallible read behaves like the plain one *)
  let o = Sched.Runner.run w [ RD.read_ft_prog 0 ] in
  Alcotest.(check bool) "clean run reads zero" true (o.Sched.Runner.results.(0) = bv "0");
  Alcotest.(check bool) "no faults fired" true (o.Sched.Runner.injected = []);
  (* inject Read_error at the first fault site: the op retries and succeeds *)
  let o =
    Sched.Runner.run ~fault_schedule:[ { F.at = 0; kind = F.Read_error } ] w
      [ RD.read_ft_prog 0 ]
  in
  Alcotest.(check bool) "retried read still succeeds" true (o.Sched.Runner.results.(0) = bv "0");
  Alcotest.(check bool) "one fault fired" true
    (o.Sched.Runner.injected = [ { F.at = 0; kind = F.Read_error } ]);
  (* injections naming an undeclared kind are skipped *)
  let o =
    Sched.Runner.run ~fault_schedule:[ { F.at = 0; kind = F.Torn_write 7 } ] w
      [ RD.read_ft_prog 0 ]
  in
  Alcotest.(check bool) "undeclared kind skipped" true (o.Sched.Runner.injected = [])

(* ------------------------------------------------------------------ *)
(* Retry/degradation paths hold under exhaustive fault x crash          *)
(* ------------------------------------------------------------------ *)

let test_rd_ft_holds () =
  let stats = Verdict.holds "rd ft read || write, faults 2, 1 crash" (C.run C.rd_ft) in
  Alcotest.(check bool) "faults were injected" true (stats.R.faults_injected > 0);
  Alcotest.(check bool) "distinct schedules counted" true (stats.R.fault_schedules > 1);
  Alcotest.(check bool) "retries observed" true (stats.R.retries_observed > 0)

let test_journal_ft_holds () =
  let stats = Verdict.holds "journal commit_ft || read_ft, faults 2, 1 crash" (C.run C.journal_ft) in
  Alcotest.(check bool) "faults were injected" true (stats.R.faults_injected > 0);
  Alcotest.(check bool) "retries observed" true (stats.R.retries_observed > 0)

let test_kvs_ft_holds () =
  let stats = Verdict.holds "kvs put_ft + get_ft, faults 2, 1 crash" (C.run C.kvs_ft) in
  Alcotest.(check bool) "faults were injected" true (stats.R.faults_injected > 0)

(* The fault branches compose with DPOR: every strategy agrees with naive
   on the verdict for the fault-tolerant instances. *)
let test_ft_strategies_agree () =
  List.iter
    (fun strategy ->
      ignore
        (Verdict.holds
           (Printf.sprintf "rd ft under %s" (E.strategy_name strategy))
           (C.run ~strategy C.rd_ft)))
    E.all_strategies

(* ------------------------------------------------------------------ *)
(* Seeded fault-handling bugs                                           *)
(* ------------------------------------------------------------------ *)

(* A seeded fault bug, at fault budget 1 unless given, is caught with the
   injected fault visible in the counterexample lanes. *)
let caught ?strategy ?(faults = 1) inst =
  let name =
    Printf.sprintf "%s at budget %d" (C.name inst) faults
    ^ match strategy with None -> "" | Some s -> " under " ^ E.strategy_name s
  in
  let f = Verdict.violated name (C.run ?strategy ~faults inst) in
  Alcotest.(check bool)
    (name ^ ": injected fault visible in lanes")
    true
    (Astring_contains.contains (Fmt.str "%a" R.pp_failure_lanes f) "FAULT")

(* Bug #1: a transient read error answered from the zero-filled buffer
   instead of retrying — one Read_error against non-zero data refutes it. *)
let test_rd_no_retry_caught () = caught C.rd_no_retry

(* Bug #2: a torn log write treated as committed — the record points at
   half-written slots, and a crash makes recovery replay the garbage. *)
let test_journal_torn_commit_caught () = caught C.journal_torn

(* Bug #3: a write error swallowed mid-apply — the put reports success with
   the key never written and recovery already disarmed. *)
let test_kvs_swallow_apply_caught () = caught C.kvs_swallow

(* All three bugs are strategy-independent, and still show the fault at
   [perennial_check faults]' default budget of 2. *)
let test_bugs_all_strategies () =
  List.iter
    (fun strategy ->
      List.iter
        (fun faults ->
          List.iter (caught ~strategy ~faults) C.[ rd_no_retry; journal_torn; kvs_swallow ])
        [ 1; 2 ])
    E.all_strategies

(* ------------------------------------------------------------------ *)
(* Golden fault counterexample (all three strategies)                   *)
(* ------------------------------------------------------------------ *)

let test_golden_fault_counterexample () = Golden.lanes ~faults:1 C.rd_no_retry

(* ------------------------------------------------------------------ *)
(* Wall-clock budget                                                    *)
(* ------------------------------------------------------------------ *)

let test_max_seconds () =
  (* a zero budget exhausts on the first poll of a non-trivial instance *)
  (match
     R.check ~max_seconds:0.
       (RD.checker_config ~size:2 ~max_crashes:1
          [ [ RD.write_call 0 (bv "x") ]; [ RD.read_call 0 ] ])
   with
  | R.Budget_exhausted _ -> ()
  | R.Refinement_holds _ | R.Refinement_violated _ ->
    Alcotest.fail "expected Budget_exhausted under max_seconds:0.");
  (* check_exn surfaces it with the Budget_exhausted: prefix *)
  (try
     ignore
       (R.check_exn ~max_seconds:0.
          (RD.checker_config ~size:2 ~max_crashes:1
             [ [ RD.write_call 0 (bv "x") ]; [ RD.read_call 0 ] ]));
     Alcotest.fail "expected Failure"
   with Failure msg ->
     Alcotest.(check bool) "prefixed" true (Astring_contains.contains msg "Budget_exhausted:"));
  (* random walks honour the config's budget too *)
  (match
     R.check_random ~schedules:200
       { (RD.checker_config ~size:2 ~max_crashes:1
            [ [ RD.write_call 0 (bv "x") ]; [ RD.read_call 0 ] ])
         with R.max_seconds = Some 0. }
   with
  | R.Budget_exhausted _ -> ()
  | R.Refinement_holds _ | R.Refinement_violated _ ->
    Alcotest.fail "expected Budget_exhausted from check_random under max_seconds:0.");
  (* a generous budget changes nothing *)
  ignore
    (Verdict.holds "holds under generous max_seconds"
       (R.check ~max_seconds:300.
          (RD.checker_config ~size:1 ~max_crashes:0 [ [ RD.read_call 0 ] ])))

let suite =
  [
    Alcotest.test_case "runner: injection oracle" `Quick test_runner_oracle;
    Alcotest.test_case "rd: ft ops hold (faults 2, crash)" `Quick test_rd_ft_holds;
    Alcotest.test_case "journal: ft commit holds (faults 2, crash)" `Quick
      test_journal_ft_holds;
    Alcotest.test_case "kvs: ft ops hold (faults 2, crash)" `Quick test_kvs_ft_holds;
    Alcotest.test_case "ft: all strategies agree" `Quick test_ft_strategies_agree;
    Alcotest.test_case "bug: rd retry-without-re-read caught" `Quick test_rd_no_retry_caught;
    Alcotest.test_case "bug: torn commit record caught" `Quick test_journal_torn_commit_caught;
    Alcotest.test_case "bug: swallowed apply error caught" `Quick test_kvs_swallow_apply_caught;
    Alcotest.test_case "bugs: caught under every strategy" `Quick test_bugs_all_strategies;
    Alcotest.test_case "golden: fault counterexample" `Quick test_golden_fault_counterexample;
    Alcotest.test_case "max_seconds: wall-clock budget" `Quick test_max_seconds;
  ]
