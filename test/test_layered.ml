(* Tests for the WAL-over-replicated-disk composition: the full stack must
   tolerate a crash at any step plus one disk failure; dropping the inner
   layer's recovery must be caught. *)

module V = Tslang.Value
module R = Perennial_core.Refinement
module L = Systems.Layered

let vx = V.str "x" and vy = V.str "y"

let test_write_crash_no_failures () =
  Verdict.check_holds "layered write + crash"
    (L.checker_config ~may_fail:false ~max_crashes:1 [ [ L.write_call vx vy ] ])

let test_write_crash_with_failures () = Test_explore.expect Perennial_catalog.Catalog.layered

let test_crash_during_composed_recovery () =
  (* a crash inside either stage of the composed recovery must be safe *)
  Verdict.check_holds "crash during composed recovery"
    (L.checker_config ~may_fail:false ~max_crashes:2 [ [ L.write_call vx vy ] ])

let test_writer_reader () =
  Verdict.check_holds "layered writer/reader"
    (L.checker_config ~may_fail:false ~max_crashes:1
       [ [ L.write_call vx vy ]; [ L.read_call ] ])

let test_bug_missing_outer_recovery () =
  (* a crash mid-apply leaves a torn pair that only the WAL replay fixes *)
  match
    R.check
      (R.config ~spec:Systems.Wal.spec ~init_world:(L.init_world ~may_fail:false ())
         ~crash_world:L.crash_world ~pp_world:L.pp_world
         ~threads:[ [ L.write_call vx vy ] ]
         ~recovery:L.Buggy.recover_rd_only
         ~post:[ L.read_call; L.read_call ]
         ~max_crashes:1 ())
  with
  | R.Refinement_violated _ -> ()
  | R.Refinement_holds stats ->
    Alcotest.failf "missing wal replay not caught (%a)" R.pp_stats stats
  | R.Budget_exhausted stats -> Alcotest.failf "budget (%a)" R.pp_stats stats

let test_direct_execution () =
  (* plain run: write, fail disk 1, read back through failover *)
  let w0 = L.init_world ~may_fail:false () in
  let out = Sched.Runner.run w0 [ L.write_prog (V.str "p") (V.str "q") ] in
  let failed =
    { out.Sched.Runner.world with
      L.disks = Disk.Two_disk.fail out.Sched.Runner.world.L.disks Disk.Two_disk.D1
    }
  in
  let _, v = Sched.Runner.run1 failed L.read_prog in
  let a, b = V.get_pair v in
  Alcotest.(check bool) "failover read" true
    (V.equal a (V.str "p") && V.equal b (V.str "q"))

let suite =
  [
    Alcotest.test_case "write + crash" `Quick test_write_crash_no_failures;
    Alcotest.test_case "write + crash + disk failure" `Quick test_write_crash_with_failures;
    Alcotest.test_case "crash during composed recovery" `Quick test_crash_during_composed_recovery;
    Alcotest.test_case "writer/reader" `Quick test_writer_reader;
    Alcotest.test_case "bug: missing outer recovery" `Quick test_bug_missing_outer_recovery;
    Alcotest.test_case "direct execution with failover" `Quick test_direct_execution;
  ]
