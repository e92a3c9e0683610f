(* Tests for the cached-block system: the §5.2 versioned-memory study.
   Both checkers verify the honest implementation; the stale-cache and
   no-repopulation bugs are rejected; the proof-level variants show why
   the lock invariant must couple memory to disk. *)

module V = Tslang.Value
module R = Perennial_core.Refinement
module O = Perennial_core.Outline
module A = Seplogic.Assertion
module Sv = Seplogic.Sval
module Cb = Systems.Cached_block
module Cp = Systems.Cached_proof

(* --- refinement --- *)

let test_put_get_crash () = Test_explore.expect Perennial_catalog.Catalog.cached_block

let test_two_writers () =
  Verdict.check_holds "two writers"
    (Cb.checker_config ~max_crashes:1
       [ [ Cb.put_call (V.str "a") ]; [ Cb.put_call (V.str "b") ] ])

let test_crash_during_recovery () =
  Verdict.check_holds "crash during recovery"
    (Cb.checker_config ~max_crashes:2 [ [ Cb.put_call (V.str "x") ] ])

let test_bug_stale_cache () =
  (* no crash needed: the read-back probe sees the stale cache *)
  Verdict.check_violated "stale cache"
    (Cb.checker_config ~max_crashes:0 [ [ Cb.Buggy.put_call_no_cache_update (V.str "x") ] ])

let test_bug_no_repopulation () =
  (* the probe's cache read after recovery is UB *)
  Verdict.check_violated "recovery skips repopulation"
    (R.config ~spec:Cb.spec ~init_world:(Cb.init_world ()) ~crash_world:Cb.crash_world
       ~pp_world:Cb.pp_world
       ~threads:[ [ Cb.put_call (V.str "x") ] ]
       ~recovery:Cb.Buggy.recover_nop ~post:[ Cb.get_call ] ~max_crashes:1 ())

(* --- outlines --- *)

let test_proof_accepted () =
  List.iter
    (fun (name, r) ->
      match r with
      | O.Accepted _ -> ()
      | O.Rejected why -> Alcotest.failf "%s rejected: %s" name why)
    (Cp.check ())

let expect_reject name substring result =
  match result with
  | O.Rejected why ->
    if not (Astring_contains.contains why substring) then
      Alcotest.failf "%s rejected for the wrong reason: %s" name why
  | O.Accepted r -> Alcotest.failf "%s unexpectedly accepted (%a)" name O.pp_report r

(* Decoupling the lock invariant (cache value unrelated to the lease) makes
   the get outline unprovable: the memory value can no longer be shown to
   be the abstract one. *)
let test_proof_needs_coupling () =
  let decoupled =
    { Cp.system with
      O.lock_invs =
        [ (0, [ A.heap [ A.lease "blk" (Sv.var "v"); A.pts "cache" (Sv.var "u") ] ]) ];
    }
  in
  expect_reject "decoupled lock invariant" "post-condition"
    (O.check_op decoupled Cp.get_outline)

(* Recovery that skips the allocation cannot re-establish the lock
   invariant: the fresh version has no cache ↦ v capability. *)
let test_proof_needs_allocation () =
  let broken =
    {
      O.r_body =
        [ O.Synthesize "blk"; O.Read_durable { loc = "blk"; bind = "r" }; O.Crash_step ];
    }
  in
  expect_reject "recovery without allocation" "abstraction relation"
    (O.check_recovery Cp.system broken)

(* A put that skips the cache update cannot release the lock: the coupling
   no longer holds — the proof-level shadow of the stale-cache bug. *)
let test_proof_stale_cache () =
  let outline =
    { Cp.put_outline with
      O.o_body =
        [
          O.Acquire 0;
          O.Open_inv
            {
              name = "cb";
              body =
                [
                  O.Write_durable { loc = "blk"; value = Sv.var "v" };
                  O.Simulate { op = "put"; args = [ Sv.var "v" ]; bind_ret = "ret" };
                ];
            };
          O.Release 0;
        ];
    }
  in
  expect_reject "put without cache update" "lock invariant" (O.check_op Cp.system outline)

(* A memory write without owning the points-to is rejected. *)
let test_proof_unlocked_cache_write () =
  let outline =
    { Cp.put_outline with
      O.o_body = [ O.Write_mem { ptr = "cache"; value = Sv.var "v" } ];
    }
  in
  expect_reject "unlocked cache write" "without p" (O.check_op Cp.system outline)

let suite =
  [
    Alcotest.test_case "refinement: put+get with crash" `Quick test_put_get_crash;
    Alcotest.test_case "refinement: two writers" `Quick test_two_writers;
    Alcotest.test_case "refinement: crash during recovery" `Quick test_crash_during_recovery;
    Alcotest.test_case "bug: stale cache" `Quick test_bug_stale_cache;
    Alcotest.test_case "bug: no repopulation" `Quick test_bug_no_repopulation;
    Alcotest.test_case "proof accepted" `Quick test_proof_accepted;
    Alcotest.test_case "proof: coupling required" `Quick test_proof_needs_coupling;
    Alcotest.test_case "proof: allocation required" `Quick test_proof_needs_allocation;
    Alcotest.test_case "proof: stale cache caught" `Quick test_proof_stale_cache;
    Alcotest.test_case "proof: unowned memory write" `Quick test_proof_unlocked_cache_write;
  ]
