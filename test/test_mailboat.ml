(* Tests for the Mailboat core (§8): exhaustive refinement checks of
   deliver/pickup/delete with crashes and recovery, plus the §9.5 seeded
   bugs. *)

module V = Tslang.Value
module R = Perennial_core.Refinement
module M = Mailboat.Core
module SMap = Map.Make (String)

(* A world and matching spec state with one message pre-delivered. *)
let seeded_world_and_state ~users u id msg =
  let w = M.init_world ~users () in
  let fs = w.M.fs in
  let fs, fd = Option.get (Gfs.Fs.create fs (M.user_dir u) id) in
  let fs = Option.get (Gfs.Fs.append fs fd msg) in
  let fs = Option.get (Gfs.Fs.close fs fd) in
  let st =
    SMap.add (M.user_dir u) (SMap.singleton id msg) (M.spec_init ~users)
  in
  ({ w with M.fs }, st)

(* --- the real Mailboat --- *)

let test_deliver_crash () = Test_explore.expect Perennial_catalog.Catalog.mailboat_deliver

let test_deliver_pickup_concurrent () =
  (* §8.2 Pickup/Deliver: concurrent delivery during a pickup session. *)
  Verdict.check_holds "deliver concurrent with pickup"
    (M.checker_config ~users:1 ~max_crashes:0
       [ [ M.deliver_call 0 "ab" ]; [ M.pickup_call 0; M.unlock_call 0 ] ])

let test_two_delivers_same_user () =
  (* §8.2 Deliver/Deliver: random IDs with collision retry. *)
  Verdict.check_holds "two delivers same user"
    (M.checker_config ~users:1 ~max_crashes:0
       [ [ M.deliver_call 0 "ab" ]; [ M.deliver_call 0 "cd" ] ])

let test_pickup_delete_session () =
  let w, st = seeded_world_and_state ~users:1 0 "m0" "hi" in
  let spec = { (M.spec ~users:1) with Tslang.Spec.init = st } in
  Verdict.check_holds "pickup/delete session"
    (R.config ~spec ~init_world:w ~crash_world:M.crash_world ~pp_world:M.pp_world
       ~threads:
         [ [ M.pickup_call 0; M.delete_call 0 "m0"; M.unlock_call 0 ] ]
       ~recovery:M.recover_prog
       ~post:[ M.pickup_call 0; M.unlock_call 0 ]
       ~max_crashes:1 ())

let test_delete_vs_deliver () =
  let w, st = seeded_world_and_state ~users:1 0 "m0" "hi" in
  let spec = { (M.spec ~users:1) with Tslang.Spec.init = st } in
  Verdict.check_holds "delete concurrent with deliver"
    (R.config ~spec ~init_world:w ~crash_world:M.crash_world ~pp_world:M.pp_world
       ~threads:
         [ [ M.pickup_call 0; M.delete_call 0 "m0"; M.unlock_call 0 ];
           [ M.deliver_call 0 "xy" ] ]
       ~recovery:M.recover_prog
       ~post:[ M.pickup_call 0; M.unlock_call 0 ]
       ~max_crashes:0 ())

let test_two_users_isolated () =
  Verdict.check_holds "two users isolated"
    (M.checker_config ~users:2 ~max_crashes:0
       [ [ M.deliver_call 0 "ab" ]; [ M.deliver_call 1 "cd" ] ])

let test_crash_during_recovery () =
  Verdict.check_holds "crash during recovery"
    (M.checker_config ~users:1 ~max_crashes:2 [ [ M.deliver_call 0 "ab" ] ])

(* After a crash, recovery must leave the spool empty (not part of the
   refinement spec — checked directly, as the paper notes this is a
   space-freeing guarantee, not correctness). *)
let test_recovery_cleans_spool () =
  let w = M.init_world ~users:1 () in
  (* run a deliver halfway: create + append, then "crash" *)
  let fs = w.M.fs in
  let fs, fd = Option.get (Gfs.Fs.create fs M.spool "tmp-m0") in
  let fs = Option.get (Gfs.Fs.append fs fd "ab") in
  let crashed = M.crash_world { w with M.fs } in
  let final, v = Sched.Runner.run1 crashed M.recover_prog in
  Alcotest.(check bool) "recovery returns" true (V.equal v V.unit);
  Alcotest.(check (list string)) "spool empty" [] (Gfs.Fs.list_dir final.M.fs M.spool)

(* --- seeded bugs (§9.5) --- *)

let test_bug_unspooled_deliver () =
  (* Without spooling, a crash mid-write leaves a partial message visible. *)
  Test_explore.expect Perennial_catalog.Catalog.mailboat_unspooled

let test_bug_unspooled_deliver_concurrent_pickup () =
  (* Even without crashes, a concurrent pickup can read half a message. *)
  Verdict.check_violated "unspooled deliver vs pickup"
    (M.checker_config ~users:1 ~max_crashes:0
       [ [ M.Buggy.deliver_call_unspooled 0 "abcd" ];
         [ M.pickup_call 0; M.unlock_call 0 ] ])

let test_bug_unlocked_pickup () =
  (* Pickup without the user lock races with a delete session. *)
  let w, st = seeded_world_and_state ~users:1 0 "m0" "hi" in
  let spec = { (M.spec ~users:1) with Tslang.Spec.init = st } in
  Verdict.check_violated "unlocked pickup"
    (R.config ~spec ~init_world:w ~crash_world:M.crash_world ~pp_world:M.pp_world
       ~threads:
         [ [ M.pickup_call 0; M.delete_call 0 "m0"; M.unlock_call 0 ];
           [ M.Buggy.pickup_call_unlocked 0 ] ]
       ~recovery:M.recover_prog ~max_crashes:0 ())

let test_bug_recover_wrong_dir () =
  (* Recovery that clears mailboxes destroys delivered mail. *)
  Test_explore.expect Perennial_catalog.Catalog.mailboat_wrong_dir

let test_bug_pickup_infinite_loop () =
  (* The paper's >512-byte bug: direct execution exceeds any step budget
     once a message spans more than one chunk. *)
  let w, _ = seeded_world_and_state ~users:1 0 "m0" "abcdef" in
  match Sched.Runner.run ~max_steps:5_000 w [ M.Buggy.pickup_infinite_loop 0 ] with
  | exception Failure msg ->
    Alcotest.(check bool) "diverges" true
      (Astring_contains.contains msg "step budget")
  | _ -> Alcotest.fail "infinite pickup loop terminated?"

let test_ok_pickup_long_message () =
  (* The fixed pickup handles multi-chunk messages. *)
  let w, _ = seeded_world_and_state ~users:1 0 "m0" "abcdef" in
  let _, v = Sched.Runner.run1 w (M.pickup_prog 0) in
  match V.get_list v with
  | [ one ] ->
    let id, contents = V.get_pair one in
    Alcotest.(check string) "id" "m0" (V.get_str id);
    Alcotest.(check string) "contents" "abcdef" (V.get_str contents)
  | _ -> Alcotest.fail "expected exactly one message"

let suite =
  [
    Alcotest.test_case "deliver with crash" `Quick test_deliver_crash;
    Alcotest.test_case "deliver || pickup" `Quick test_deliver_pickup_concurrent;
    Alcotest.test_case "deliver || deliver" `Quick test_two_delivers_same_user;
    Alcotest.test_case "pickup/delete session" `Quick test_pickup_delete_session;
    Alcotest.test_case "delete || deliver" `Quick test_delete_vs_deliver;
    Alcotest.test_case "two users isolated" `Quick test_two_users_isolated;
    Alcotest.test_case "crash during recovery" `Quick test_crash_during_recovery;
    Alcotest.test_case "recovery cleans spool" `Quick test_recovery_cleans_spool;
    Alcotest.test_case "bug: unspooled deliver (crash)" `Quick test_bug_unspooled_deliver;
    Alcotest.test_case "bug: unspooled deliver (race)" `Quick test_bug_unspooled_deliver_concurrent_pickup;
    Alcotest.test_case "bug: unlocked pickup" `Quick test_bug_unlocked_pickup;
    Alcotest.test_case "bug: recovery deletes mailboxes" `Quick test_bug_recover_wrong_dir;
    Alcotest.test_case "bug: >1-chunk pickup loops (§9.5)" `Quick test_bug_pickup_infinite_loop;
    Alcotest.test_case "fixed pickup reads long message" `Quick test_ok_pickup_long_message;
  ]
