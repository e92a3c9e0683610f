(* The network adversary and the exactly-once RPC stack end to end:
   - the [Net] channel-state model (canonical queues, crash clearing);
   - the runner's injection oracle replaying network schedules, written
     as [Fault.Msg_*] injections like any storage fault schedule;
   - the checker's own count of distinct network schedules, pinned at
     fault budgets 0/1/2 under every strategy;
   - exhaustive network x crash refinement for the exactly-once contract:
     retries, reply-cache hits, contention, cross-shard routing, the
     epoch-fenced lease RMW, and the journal-hosted shards;
   - verdict/stats/lane agreement across all three strategies and
     domain counts 1/2/4;
   - the three seeded network bugs, each caught with committed golden
     lanes.

   Instance sizes are tuned: configs with three or more threads use
   [retries:0] clients (a timeout degrades to the spec's err arm instead
   of branching into a retry storm), which keeps every check exhaustive
   in seconds while the 1-client flagship keeps [retries:1] and exercises
   the full retry/timeout/backoff surface. *)

module V = Tslang.Value
module R = Perennial_core.Refinement
module E = Perennial_core.Explore
module F = Sched.Fault
module P = Sched.Prog
module Net = Sched.Net
module C = Obs.Coverage
module SK = Dist.Shard_kv
module Cat = Perennial_catalog.Catalog

(* ------------------------------------------------------------------ *)
(* Channel state model                                                  *)
(* ------------------------------------------------------------------ *)

let test_state_model () =
  Alcotest.(check bool) "empty is empty" true (Net.is_empty Net.empty);
  let s = Net.send "a" (V.int 1) Net.empty in
  let s = Net.send "a" (V.int 2) s in
  let s = Net.send "b" (V.int 3) s in
  Alcotest.(check int) "two queued on a" 2 (Net.length "a" s);
  Alcotest.(check int) "one queued on b" 1 (Net.length "b" s);
  Alcotest.(check bool) "peek is FIFO head" true (Net.peek "a" s = Some (V.int 1));
  Alcotest.(check (list string)) "channels sorted" [ "a"; "b" ] (Net.channels s);
  (match Net.recv "a" s with
  | Some (m, s') ->
    Alcotest.(check bool) "recv head" true (m = V.int 1);
    Alcotest.(check int) "tail remains" 1 (Net.length "a" s')
  | None -> Alcotest.fail "recv on non-empty channel");
  (match Net.recv_at "a" 1 s with
  | Some (m, s') ->
    Alcotest.(check bool) "recv_at skips head" true (m = V.int 2);
    Alcotest.(check bool) "head still queued" true (Net.peek "a" s' = Some (V.int 1))
  | None -> Alcotest.fail "recv_at 1 on a 2-deep channel");
  Alcotest.(check bool) "recv on absent channel" true (Net.recv "zzz" s = None);
  (* canonical form: a drained channel disappears, so structural equality
     is semantic equality *)
  let s1 = Net.send "c" (V.int 9) Net.empty in
  (match Net.recv "c" s1 with
  | Some (_, s2) -> Alcotest.(check bool) "drained = empty" true (Net.equal s2 Net.empty)
  | None -> Alcotest.fail "recv c");
  (* crash: every in-flight message is lost *)
  Alcotest.(check bool) "clear = empty" true (Net.equal (Net.clear s) Net.empty)

(* ------------------------------------------------------------------ *)
(* The runner's injection oracle replays network schedules              *)
(* ------------------------------------------------------------------ *)

(* The channel state itself is the whole world: the lens is the identity. *)
let nget (s : Net.state) = s
let nset (_ : Net.state) s = s

let send_then_try ch =
  let open P.Syntax in
  let* () = Net.send_step ~get:nget ~set:nset ch (V.int 1) in
  let* r = Net.try_recv_step ~get:nget ~set:nset ch in
  P.return (match r with Some m -> m | None -> V.str "timeout")

let test_runner_oracle () =
  (* clean run: the message arrives *)
  let o = Sched.Runner.run Net.empty [ send_then_try "ch" ] in
  Alcotest.(check bool) "clean delivery" true (o.Sched.Runner.results.(0) = V.int 1);
  Alcotest.(check bool) "no events fired" true (o.Sched.Runner.injected = []);
  (* Drop at the send: the receive times out, nothing in flight *)
  let o =
    Sched.Runner.run ~fault_schedule:[ { F.at = 0; kind = F.Msg_drop } ] Net.empty
      [ send_then_try "ch" ]
  in
  Alcotest.(check bool) "dropped: timeout" true (o.Sched.Runner.results.(0) = V.str "timeout");
  Alcotest.(check bool) "dropped: channel empty" true (Net.is_empty o.Sched.Runner.world);
  Alcotest.(check bool) "drop fired" true
    (o.Sched.Runner.injected = [ { F.at = 0; kind = F.Msg_drop } ]);
  (* Dup at the send: the receive consumes one copy, one stays in flight *)
  let o =
    Sched.Runner.run ~fault_schedule:[ { F.at = 0; kind = F.Msg_dup } ] Net.empty
      [ send_then_try "ch" ]
  in
  Alcotest.(check bool) "dup: delivered" true (o.Sched.Runner.results.(0) = V.int 1);
  Alcotest.(check int) "dup: one copy left" 1 (Net.length "ch" o.Sched.Runner.world);
  (* Delay at the receive: timeout fires even though the message IS queued *)
  let o =
    Sched.Runner.run ~fault_schedule:[ { F.at = 1; kind = F.Msg_delay } ] Net.empty
      [ send_then_try "ch" ]
  in
  Alcotest.(check bool) "delay: timeout" true (o.Sched.Runner.results.(0) = V.str "timeout");
  Alcotest.(check int) "delay: message still queued" 1 (Net.length "ch" o.Sched.Runner.world);
  (* Reorder at a 2-deep blocking receive (an [until] that never holds):
     the second message overtakes the head *)
  let two_then_recv =
    let open P.Syntax in
    let* () = Net.send_step ~get:nget ~set:nset "ch" (V.int 1) in
    let* () = Net.send_step ~get:nget ~set:nset "ch" (V.int 2) in
    let* r = Net.recv_until ~get:nget ~set:nset ~until:(fun _ -> false) "ch" in
    P.return (Option.get r)
  in
  let o = Sched.Runner.run Net.empty [ two_then_recv ] in
  Alcotest.(check bool) "in order by default" true (o.Sched.Runner.results.(0) = V.int 1);
  let o =
    Sched.Runner.run ~fault_schedule:[ { F.at = 2; kind = F.Msg_reorder 1 } ] Net.empty
      [ two_then_recv ]
  in
  Alcotest.(check bool) "reordered delivery" true (o.Sched.Runner.results.(0) = V.int 2);
  Alcotest.(check bool) "reorder fired" true
    (o.Sched.Runner.injected = [ { F.at = 2; kind = F.Msg_reorder 1 } ])

(* The checker is the one schedule enumerator: it branches on fault points
   as it explores and counts each distinct non-empty schedule of a
   completed execution once.  [send_then_try] has two fault-eligible steps
   — the send (site 0: drop, dup) and, when a message waits, the receive
   (site 1: delay with one or more queued, reorder(1) with two or more).
   By hand:
   - budget 0: no fault fires, so no schedule is counted: 0;
   - budget 1: [0:drop] (the receive then sees an empty channel and
     declares nothing), [0:dup] (budget spent), and [1:delay] after a
     clean send (one message queued, so no reorder): 3;
   - budget 2: those three, plus the two the receive adds after a dup
     (two queued): [0:dup; 1:delay] and [0:dup; 1:reorder(1)]: 5.
   Crash points add executions but no schedule: faults fire only in the
   main phase, and every fault point also has a normal branch, so the
   schedule up to any crash point is already one of the above.  The one
   thread has nothing to reorder, so every strategy explores the same
   schedules. *)
let test_schedule_count () =
  let spec : unit Tslang.Spec.t =
    {
      Tslang.Spec.name = "send-then-try";
      init = ();
      compare_state = compare;
      pp_state = Fmt.any "()";
      step = (fun _ _ -> Tslang.Transition.choose [ V.int 1; V.str "timeout" ]);
      crash = Tslang.Transition.ret ();
    }
  in
  let cfg fault_budget =
    R.config ~spec ~init_world:Net.empty ~crash_world:Net.clear ~pp_world:Net.pp
      ~threads:[ [ (Tslang.Spec.call "send_then_try" [], send_then_try "ch") ] ]
      ~recovery:(P.return V.unit) ~fault_budget ()
  in
  List.iter
    (fun strategy ->
      List.iter
        (fun (budget, expected) ->
          let name = Printf.sprintf "%s at budget %d" (E.strategy_name strategy) budget in
          let stats = Verdict.holds name (R.check ~strategy (cfg budget)) in
          Alcotest.(check int) (name ^ ": fault schedules") expected stats.R.fault_schedules)
        [ (0, 0); (1, 3); (2, 5) ])
    E.all_strategies

(* A dropped request against the full client/server stack: the retry makes
   the call succeed, deterministically replayable. *)
let test_drop_retry_oracle () =
  let p = SK.params ~n_keys:1 ~n_clients:1 () in
  let client =
    let open P.Syntax in
    let* _ = snd (SK.nput_call p ~client:0 ~seq:0 0 (V.str "A")) in
    snd SK.bye_call
  in
  let o =
    Sched.Runner.run ~fault_schedule:[ { F.at = 0; kind = F.Msg_drop } ] (SK.init_world p)
      [ client; snd (SK.srv_call p 0) ]
  in
  Alcotest.(check bool) "request drop fired" true
    (List.mem { F.at = 0; kind = F.Msg_drop } o.Sched.Runner.injected);
  Alcotest.(check bool) "client retried" true
    (List.exists (fun (_, l) -> l = "retry_rpc(put#1)") o.Sched.Runner.trace);
  Alcotest.(check bool) "the retried put landed" true
    (List.nth o.Sched.Runner.world.SK.vals 0 = V.str "A")

(* ------------------------------------------------------------------ *)
(* The exactly-once contract holds exhaustively                         *)
(* ------------------------------------------------------------------ *)

(* Flagship: one client, one server, non-idempotent inc, full
   retry/timeout/backoff surface, network budget 1 composed with one
   crash.  Duplicates (adversary Dup or the client's own premature-timeout
   retry) are answered from the reply cache without re-executing. *)
let test_exactly_once_holds () =
  let stats = Verdict.holds "exactly-once inc, net 1, 1 crash" (Cat.run Cat.net_inc) in
  Alcotest.(check bool) "network events injected" true (stats.R.faults_injected > 0);
  Alcotest.(check bool) "distinct network schedules" true (stats.R.fault_schedules > 1);
  Alcotest.(check bool) "retries observed" true (stats.R.retries_observed > 0);
  Alcotest.(check bool) "reply-cache hits observed" true (stats.R.cache_hits > 0)

(* Verdict agrees across all three strategies; stats are byte-identical
   across domain counts 1/2/4 at every fixed strategy. *)
let test_strategies_domains_agree () =
  List.iter
    (fun strategy ->
      ignore
        (Verdict.holds
           (Printf.sprintf "exactly-once inc under %s" (E.strategy_name strategy))
           (Cat.run ~strategy Cat.net_inc));
      let stats_str d =
        Fmt.str "%a" R.pp_stats
          (Verdict.holds
             (Printf.sprintf "exactly-once inc under %s, %d domains" (E.strategy_name strategy) d)
             (Cat.run ~strategy ~domains:d Cat.net_inc))
      in
      let s1 = stats_str 1 in
      List.iter
        (fun d ->
          Alcotest.(check string)
            (Printf.sprintf "stats identical under %s at %d domains" (E.strategy_name strategy) d)
            s1 (stats_str d))
        [ 2; 4 ])
    E.all_strategies

(* Two clients racing non-idempotent incs through one server: the reply
   cache is per client, so neither client's duplicate absorbs the other's
   execution. *)
let test_contention_holds () =
  let stats =
    Verdict.holds "2-client contention, net 1" (Cat.run ~strategy:E.Dpor_sleep Cat.net_contention)
  in
  Alcotest.(check bool) "duplicates deduplicated" true (stats.R.cache_hits > 0)

(* Sequential puts to one key with a retrying first call: a correct
   client's retry carries its sequence number, so a late duplicate is
   classified Stale (or answered from the cache) and the newer write is
   never overwritten — the correct twin of seeded bug 2. *)
let test_retry_storm_holds () =
  let stats =
    Verdict.holds "put;put with retries, net 1"
      (Cat.run ~strategy:E.Dpor_sleep Cat.net_retry_storm)
  in
  Alcotest.(check bool) "retries observed" true (stats.R.retries_observed > 0);
  Alcotest.(check bool) "duplicates deduplicated" true (stats.R.cache_hits > 0)

(* Two shards, two server threads: requests route by key, replies come
   back tagged, and the idle shard still shuts down cleanly. *)
let test_cross_shard_holds () =
  let stats =
    Verdict.holds "cross-shard put/get, net 1" (Cat.run ~strategy:E.Dpor_sleep Cat.net_cross_shard)
  in
  Alcotest.(check bool) "duplicates deduplicated" true (stats.R.cache_hits > 0)

(* Two holders racing a fenced read-modify-write with an expiry the
   scheduler can place anywhere, under crashes: the epoch fence taken at
   acquire keeps every zombie write out. *)
let test_lease_fencing_holds () =
  List.iter
    (fun strategy ->
      let stats =
        Verdict.holds
          (Printf.sprintf "fenced lease RMW under %s" (E.strategy_name strategy))
          (Cat.run ~strategy Cat.lease)
      in
      Alcotest.(check bool) "acquire retries observed" true (stats.R.retries_observed > 0))
    [ E.Naive; E.Dpor_sleep ]

(* The journal-hosted shards: data key and reply-cache slot commit in one
   transaction, so exactly-once survives crashes of the storage stack. *)
let test_hosted_holds () =
  let stats =
    Verdict.holds "hosted shard, net 1, 1 crash" (Cat.run ~strategy:E.Dpor_sleep Cat.net_hosted)
  in
  Alcotest.(check bool) "hosted cache hits observed" true (stats.R.cache_hits > 0);
  let p2 = SK.params ~n_keys:2 ~n_shards:2 ~n_clients:1 ~retries:0 ~init_val:(V.str "0") () in
  ignore
    (Verdict.holds "hosted 2 shards, net 1, 1 crash"
       (R.check ~strategy:E.Dpor_sleep
          (SK.Hosted.checker_config p2 ~max_crashes:1 ~fault_budget:1
             [ [ SK.Hosted.nput_call p2 ~client:0 ~seq:0 0 (V.str "A"); SK.Hosted.bye_call ];
               [ SK.Hosted.srv_call p2 0 ]; [ SK.Hosted.srv_call p2 1 ] ])))

(* Every (channel, event-kind) pair the adversary can hit is a coverage
   site, and the flagship check exercises all four dimensions. *)
let with_coverage f =
  C.set_enabled true;
  C.reset ();
  Fun.protect
    ~finally:(fun () ->
      C.reset ();
      C.set_enabled false)
    f

let test_net_coverage_sites () =
  with_coverage (fun () ->
      ignore (Verdict.holds "exactly-once inc for coverage" (Cat.run Cat.net_inc));
      let sites = C.sites () in
      List.iter
        (fun site ->
          match List.find_opt (fun (k, id, _) -> k = C.Fault && id = site) sites with
          | Some (_, _, hits) ->
            Alcotest.(check bool) (site ^ " exercised") true (hits > 0)
          | None -> Alcotest.failf "site %s not registered" site)
        [ "net_send(s0):msg_drop";
          "net_send(s0):msg_dup";
          "net_try_recv(c0):msg_delay";
          "net_recv(s0):msg_reorder(1)" ])

(* ------------------------------------------------------------------ *)
(* Seeded network bugs                                                  *)
(* ------------------------------------------------------------------ *)

let assert_in_lanes name needle f =
  let lanes = Fmt.str "%a" R.pp_failure_lanes f in
  Alcotest.(check bool)
    (Printf.sprintf "%s: %s visible in lanes" name needle)
    true
    (Astring_contains.contains lanes needle)

(* Bug #1 — reply-cache miss on duplicate: the server executes every
   message it receives, so a [Dup]ed non-idempotent inc executes twice. *)
let test_bug_no_cache_caught () =
  let f = Verdict.violated "no-cache double execution" (Cat.run Cat.net_no_cache) in
  assert_in_lanes "no-cache double execution" "FAULT" f

(* Bug #2 — retry without a sequence number: the raw retry cannot be
   recognized as a duplicate, so its write (and its unmatchable reply)
   interferes with the client's later operations and the stale write
   wins. *)
let test_bug_raw_retry_caught () =
  let f = Verdict.violated "raw retry stale write" (Cat.run Cat.net_raw_retry) in
  assert_in_lanes "raw retry stale write" "FAULT" f;
  assert_in_lanes "raw retry stale write" "retry_rpc" f

(* Bug #3 — missing epoch fence: an expired holder's write lands after a
   newer holder's, losing the newer update.  Needs no network events at
   all — pure interleaving with the expiry step. *)
let test_bug_no_fence_caught () =
  let f = Verdict.violated "zombie write without fence" (Cat.run Cat.net_no_fence) in
  assert_in_lanes "zombie write without fence" "lease_write" f;
  assert_in_lanes "zombie write without fence" "lease_expire" f

(* ------------------------------------------------------------------ *)
(* Golden counterexamples                                               *)
(* ------------------------------------------------------------------ *)

(* Every reported counterexample is byte-identical to the golden,
   sequentially and at domain counts 1/2/4, under every strategy; the
   violating run's stats are identical across domain counts.  The naive
   strategy reports a different — equally valid — representative of bug
   2's violation class: the server's [rpc_exec] commutes with the client's
   channel steps, and naive's DFS places it earlier, so bug 2 has a naive
   golden of its own. *)
let golden ?naive inst () = Golden.lanes ?naive ~domains:[ None; Some 1; Some 2; Some 4 ] inst
let test_golden_bug_no_cache = golden Cat.net_no_cache
let test_golden_bug_raw_retry = golden ~naive:"net_bug2_raw_retry.naive" Cat.net_raw_retry
let test_golden_bug_no_fence = golden Cat.net_no_fence

let suite =
  [
    Alcotest.test_case "net: channel state model" `Quick test_state_model;
    Alcotest.test_case "net: runner injection oracle" `Quick test_runner_oracle;
    Alcotest.test_case "net: checker counts each schedule once" `Quick test_schedule_count;
    Alcotest.test_case "rpc: dropped request retried (oracle)" `Quick test_drop_retry_oracle;
    Alcotest.test_case "rpc: exactly-once inc holds (net 1, crash)" `Quick
      test_exactly_once_holds;
    Alcotest.test_case "rpc: strategies and domains agree" `Quick test_strategies_domains_agree;
    Alcotest.test_case "rpc: 2-client contention holds" `Quick test_contention_holds;
    Alcotest.test_case "rpc: retry storm put;put holds" `Quick test_retry_storm_holds;
    Alcotest.test_case "shard: cross-shard ops hold" `Quick test_cross_shard_holds;
    Alcotest.test_case "lease: fenced RMW holds (expiry, crash)" `Quick test_lease_fencing_holds;
    Alcotest.test_case "hosted: journal-backed shards hold" `Quick test_hosted_holds;
    Alcotest.test_case "net: coverage sites per channel x kind" `Quick test_net_coverage_sites;
    Alcotest.test_case "bug: duplicate double-executes without cache" `Quick
      test_bug_no_cache_caught;
    Alcotest.test_case "bug: raw retry lets stale write win" `Quick test_bug_raw_retry_caught;
    Alcotest.test_case "bug: zombie write without fence" `Quick test_bug_no_fence_caught;
    Alcotest.test_case "golden: dup without cache" `Quick test_golden_bug_no_cache;
    Alcotest.test_case "golden: raw retry" `Quick test_golden_bug_raw_retry;
    Alcotest.test_case "golden: missing fence" `Quick test_golden_bug_no_fence;
  ]
