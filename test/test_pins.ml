(* Pins on what the checker reports, independent of how it computes it:

   - the flat [pp_failure] text (test/golden/*.trace.txt) of two seeded
     bugs whose failing paths together contain every event constructor —
     invoke, step, return, FAULT, CRASH, CRASH during recovery, recovery
     step, post step, post return — byte-identical under every strategy
     and at domains 1 and 2.  The lane goldens render only [ev_label]; this
     is the one pin on [ev_text];
   - the whole [stats] record of checks over instances whose candidate
     sets grow large, under every strategy, sequentially and on two
     domains, so neither the candidate tracker's bookkeeping
     ([dedup_hits], [max_candidates], [vacuous]) nor the exploration
     policies can drift;
   - the whole [stats] record of fingerprint-pruned checks, plain, under
     the symmetry quotient and on two domains, so no change to the
     canonical rendering can move a hit or a miss;
   - the whole [stats] record of seeded random walks, and the failure text
     of one, so every [seed=S schedule=I/N] keeps naming the same walk;
   - undefined behaviour reported on the same path by every strategy.

   GOLDEN_UPDATE=1 regenerates the trace goldens from the naive sequential
   run. *)

module V = Tslang.Value
module R = Perennial_core.Refinement
module E = Perennial_core.Explore
module RD = Systems.Replicated_disk
module J = Journal.Txn_log
module K = Journal.Kvs
module Fs = Perennial_fs.Fs
module FL = Perennial_fs.Layout
module SK = Dist.Shard_kv
module C = Perennial_catalog.Catalog

let b = Disk.Block.of_string
let bv s = Disk.Block.to_value (b s)

(* ------------------------------------------------------------------ *)
(* Flat trace goldens                                                   *)
(* ------------------------------------------------------------------ *)

let ly2 = J.layout ~n_data:2 ~max_slots:2

(* crash, crash during recovery, recovery steps, post steps and returns *)
let journal_recover_clear_first domains strategy =
  R.check ~strategy ?domains
    (R.config ~spec:(J.spec ly2) ~init_world:(J.init_world ly2) ~crash_world:J.crash_world
       ~pp_world:J.pp_world
       ~threads:[ [ J.commit_call ly2 [ (0, b "A"); (1, b "B") ] ] ]
       ~recovery:(J.Buggy.recover_clear_first ly2) ~post:(J.probe ly2) ~max_crashes:2 ())

(* invoke, steps, returns and a FAULT *)
let rd_fault_no_retry domains strategy =
  R.check ~strategy ?domains
    (RD.checker_config ~may_fail:false ~size:1 ~max_crashes:0 ~fault_budget:1
       [ [ RD.write_call 0 (bv "x"); RD.Buggy.read_ft_call_no_retry 0 ] ])

let kind_phase e =
  let k =
    match e.R.ev_kind with
    | R.Invoke -> "invoke"
    | R.Step -> "step"
    | R.Return -> "return"
    | R.Crash -> "crash"
    | R.Fault -> "fault"
  in
  let p =
    match e.R.ev_phase with R.Main -> "main" | R.Recovery -> "recovery" | R.Post -> "post"
  in
  k ^ "/" ^ p

let all_constructors =
  [ "invoke/main"; "step/main"; "return/main"; "fault/main"; "crash/main";
    "crash/recovery"; "step/recovery"; "step/post"; "return/post" ]

let trace_goldens =
  [ ("journal_recover_clear_first", journal_recover_clear_first);
    ("rd_fault_no_retry", rd_fault_no_retry) ]

let failure_of name = function
  | R.Refinement_violated (f, _) -> f
  | R.Refinement_holds _ -> Alcotest.failf "%s: bug not caught" name
  | R.Budget_exhausted _ -> Alcotest.failf "%s: budget exhausted" name

let test_trace_goldens () =
  let seen = Hashtbl.create 16 in
  List.iter
    (fun (name, run) ->
      let render domains s =
        Fmt.str "%a@." R.pp_failure (failure_of name (run domains s))
      in
      let want = Golden.read ~regen:(fun () -> render None E.Naive) (name ^ ".trace.txt") in
      List.iter (fun e -> Hashtbl.replace seen (kind_phase e) ())
        (failure_of name (run None E.Naive)).R.events;
      List.iter
        (fun s ->
          List.iter
            (fun domains ->
              let tag =
                match domains with
                | None -> "sequential"
                | Some d -> Printf.sprintf "domains=%d" d
              in
              Alcotest.(check string)
                (Printf.sprintf "%s trace under %s %s" name (E.strategy_name s) tag)
                want (render domains s))
            [ None; Some 1; Some 2 ])
        E.all_strategies)
    trace_goldens;
  List.iter
    (fun c ->
      if not (Hashtbl.mem seen c) then
        Alcotest.failf "no trace golden contains a %s event" c)
    all_constructors

(* ------------------------------------------------------------------ *)
(* Exact stats per strategy and domain count                            *)
(* ------------------------------------------------------------------ *)

let show s =
  Printf.sprintf
    "{ executions = %d; steps = %d; crashes_injected = %d; vacuous = %d; \
     max_candidates = %d; dedup_hits = %d; frontier_hwm = %d; \
     commutations_pruned = %d; sleep_skips = %d; crash_skips = %d; \
     faults_injected = %d; fault_schedules = %d; retries_observed = %d; \
     cache_hits = %d; fingerprint_hits = %d; fingerprint_misses = %d }"
    s.R.executions s.steps s.crashes_injected s.vacuous s.max_candidates s.dedup_hits
    s.frontier_hwm s.commutations_pruned s.sleep_skips s.crash_skips s.faults_injected
    s.fault_schedules s.retries_observed s.cache_hits s.fingerprint_hits
    s.fingerprint_misses

let holding name = function
  | R.Refinement_holds got -> got
  | R.Refinement_violated (f, _) -> Alcotest.failf "%s: %a" name R.pp_failure f
  | R.Budget_exhausted _ -> Alcotest.failf "%s: budget exhausted" name

let domains_tag = function None -> "" | Some d -> Printf.sprintf " domains=%d" d
let config_tag strategy domains = E.strategy_name strategy ^ domains_tag domains

(* [pins] lists (strategy, domains, expected stats); [run strategy domains]
   checks the instance under that configuration. *)
let stats_pin name run pins =
  List.iter
    (fun (strategy, domains, expected) ->
      let tag = name ^ " under " ^ config_tag strategy domains in
      Alcotest.(check string) (tag ^ ": stats") (show expected)
        (show (holding tag (run strategy domains))))
    pins

let stats ~executions ~steps ~crashes_injected ~vacuous ~max_candidates ~dedup_hits
    ~frontier_hwm ?(commutations_pruned = 0) ?(sleep_skips = 0) ?(crash_skips = 0)
    ?(faults_injected = 0) ?(fault_schedules = 0) ?(retries_observed = 0)
    ?(cache_hits = 0) ?(fingerprint_hits = 0) ?(fingerprint_misses = 0) () =
  { R.executions; steps; crashes_injected; vacuous; max_candidates; dedup_hits;
    frontier_hwm; commutations_pruned; sleep_skips; crash_skips; faults_injected;
    fault_schedules; retries_observed; cache_hits; fingerprint_hits;
    fingerprint_misses }

let test_stats_net_contention () =
  let p = SK.params ~n_keys:1 ~n_clients:2 ~retries:0 () in
  stats_pin "net 2-client contention"
    (fun strategy domains ->
      R.check ~strategy ?domains ~faults:0
        (SK.checker_config p ~max_crashes:0 ~fault_budget:0
           [ [ SK.ninc_call p ~client:0 ~seq:0 0; SK.bye_call ];
             [ SK.ninc_call p ~client:1 ~seq:0 0; SK.bye_call ];
             [ SK.srv_call p 0 ] ]))
    [ (E.Naive, None,
       stats ~executions:8140 ~steps:44246 ~crashes_injected:0 ~vacuous:0
         ~max_candidates:36 ~dedup_hits:0 ~frontier_hwm:13 ());
      (E.Dpor, None,
       stats ~executions:8140 ~steps:44246 ~crashes_injected:0 ~vacuous:0
         ~max_candidates:36 ~dedup_hits:0 ~frontier_hwm:13 ());
      (E.Dpor_sleep, None,
       stats ~executions:7240 ~steps:39604 ~crashes_injected:0 ~vacuous:0
         ~max_candidates:36 ~dedup_hits:0 ~frontier_hwm:13 ~commutations_pruned:12
         ~sleep_skips:8 ());
      (E.Naive, Some 2,
       stats ~executions:8140 ~steps:44246 ~crashes_injected:0 ~vacuous:0
         ~max_candidates:36 ~dedup_hits:0 ~frontier_hwm:13 ());
      (E.Dpor, Some 2,
       stats ~executions:8140 ~steps:44246 ~crashes_injected:0 ~vacuous:0
         ~max_candidates:36 ~dedup_hits:0 ~frontier_hwm:13 ());
      (E.Dpor_sleep, Some 2,
       stats ~executions:7240 ~steps:39604 ~crashes_injected:0 ~vacuous:0
         ~max_candidates:36 ~dedup_hits:0 ~frontier_hwm:13 ~commutations_pruned:12
         ~sleep_skips:8 ()) ]

let test_stats_net_lease () =
  let p = SK.params ~n_keys:1 ~n_clients:2 () in
  stats_pin "lease: 2 holders + expiry + crash"
    (fun strategy domains ->
      R.check ~strategy ?domains
        (SK.checker_config p ~max_crashes:1 ~fault_budget:0
           [ [ SK.linc_call p ~client:0 0 ]; [ SK.linc_call p ~client:1 0 ]; [ SK.expire_call ] ]))
    [ (E.Naive, None,
       stats ~executions:10064 ~steps:18183 ~crashes_injected:8120 ~vacuous:0
         ~max_candidates:20 ~dedup_hits:17266 ~frontier_hwm:13 ~retries_observed:124 ());
      (E.Dpor, None,
       stats ~executions:8682 ~steps:16801 ~crashes_injected:6738 ~vacuous:0
         ~max_candidates:20 ~dedup_hits:11994 ~frontier_hwm:13 ~crash_skips:1382
         ~retries_observed:124 ());
      (E.Dpor_sleep, None,
       stats ~executions:7278 ~steps:14147 ~crashes_injected:5660 ~vacuous:0
         ~max_candidates:20 ~dedup_hits:10182 ~frontier_hwm:13 ~sleep_skips:46
         ~crash_skips:1210 ~retries_observed:117 ());
      (E.Naive, Some 2,
       stats ~executions:10064 ~steps:18183 ~crashes_injected:8120 ~vacuous:0
         ~max_candidates:20 ~dedup_hits:17266 ~frontier_hwm:13 ~retries_observed:124 ());
      (E.Dpor, Some 2,
       stats ~executions:8682 ~steps:16801 ~crashes_injected:6738 ~vacuous:0
         ~max_candidates:20 ~dedup_hits:11994 ~frontier_hwm:13 ~crash_skips:1382
         ~retries_observed:124 ());
      (E.Dpor_sleep, Some 2,
       stats ~executions:7278 ~steps:14147 ~crashes_injected:5660 ~vacuous:0
         ~max_candidates:20 ~dedup_hits:10182 ~frontier_hwm:13 ~sleep_skips:46
         ~crash_skips:1210 ~retries_observed:117 ()) ]

let test_stats_kvs_put_get () =
  let p = K.params ~n_keys:2 () in
  stats_pin "kvs put || get + crash"
    (fun strategy domains ->
      R.check ~strategy ?domains
        (K.checker_config p ~max_crashes:1 [ [ K.put_call p 0 (bv "A") ]; [ K.get_call p 1 ] ]))
    [ (E.Naive, None,
       stats ~executions:120 ~steps:1227 ~crashes_injected:110 ~vacuous:0
         ~max_candidates:4 ~dedup_hits:66 ~frontier_hwm:17 ());
      (E.Dpor, None,
       stats ~executions:21 ~steps:223 ~crashes_injected:16 ~vacuous:0 ~max_candidates:4
         ~dedup_hits:16 ~frontier_hwm:17 ~commutations_pruned:2 ~crash_skips:16 ());
      (E.Dpor_sleep, None,
       stats ~executions:21 ~steps:223 ~crashes_injected:16 ~vacuous:0 ~max_candidates:4
         ~dedup_hits:16 ~frontier_hwm:17 ~commutations_pruned:2 ~crash_skips:16 ());
      (E.Naive, Some 2,
       stats ~executions:120 ~steps:1227 ~crashes_injected:110 ~vacuous:0
         ~max_candidates:4 ~dedup_hits:66 ~frontier_hwm:17 ());
      (E.Dpor, Some 2,
       stats ~executions:61 ~steps:696 ~crashes_injected:51 ~vacuous:0 ~max_candidates:4
         ~dedup_hits:16 ~frontier_hwm:17 ~crash_skips:59 ());
      (E.Dpor_sleep, Some 2,
       stats ~executions:53 ~steps:603 ~crashes_injected:44 ~vacuous:0 ~max_candidates:4
         ~dedup_hits:16 ~frontier_hwm:17 ~sleep_skips:1 ~crash_skips:52 ()) ]

let test_stats_fs_create_append () =
  let p = Fs.params (FL.v ~n_inodes:4 ~n_blocks:5 ()) in
  stats_pin "fs create || append + crash"
    (fun strategy domains ->
      R.check ~strategy ?domains
        (Fs.checker_config p ~dirs:[ "a" ] ~files:[ ("a", "f", "xy") ] ~max_crashes:1
           [ [ Fs.create_call p "a" "g" ]; [ Fs.append_call p "a" "f" "z" ] ]))
    [ (E.Naive, None,
       stats ~executions:65 ~steps:920 ~crashes_injected:63 ~vacuous:0 ~max_candidates:8
         ~dedup_hits:0 ~frontier_hwm:31 ());
      (E.Dpor, None,
       stats ~executions:29 ~steps:425 ~crashes_injected:28 ~vacuous:0 ~max_candidates:8
         ~dedup_hits:0 ~frontier_hwm:31 ~commutations_pruned:1 ~crash_skips:4 ());
      (E.Dpor_sleep, None,
       stats ~executions:29 ~steps:425 ~crashes_injected:28 ~vacuous:0 ~max_candidates:8
         ~dedup_hits:0 ~frontier_hwm:31 ~commutations_pruned:1 ~crash_skips:4 ());
      (E.Naive, Some 2,
       stats ~executions:65 ~steps:920 ~crashes_injected:63 ~vacuous:0 ~max_candidates:8
         ~dedup_hits:0 ~frontier_hwm:31 ());
      (E.Dpor, Some 2,
       stats ~executions:57 ~steps:840 ~crashes_injected:55 ~vacuous:0 ~max_candidates:8
         ~dedup_hits:0 ~frontier_hwm:31 ~crash_skips:8 ());
      (E.Dpor_sleep, Some 2,
       stats ~executions:57 ~steps:840 ~crashes_injected:55 ~vacuous:0 ~max_candidates:8
         ~dedup_hits:0 ~frontier_hwm:31 ~crash_skips:8 ()) ]

let test_stats_kvs_ft () =
  let p = K.params ~n_keys:2 () in
  stats_pin "kvs ft put; ft get + crash + faults 2"
    (fun strategy domains ->
      R.check ~strategy ?domains ~faults:2
        (K.checker_config p ~max_crashes:1
           [ [ K.put_ft_call p 0 (bv "A"); K.get_ft_call p 0 ] ]))
    [ (E.Naive, None,
       stats ~executions:305 ~steps:3119 ~crashes_injected:276 ~vacuous:0
         ~max_candidates:4 ~dedup_hits:354 ~frontier_hwm:20 ~faults_injected:28
         ~fault_schedules:28 ~retries_observed:22 ());
      (E.Dpor, None,
       stats ~executions:146 ~steps:1644 ~crashes_injected:117 ~vacuous:0
         ~max_candidates:4 ~dedup_hits:117 ~frontier_hwm:20 ~crash_skips:159
         ~faults_injected:28 ~fault_schedules:28 ~retries_observed:22 ());
      (E.Dpor_sleep, None,
       stats ~executions:146 ~steps:1644 ~crashes_injected:117 ~vacuous:0
         ~max_candidates:4 ~dedup_hits:117 ~frontier_hwm:20 ~crash_skips:159
         ~faults_injected:28 ~fault_schedules:28 ~retries_observed:22 ());
      (E.Naive, Some 2,
       stats ~executions:305 ~steps:3119 ~crashes_injected:276 ~vacuous:0
         ~max_candidates:4 ~dedup_hits:354 ~frontier_hwm:20 ~faults_injected:28
         ~fault_schedules:28 ~retries_observed:22 ());
      (E.Dpor, Some 2,
       stats ~executions:146 ~steps:1644 ~crashes_injected:117 ~vacuous:0
         ~max_candidates:4 ~dedup_hits:117 ~frontier_hwm:20 ~crash_skips:159
         ~faults_injected:28 ~fault_schedules:28 ~retries_observed:22 ());
      (E.Dpor_sleep, Some 2,
       stats ~executions:146 ~steps:1644 ~crashes_injected:117 ~vacuous:0
         ~max_candidates:4 ~dedup_hits:117 ~frontier_hwm:20 ~crash_skips:159
         ~faults_injected:28 ~fault_schedules:28 ~retries_observed:22 ()) ]

(* Fingerprint pruning: the seen-set decides every hit and miss, so the
   whole record pins the canonical rendering's equalities — plain, under the
   symmetry quotient, and with one seen-set per work item on two domains. *)
let test_stats_fingerprint () =
  let pin name run expected =
    Alcotest.(check string) (name ^ ": stats") (show expected) (show (holding name (run ())))
  in
  pin "kvs put || get, fingerprint"
    (fun () -> C.run ~fingerprint:true C.kvs_put_get)
    (stats ~executions:41 ~steps:432 ~crashes_injected:40 ~vacuous:0 ~max_candidates:4
       ~dedup_hits:48 ~frontier_hwm:17 ~fingerprint_hits:9 ~fingerprint_misses:40 ());
  pin "kvs put || get, fingerprint + symmetry"
    (fun () -> C.run ~fingerprint:true ~symmetry:true C.kvs_put_get)
    (stats ~executions:41 ~steps:432 ~crashes_injected:40 ~vacuous:0 ~max_candidates:4
       ~dedup_hits:48 ~frontier_hwm:17 ~fingerprint_hits:9 ~fingerprint_misses:40 ());
  pin "net inc, fingerprint domains=2"
    (fun () -> C.run ~fingerprint:true ~domains:2 C.net_inc)
    (stats ~executions:818 ~steps:1924 ~crashes_injected:772 ~vacuous:0 ~max_candidates:8
       ~dedup_hits:2880 ~frontier_hwm:18 ~faults_injected:96 ~fault_schedules:18
       ~retries_observed:28 ~cache_hits:120 ~fingerprint_hits:431 ~fingerprint_misses:772 ());
  (* kvs put || get has no interchangeable threads; two identical writers
     form one symmetry group (plain fingerprinting: 17 executions) *)
  let writers =
    RD.checker_config ~may_fail:false ~max_crashes:1 ~size:1
      [ [ RD.write_call 0 (bv "a") ]; [ RD.write_call 0 (bv "a") ] ]
  in
  pin "rd identical writers, fingerprint + symmetry"
    (fun () -> R.check ~fingerprint:true ~symmetry:true writers)
    (stats ~executions:10 ~steps:87 ~crashes_injected:9 ~vacuous:0 ~max_candidates:4
       ~dedup_hits:12 ~frontier_hwm:8 ~fingerprint_hits:1 ~fingerprint_misses:9 ())

(* A read of an address outside the disk is spec-level undefined
   behaviour, so every path that must linearize it is vacuous. *)
let test_stats_vacuous () =
  let open Sched.Prog.Syntax in
  let out_of_range : (RD.world, V.t) Sched.Prog.t =
    let* () = RD.lock 0 in
    let* () = RD.unlock 0 in
    Sched.Prog.return V.unit
  in
  stats_pin "rd write || out-of-range read"
    (fun strategy domains ->
      R.check ~strategy ?domains
        (RD.checker_config ~max_crashes:1 ~size:1
           [ [ RD.write_call 0 (bv "x") ];
             [ (Tslang.Spec.call "rd_read" [ V.int 5 ], out_of_range) ] ]))
    [ (E.Naive, None,
       stats ~executions:0 ~steps:9 ~crashes_injected:8 ~vacuous:12 ~max_candidates:1
         ~dedup_hits:0 ~frontier_hwm:4 ());
      (E.Dpor, None,
       stats ~executions:0 ~steps:7 ~crashes_injected:6 ~vacuous:9 ~max_candidates:1
         ~dedup_hits:0 ~frontier_hwm:4 ~commutations_pruned:1 ~crash_skips:1 ());
      (E.Dpor_sleep, None,
       stats ~executions:0 ~steps:7 ~crashes_injected:6 ~vacuous:9 ~max_candidates:1
         ~dedup_hits:0 ~frontier_hwm:4 ~commutations_pruned:1 ~crash_skips:1 ());
      (E.Naive, Some 2,
       stats ~executions:0 ~steps:9 ~crashes_injected:8 ~vacuous:12 ~max_candidates:1
         ~dedup_hits:0 ~frontier_hwm:4 ());
      (E.Dpor, Some 2,
       stats ~executions:0 ~steps:9 ~crashes_injected:6 ~vacuous:10 ~max_candidates:1
         ~dedup_hits:0 ~frontier_hwm:4 ~crash_skips:2 ());
      (E.Dpor_sleep, Some 2,
       stats ~executions:0 ~steps:9 ~crashes_injected:6 ~vacuous:10 ~max_candidates:1
         ~dedup_hits:0 ~frontier_hwm:4 ~crash_skips:2 ()) ]

(* ------------------------------------------------------------------ *)
(* Random walks                                                         *)
(* ------------------------------------------------------------------ *)

let test_random_kvs_stats () =
  let p = K.params ~n_keys:2 () in
  List.iter
    (fun (domains, expected) ->
      let tag = "kvs put || get, 200 walks" ^ domains_tag domains in
      Alcotest.(check string) (tag ^ ": stats") (show expected)
        (show
           (holding tag
              (R.check_random ~seed:17 ~schedules:200 ?domains
                 (K.checker_config p ~max_crashes:1
                    [ [ K.put_call p 0 (bv "A") ]; [ K.get_call p 1 ] ])))))
    [ (None, stats ~executions:200 ~steps:4048 ~crashes_injected:139 ~vacuous:0
         ~max_candidates:4 ~dedup_hits:122 ~frontier_hwm:17 ());
      (Some 2, stats ~executions:200 ~steps:4048 ~crashes_injected:139 ~vacuous:0
         ~max_candidates:4 ~dedup_hits:122 ~frontier_hwm:17 ()) ]

(* Recovery zeroes the disk; crashes during recovery are drawn too. *)
let rd_zero_recovery_failure =
  {|refinement violated: [seed=123 schedule=2/500] no linearization explains thread 1 returning "0"
trace:
  t0: acquire(0)
  t0: disk_write(d1,0)
  t0: disk_write(d2,0)
  t0: release(0)
  t0: rd_write(0,
"x") returns ()
  CRASH
  recovery: disk_write(d1,0)
  recovery: disk_write(d2,0)
  post: acquire(0)
  post: disk_read(d1,0)
  post: release(0)
  post t1: rd_read(0) returns "0"
|}

let test_random_rd_zero_recovery () =
  List.iter
    (fun (domains, expected) ->
      let tag = "rd zero recovery walk" ^ domains_tag domains in
      match
        R.check_random ~schedules:500 ~seed:123 ~crash_prob:0.2 ?domains
          (R.config ~spec:(RD.spec 1)
             ~init_world:(RD.init_world ~may_fail:false 1)
             ~crash_world:RD.crash_world ~pp_world:RD.pp_world
             ~threads:[ [ RD.write_call 0 (V.str "x") ] ]
             ~recovery:(RD.Buggy.recover_zero 1) ~post:(RD.probe 1) ~max_crashes:2 ())
      with
      | R.Refinement_violated (f, got) ->
        Alcotest.(check string) (tag ^ ": failure") rd_zero_recovery_failure
          (Fmt.str "%a@." R.pp_failure f);
        Alcotest.(check string) (tag ^ ": stats") (show expected) (show got)
      | R.Refinement_holds _ -> Alcotest.failf "%s: bug not caught" tag
      | R.Budget_exhausted _ -> Alcotest.failf "%s: budget exhausted" tag)
    [ (None, stats ~executions:1 ~steps:19 ~crashes_injected:1 ~vacuous:0 ~max_candidates:2
         ~dedup_hits:0 ~frontier_hwm:4 ());
      (Some 2, stats ~executions:461 ~steps:4930 ~crashes_injected:631 ~vacuous:0
         ~max_candidates:4 ~dedup_hits:0 ~frontier_hwm:4 ()) ]

(* ------------------------------------------------------------------ *)
(* Undefined behaviour at the root                                      *)
(* ------------------------------------------------------------------ *)

(* Thread 1's first step writes past the end of the disk.  Every strategy
   checks each enabled thread's step before exploring any of them, so the
   report names the root, not a path through thread 0's commit. *)
let test_ub_same_under_all_strategies () =
  let commit = J.commit_call ly2 [ (0, b "A") ] in
  let oob : (J.world, V.t) Sched.Prog.t =
    Sched.Prog.Syntax.(
      let* () =
        Disk.Single_disk.write ~get_disk:J.get_disk ~set_disk:J.set_disk 99 (b "Z")
      in
      Sched.Prog.return V.unit)
  in
  let run strategy =
    R.check ~strategy
      (R.config ~spec:(J.spec ly2) ~init_world:(J.init_world ly2) ~crash_world:J.crash_world
         ~pp_world:J.pp_world
         ~threads:[ [ commit ]; [ (fst commit, oob) ] ]
         ~recovery:(J.recover ly2) ~post:(J.probe ly2) ~max_crashes:0 ())
  in
  let render s = Fmt.str "%a@." R.pp_failure (failure_of "oob write" (run s)) in
  let want = render E.Dpor in
  List.iter
    (fun s ->
      Alcotest.(check string)
        (Printf.sprintf "oob write report under %s" (E.strategy_name s))
        want (render s))
    E.all_strategies


let suite =
  [
    Alcotest.test_case "trace goldens: every event constructor, all strategies" `Quick
      test_trace_goldens;
    Alcotest.test_case "stats pin: net 2-client contention" `Quick test_stats_net_contention;
    Alcotest.test_case "stats pin: lease + expiry + crash" `Quick test_stats_net_lease;
    Alcotest.test_case "stats pin: kvs put || get" `Quick test_stats_kvs_put_get;
    Alcotest.test_case "stats pin: fs create || append" `Quick test_stats_fs_create_append;
    Alcotest.test_case "stats pin: kvs ft ops + faults" `Quick test_stats_kvs_ft;
    Alcotest.test_case "stats pin: vacuous paths" `Quick test_stats_vacuous;
    Alcotest.test_case "stats pin: fingerprint seen-sets" `Quick test_stats_fingerprint;
    Alcotest.test_case "random pin: kvs put || get stats" `Quick test_random_kvs_stats;
    Alcotest.test_case "random pin: rd zero recovery" `Quick test_random_rd_zero_recovery;
    Alcotest.test_case "undefined behaviour: same report per strategy" `Quick
      test_ub_same_under_all_strategies;
  ]
