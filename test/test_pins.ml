(* Pins on what the checker reports, independent of how it computes it:

   - the flat [pp_failure] text (test/golden/*.trace.txt) of two seeded
     bugs whose failing paths together contain every event constructor —
     invoke, step, return, FAULT, CRASH, CRASH during recovery, recovery
     step, post step, post return — byte-identical under every strategy
     and at domains 1 and 2.  The lane goldens render only [ev_label]; this
     is the one pin on [ev_text];
   - the whole [stats] record of naive checks over instances whose
     candidate sets grow large, so the candidate tracker's bookkeeping
     ([dedup_hits], [max_candidates], [vacuous]) cannot drift.

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

let b = Disk.Block.of_string
let bv s = Disk.Block.to_value (b s)

(* ------------------------------------------------------------------ *)
(* Flat trace goldens                                                   *)
(* ------------------------------------------------------------------ *)

let golden_dir () = if Sys.file_exists "golden" then "golden" else "test/golden"

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

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
      let path = Filename.concat (golden_dir ()) (name ^ ".trace.txt") in
      let render domains s =
        Fmt.str "%a@." R.pp_failure (failure_of name (run domains s))
      in
      if Sys.getenv_opt "GOLDEN_UPDATE" <> None then begin
        let oc = open_out_bin path in
        output_string oc (render None E.Naive);
        close_out oc
      end;
      let want = read_file path in
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
(* Exact stats under naive                                              *)
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

let stats_pin name expected result =
  match result with
  | R.Refinement_holds got ->
    Alcotest.(check string) (name ^ ": stats") (show expected) (show got)
  | R.Refinement_violated (f, _) -> Alcotest.failf "%s: %a" name R.pp_failure f
  | R.Budget_exhausted _ -> Alcotest.failf "%s: budget exhausted" name

let stats ~executions ~steps ~crashes_injected ~vacuous ~max_candidates ~dedup_hits
    ~frontier_hwm ?(faults_injected = 0) ?(fault_schedules = 0) ?(retries_observed = 0)
    ?(cache_hits = 0) () =
  { R.executions; steps; crashes_injected; vacuous; max_candidates; dedup_hits;
    frontier_hwm; commutations_pruned = 0; sleep_skips = 0; crash_skips = 0;
    faults_injected; fault_schedules; retries_observed; cache_hits; fingerprint_hits = 0;
    fingerprint_misses = 0 }

(* Values recorded before the candidate tracker moved to an ordered set. *)
let test_stats_net_contention () =
  let p = SK.params ~n_keys:1 ~n_clients:2 ~retries:0 () in
  stats_pin "net 2-client contention"
    (stats ~executions:8140 ~steps:44246 ~crashes_injected:0 ~vacuous:0 ~max_candidates:36
       ~dedup_hits:0 ~frontier_hwm:13 ())
    (R.check ~faults:0
       (SK.checker_config p ~max_crashes:0 ~fault_budget:0
          [ [ SK.ninc_call p ~client:0 ~seq:0 0; SK.bye_call ];
            [ SK.ninc_call p ~client:1 ~seq:0 0; SK.bye_call ];
            [ SK.srv_call p 0 ] ]))

let test_stats_net_lease () =
  let p = SK.params ~n_keys:1 ~n_clients:2 () in
  stats_pin "lease: 2 holders + expiry + crash"
    (stats ~executions:10064 ~steps:18183 ~crashes_injected:8120 ~vacuous:0
       ~max_candidates:20 ~dedup_hits:17266 ~frontier_hwm:13 ~retries_observed:124 ())
    (R.check
       (SK.checker_config p ~max_crashes:1 ~fault_budget:0
          [ [ SK.linc_call p ~client:0 0 ]; [ SK.linc_call p ~client:1 0 ]; [ SK.expire_call ] ]))

let test_stats_kvs_put_get () =
  let p = K.params ~n_keys:2 () in
  stats_pin "kvs put || get + crash"
    (stats ~executions:120 ~steps:1227 ~crashes_injected:110 ~vacuous:0 ~max_candidates:4
       ~dedup_hits:66 ~frontier_hwm:17 ())
    (R.check
       (K.checker_config p ~max_crashes:1 [ [ K.put_call p 0 (bv "A") ]; [ K.get_call p 1 ] ]))

let test_stats_fs_create_append () =
  let p = Fs.params (FL.v ~n_inodes:4 ~n_blocks:5 ()) in
  stats_pin "fs create || append + crash"
    (stats ~executions:65 ~steps:920 ~crashes_injected:63 ~vacuous:0 ~max_candidates:8
       ~dedup_hits:0 ~frontier_hwm:31 ())
    (R.check
       (Fs.checker_config p ~dirs:[ "a" ] ~files:[ ("a", "f", "xy") ] ~max_crashes:1
          [ [ Fs.create_call p "a" "g" ]; [ Fs.append_call p "a" "f" "z" ] ]))

let test_stats_kvs_ft () =
  let p = K.params ~n_keys:2 () in
  stats_pin "kvs ft put; ft get + crash + faults 2"
    (stats ~executions:305 ~steps:3119 ~crashes_injected:276 ~vacuous:0 ~max_candidates:4
       ~dedup_hits:354 ~frontier_hwm:20 ~faults_injected:28 ~fault_schedules:28
       ~retries_observed:22 ())
    (R.check ~faults:2
       (K.checker_config p ~max_crashes:1
          [ [ K.put_ft_call p 0 (bv "A"); K.get_ft_call p 0 ] ]))

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
    (stats ~executions:0 ~steps:9 ~crashes_injected:8 ~vacuous:12 ~max_candidates:1
       ~dedup_hits:0 ~frontier_hwm:4 ())
    (R.check
       (RD.checker_config ~max_crashes:1 ~size:1
          [ [ RD.write_call 0 (bv "x") ];
            [ (Tslang.Spec.call "rd_read" [ V.int 5 ], out_of_range) ] ]))

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
  ]
