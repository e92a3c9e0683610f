(* The benchmark harness: one section per table and figure of the paper's
   evaluation (§9), per the experiment index in DESIGN.md, plus the repo's
   own sweeps.

     dune exec bench/main.exe            -- run everything
     dune exec bench/main.exe -- table2  -- one experiment
     (sections: table1 table2 table3 table4 fig11 scaling kvs faults fs wal
      net parallel)

   A section gates only the shape conditions no test asserts; the run
   exits 1 if one fails, and 2 on an unknown section or flag.  Verdicts
   are perennial_check's to report and dune runtest's to assert; timing
   is bench/perf's job.

   Absolute numbers are produced by this repository's own substrate (pure
   OCaml, a discrete-event multicore simulator); the claims being reproduced
   are the *relative* ones — who wins, by what factor, and where the curves
   bend.  Each section prints the paper's numbers next to ours. *)

module V = Tslang.Value
module R = Perennial_core.Refinement
module C = Perennial_catalog.Catalog

let section title =
  Fmt.pr "@.%s@.%s@." title (String.make (String.length title) '=')

(* Pass/fail accumulator so the harness can self-report shape checks. *)
module Shape = struct
  let passed = ref []
  let failed = ref []

  let check name ok = if ok then passed := name :: !passed else failed := name :: !failed

  let report () =
    Fmt.pr "@.Shape checks: %d passed%s@." (List.length !passed)
      (match !failed with
      | [] -> ""
      | f -> Fmt.str ", %d FAILED (%s)" (List.length f) (String.concat ", " f));
    if !failed <> [] then exit 1
end

(* ------------------------------------------------------------------ *)
(* Lines-of-code accounting (Tables 2, 3, 4)                            *)
(* ------------------------------------------------------------------ *)

module Loc = struct
  let count_file path =
    try
      let ic = open_in path in
      let n = ref 0 in
      (try
         while true do
           ignore (input_line ic);
           incr n
         done
       with End_of_file -> ());
      close_in ic;
      !n
    with Sys_error _ -> 0

  let count_dir ?(ext = [ ".ml"; ".mli" ]) dir =
    match Sys.readdir dir with
    | files ->
      Array.to_list files
      |> List.filter (fun f -> List.exists (Filename.check_suffix f) ext)
      |> List.map (fun f -> count_file (Filename.concat dir f))
      |> List.fold_left ( + ) 0
    | exception Sys_error _ -> 0

  let count_files paths = List.fold_left (fun a p -> a + count_file p) 0 paths
end

(* ------------------------------------------------------------------ *)
(* Table 1: the techniques, with their executable enforcement points    *)
(* ------------------------------------------------------------------ *)

let table1 () =
  section "Table 1: Perennial's techniques and where this repo enforces them";
  let rows =
    [
      ("crash invariant (5.1)",
       "Outline.Open_inv / check_recovery",
       "invariant closed after one atomic step; recovery starts from it");
      ("versioned memory (5.2)",
       "Assertion.durable + recovery entry",
       "volatile capabilities (pts, leases, receipts) dropped at crash");
      ("recovery leases (5.3)",
       "Outline.Write_durable / Synthesize",
       "writes need master+lease; only recovery mints fresh leases");
      ("refinement (4)",
       "Outline.Simulate / Refinement.check",
       "pending-op token consumed against the spec transition");
      ("crash refinement (5.5)",
       "Outline.Crash_step / finish_recovery",
       "Crashing->Done via one atomic spec crash transition");
      ("recovery helping (5.4)",
       "Spec_tok durability + Simulate in recovery",
       "pending-op tokens survive crashes; recovery completes them");
    ]
  in
  List.iter
    (fun (tech, where_, what) -> Fmt.pr "  %-26s %-44s %s@." tech where_ what)
    rows

(* ------------------------------------------------------------------ *)
(* Table 2: framework lines of code                                     *)
(* ------------------------------------------------------------------ *)

let table2 () =
  section "Table 2: lines of code for Perennial and Goose (ours vs paper)";
  let ts = Loc.count_dir "lib/tslang" in
  let core =
    Loc.count_dir "lib/core" + Loc.count_dir "lib/seplogic" + Loc.count_dir "lib/ra"
    + Loc.count_dir "lib/sched"
  in
  let goose_translator =
    Loc.count_files
      [ "lib/goose/token.ml"; "lib/goose/lexer.ml"; "lib/goose/parser.ml";
        "lib/goose/typecheck.ml"; "lib/goose/translate.ml"; "lib/goose/ast.ml" ]
  in
  let goose_lib = Loc.count_dir ~ext:[ ".go" ] "examples/goose" in
  let go_semantics =
    Loc.count_files [ "lib/goose/interp.ml"; "lib/goose/gvalue.ml" ] + Loc.count_dir "lib/gfs"
  in
  Fmt.pr "  %-34s %8s %8s@." "Component" "ours" "paper";
  Fmt.pr "  %-34s %8d %8d@." "Transition system language" ts 1710;
  Fmt.pr "  %-34s %8d %8d@." "Core framework" core 7220;
  Fmt.pr "  %-34s %8d %8d@." "Perennial total" (ts + core) 8930;
  Fmt.pr "  %-34s %8d %8d@." "Goose translator" goose_translator 1790;
  Fmt.pr "  %-34s %8d %8d@." "Goose library (Go sources)" goose_lib 220;
  Fmt.pr "  %-34s %8d %8d@." "Go semantics" go_semantics 2020

(* ------------------------------------------------------------------ *)
(* Table 3: crash-safety patterns — lines of code                       *)
(* ------------------------------------------------------------------ *)

let table3 () =
  section "Table 3: crash-safety patterns — lines of code";
  let rows =
    [
      ("Two-disk semantics", [ "lib/disk/two_disk.ml" ], 1350);
      ("Replicated disk", [ "lib/systems/replicated_disk.ml"; "lib/systems/rd_proof.ml" ], 1180);
      ( "Single-disk semantics",
        [ "lib/disk/single_disk.ml"; "lib/disk/locks.ml"; "lib/disk/block.ml" ],
        1310 );
      ("Shadow copy", [ "lib/systems/shadow_copy.ml" ], 390);
      ("Write-ahead logging", [ "lib/systems/wal.ml"; "lib/systems/wal_proof.ml" ], 930);
      ("Group commit", [ "lib/systems/group_commit.ml" ], 1410);
    ]
  in
  Fmt.pr "  %-34s %8s %8s@." "Example" "ours" "paper";
  List.iter
    (fun (name, files, paper) -> Fmt.pr "  %-34s %8d %8d@." name (Loc.count_files files) paper)
    rows;
  Fmt.pr "@.  (verdicts: perennial_check refinement and outlines)@."

(* ------------------------------------------------------------------ *)
(* Table 4: Mailboat vs CMAIL effort                                    *)
(* ------------------------------------------------------------------ *)

let table4 () =
  section "Table 4: Mailboat vs CMAIL effort (ours vs paper)";
  let impl_go =
    let src = Mailboat.Goose_src.source in
    List.length
      (List.filter
         (fun l ->
           let l = String.trim l in
           l <> "" && not (String.length l >= 2 && String.sub l 0 2 = "//"))
         (String.split_on_char '\n' src))
  in
  let proof = Loc.count_files [ "lib/mailboat/core.ml"; "lib/mailboat/core_ids.ml" ] in
  let framework =
    Loc.count_dir "lib/tslang" + Loc.count_dir "lib/core" + Loc.count_dir "lib/seplogic"
    + Loc.count_dir "lib/ra" + Loc.count_dir "lib/sched"
  in
  Fmt.pr "  %-34s %14s %14s@." "Component" "Mailboat(ours)" "CMAIL(paper)";
  Fmt.pr "  %-34s %14d %14s@." "Implementation (Go source)" impl_go "215 (Coq)";
  Fmt.pr "  %-34s %14d %14d@." "Spec + verification harness" proof 4050;
  Fmt.pr "  %-34s %14d %14d@." "Framework" framework 9600;
  Fmt.pr "  (paper's Mailboat: 159 impl / 3,360 proof / 8,900 framework — the point@.";
  Fmt.pr "   being reproduced: one abstraction relation, no intermediate layers,@.";
  Fmt.pr "   implementation smaller than CMAIL's despite adding crash safety)@.";
  Shape.check "table4" (impl_go < 215)

(* ------------------------------------------------------------------ *)
(* Simulated core-count sweeps (Figure 11, the KVS)                     *)
(* ------------------------------------------------------------------ *)

(* Print each series' throughput at every core count, then its latency
   percentiles at 12 cores; true when p50 <= p95 <= p99 in every series. *)
let sweep_table name (series : _ Mcsim.Sim.series list) =
  Fmt.pr "    %-18s" "cores:";
  List.iter (fun (pt : Mcsim.Sim.point) -> Fmt.pr "%8d" pt.cores) (List.hd series).points;
  Fmt.pr "@.";
  List.iter
    (fun (s : _ Mcsim.Sim.series) ->
      Fmt.pr "    %-18s" (name s.label);
      List.iter
        (fun (pt : Mcsim.Sim.point) -> Fmt.pr "%7.0fk" (pt.throughput_rps /. 1000.))
        s.points;
      Fmt.pr "@.")
    series;
  Fmt.pr "@.  Request latency at 12 cores (us, nearest-rank percentiles):@.";
  Fmt.pr "    %-18s%10s%10s%10s@." "" "p50" "p95" "p99";
  List.for_all
    (fun (s : _ Mcsim.Sim.series) ->
      let pt = Mcsim.Sim.at s 12 in
      Fmt.pr "    %-18s%10.1f%10.1f%10.1f@." (name s.label) pt.lat_p50_us pt.lat_p95_us
        pt.lat_p99_us;
      pt.lat_p50_us <= pt.lat_p95_us && pt.lat_p95_us <= pt.lat_p99_us)
    series

(* ------------------------------------------------------------------ *)
(* Figure 11: throughput scaling                                        *)
(* ------------------------------------------------------------------ *)

let fig11 () =
  section "Figure 11: mail-server throughput vs cores (simulated multicore)";
  Fmt.pr "  (workload: 50/50 SMTP deliver + POP3 pickup, 100 users, closed loop;@.";
  Fmt.pr "   substrate: discrete-event simulator — see DESIGN.md substitutions)@.@.";
  let series = Mcsim.Mail_model.figure11 ~requests:30_000 () in
  let lat_ordered = sweep_table Mailboat.Server.kind_name series in
  let find k = List.find (fun (s : _ Mcsim.Sim.series) -> s.label = k) series in
  let mb = find Mailboat.Server.Mailboat_server
  and gm = find Mailboat.Server.Gomail
  and cm = find Mailboat.Server.Cmail in
  let at = Mcsim.Sim.throughput_at in
  let r1 = at mb 1 /. at gm 1 and r2 = at gm 1 /. at cm 1 in
  let scale = at mb 12 /. at mb 1 in
  Fmt.pr "@.  shape checks (paper's §9.3 claims):@.";
  Fmt.pr "    Mailboat/GoMail at 1 core : %.2fx  (paper: 1.81x)@." r1;
  Fmt.pr "    GoMail/CMAIL at 1 core    : %.2fx  (paper: 1.34x)@." r2;
  Fmt.pr "    Mailboat 12-core speedup  : %.1fx  (sublinear, GC+kernel bound)@." scale;
  let ordered =
    List.for_all (fun c -> at mb c > at gm c && at gm c > at cm c) (List.init 12 (fun i -> i + 1))
  in
  Fmt.pr "    ordering Mailboat > GoMail > CMAIL at every core count: %b@." ordered;
  Fmt.pr "    p50 <= p95 <= p99 at 12 cores for every server: %b@." lat_ordered;
  Shape.check "fig11"
    (r1 > 1.5 && r1 < 2.2 && r2 > 1.15 && r2 < 1.6 && scale > 3. && scale < 11. && ordered
   && lat_ordered)

(* ------------------------------------------------------------------ *)
(* Checker scaling: state-space growth across instance sizes            *)
(* ------------------------------------------------------------------ *)

let scaling () =
  section "Checker scaling: exhaustive state space vs instance size";
  Fmt.pr "  %-44s %12s %12s %10s@." "instance" "executions" "steps" "time";
  let timed name cfg =
    let t0 = Unix.gettimeofday () in
    match R.check cfg with
    | R.Refinement_holds stats ->
      Fmt.pr "  %-44s %12d %12d %8.0fms@." name stats.R.executions stats.R.steps
        ((Unix.gettimeofday () -. t0) *. 1000.);
      true
    | R.Refinement_violated (f, _) ->
      Fmt.pr "  %-44s VIOLATED: %s@." name f.R.reason;
      false
    | R.Budget_exhausted _ ->
      Fmt.pr "  %-44s budget exhausted@." name;
      false
  in
  let module Rd = Systems.Replicated_disk in
  let vx = V.str "x" and vy = V.str "y" in
  let ok =
    List.map
      (fun f -> f ())
      [
        (fun () ->
          timed "rd: 1 writer, no crash"
            (Rd.checker_config ~may_fail:false ~max_crashes:0 ~size:1
               [ [ Rd.write_call 0 vx ] ]));
        (fun () ->
          timed "rd: 1 writer, 1 crash"
            (Rd.checker_config ~may_fail:false ~max_crashes:1 ~size:1
               [ [ Rd.write_call 0 vx ] ]));
        (fun () ->
          timed "rd: 1 writer, 1 crash, disk failures"
            (Rd.checker_config ~may_fail:true ~max_crashes:1 ~size:1
               [ [ Rd.write_call 0 vx ] ]));
        (fun () ->
          timed "rd: 2 writers, 1 crash, disk failures"
            (Rd.checker_config ~may_fail:true ~max_crashes:1 ~size:1
               [ [ Rd.write_call 0 vx ]; [ Rd.write_call 0 vy ] ]));
        (fun () ->
          timed "rd: 2 writers, 2 crashes, disk failures"
            (Rd.checker_config ~may_fail:true ~max_crashes:2 ~size:1
               [ [ Rd.write_call 0 vx ]; [ Rd.write_call 0 vy ] ]));
        (fun () ->
          timed "rd: 2 writers x 2 addresses, 1 crash"
            (Rd.checker_config ~may_fail:false ~max_crashes:1 ~size:2
               [ [ Rd.write_call 0 vx ]; [ Rd.write_call 1 vy ] ]));
        (fun () ->
          timed "mailboat: deliver || pickup, 1 crash"
            (Mailboat.Core.checker_config ~users:1 ~max_crashes:1
               [ [ Mailboat.Core.deliver_call 0 "ab" ];
                 [ Mailboat.Core.pickup_call 0; Mailboat.Core.unlock_call 0 ] ]));
      ]
  in
  Fmt.pr "@.  beyond this, the randomized checker takes over (test/test_random_check.ml)@.";
  Shape.check "scaling" (List.for_all Fun.id ok)

(* ------------------------------------------------------------------ *)
(* Extension: multi-address journal + transactional KVS                 *)
(* ------------------------------------------------------------------ *)

let kvs () =
  section "Extension: multi-address journal + transactional KVS (GoJournal rung)";
  Fmt.pr "  The fixed-pair WAL generalized: per-txn entry lists, a counted@.";
  Fmt.pr "  commit record, recovery replay, and a per-key-locked KV store@.";
  Fmt.pr "  with group commit on top.  Lines of code:@.@.";
  List.iter
    (fun (name, files) -> Fmt.pr "    %-40s %6d@." name (Loc.count_files files))
    [
      ("journal + kvs + proof (lib/journal)",
       [ "lib/journal/txn_log.ml"; "lib/journal/kvs.ml"; "lib/journal/kvs_proof.ml" ]);
      ("tests (test/test_journal.ml)", [ "test/test_journal.ml" ]);
    ];
  Fmt.pr "@.  Throughput vs cores (simulated; 70/25/5 get/put/txn, 16 keys):@.";
  let series = Mcsim.Kvs_model.sweep ~requests:20_000 () in
  let lat_ordered = sweep_table Mcsim.Kvs_model.variant_name series in
  let find v = List.find (fun (s : _ Mcsim.Sim.series) -> s.label = v) series in
  let at = Mcsim.Sim.throughput_at in
  let gl = find Mcsim.Kvs_model.Global_lock
  and pk = find Mcsim.Kvs_model.Per_key
  and gc = find Mcsim.Kvs_model.Group_commit in
  let ordered = at gc 12 > at pk 12 && at pk 12 > at gl 12 in
  let group_gain = at gc 12 /. at gl 12 in
  let global_flat = at gl 12 /. at gl 1 < 2.2 in
  let group_scales = at gc 12 /. at gc 1 > 2. in
  Fmt.pr "@.  shape checks:@.";
  Fmt.pr "    group-commit > per-key > global lock at 12 cores: %b@." ordered;
  Fmt.pr "    group-commit / global lock at 12 cores: %.2fx (> 1.4x)@." group_gain;
  Fmt.pr "    global lock flat (12-core speedup %.1fx < 2.2x): %b@."
    (at gl 12 /. at gl 1) global_flat;
  Fmt.pr "    group commit scales (12-core speedup %.1fx > 2x; Amdahl-capped@."
    (at gc 12 /. at gc 1);
  Fmt.pr "      by txn/flush quiesce + GC, like the paper's fig11): %b@." group_scales;
  Fmt.pr "    p50 <= p95 <= p99 at 12 cores for every variant: %b@." lat_ordered;
  Shape.check "kvs" (ordered && group_gain > 1.4 && global_flat && group_scales && lat_ordered)

(* ------------------------------------------------------------------ *)
(* Fault-budget sweeps (disk faults, network events)                    *)
(* ------------------------------------------------------------------ *)

(* Check [cfg budget] at budgets 0, 1 and 2, one row each.  The three
   stats when every run holds and the budget grows the state space:
   nothing injected at 0, something at 1, and strictly more executions at
   each step. *)
let budget_sweep ?strategy cfg =
  Fmt.pr "    %-8s %12s %8s %10s %8s %10s %10s@." "budget" "executions" "faults" "schedules"
    "retries" "cache-hits" "hits/exec";
  let rows =
    List.map
      (fun budget ->
        match R.check ?strategy (cfg budget) with
        | R.Refinement_holds st ->
          Fmt.pr "    %-8d %12d %8d %10d %8d %10d %10.2f@." budget st.R.executions
            st.R.faults_injected st.R.fault_schedules st.R.retries_observed st.R.cache_hits
            (float_of_int st.R.cache_hits /. float_of_int (max 1 st.R.executions));
          Some st
        | R.Refinement_violated _ | R.Budget_exhausted _ ->
          Fmt.pr "    %-8d UNEXPECTED verdict@." budget;
          None)
      [ 0; 1; 2 ]
  in
  match rows with
  | [ Some s0; Some s1; Some s2 ]
    when s0.R.faults_injected = 0 && s1.R.faults_injected > 0
         && s0.R.executions < s1.R.executions
         && s1.R.executions < s2.R.executions ->
    Some (s0, s1, s2)
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Fault injection: transient errors, torn writes, retry/degradation    *)
(* ------------------------------------------------------------------ *)

let faults () =
  section "Fault injection: transient I/O errors, torn writes, retry/degradation";
  let module RD = Systems.Replicated_disk in
  Fmt.pr "  Fault-eligible steps branch into their declared I/O faults (read/@.";
  Fmt.pr "  write errors, torn multi-block writes, disk loss); the checker@.";
  Fmt.pr "  enumerates every fault schedule up to a budget alongside every@.";
  Fmt.pr "  crash point.  Retry and degradation paths must refine graceful-@.";
  Fmt.pr "  degradation spec arms: each op either takes effect atomically or@.";
  Fmt.pr "  returns EIO with the state untouched.@.";
  let rd_cfg budget =
    RD.checker_config ~size:1 ~max_crashes:1 ~fault_budget:budget
      [ [ RD.write_ft_call 0 (V.str "x") ]; [ RD.read_ft_call 0 ] ]
  in
  Fmt.pr "@.  State-space growth with the fault budget (rd write_ft || read_ft,@.";
  Fmt.pr "  1 crash):@.";
  let growth_ok =
    match budget_sweep rd_cfg with
    | Some (_, _, s2) -> s2.R.retries_observed > 0
    | None -> false
  in
  Fmt.pr "@.  shape checks:@.";
  Fmt.pr "    fault branches grow the state space monotonically: %b@." growth_ok;
  Fmt.pr "  (verdicts: perennial_check faults)@.";
  Shape.check "faults" growth_ok

(* ------------------------------------------------------------------ *)
(* Extension: inode file system on the journal + spool re-host          *)
(* ------------------------------------------------------------------ *)

let fs () =
  section "Extension: inode file system on the journal (FSCQ/DaisyNFS rung)";
  let module L = Perennial_fs.Layout in
  let module Fs = Perennial_fs.Fs in
  Fmt.pr "  Bitmap allocator, inode table and directories over Txn_log@.";
  Fmt.pr "  transactions, checked against the atomic Gfs.Fs spec; Mailboat's@.";
  Fmt.pr "  spool re-hosted on it with rename as the atomic publish.  Lines@.";
  Fmt.pr "  of code:@.@.";
  List.iter
    (fun (name, files) -> Fmt.pr "    %-40s %6d@." name (Loc.count_files files))
    [
      ("file system + spool (lib/fs)",
       [ "lib/fs/layout.ml"; "lib/fs/bitmap.ml"; "lib/fs/inode.ml"; "lib/fs/dirent.ml";
         "lib/fs/fs.ml"; "lib/fs/spool.ml" ]);
      ("tests (test/test_fs.ml)", [ "test/test_fs.ml" ]);
    ];
  let p = Fs.params (L.v ~n_inodes:4 ~n_blocks:5 ()) in
  let ft_cfg budget =
    Fs.checker_config p ~dirs:[ "a" ]
      ~files:[ ("a", "f", "x") ]
      ~post:(Fs.probe p ~dirs:[ "a" ] ~files:[ ("a", "f"); ("a", "g") ])
      ~max_crashes:1 ~fault_budget:budget
      [ [ Fs.create_ft_call p "a" "g"; Fs.append_ft_call p "a" "f" "y" ] ]
  in
  Fmt.pr "@.  State-space growth with the fault budget (create_ft; append_ft,@.";
  Fmt.pr "  1 crash):@.";
  let growth_ok =
    match budget_sweep ft_cfg with
    | Some (_, _, s2) -> s2.R.retries_observed > 0
    | None -> false
  in
  Fmt.pr "@.  shape checks:@.";
  Fmt.pr "    fault branches grow the state space monotonically: %b@." growth_ok;
  Fmt.pr "  (verdicts: perennial_check fs)@.";
  Shape.check "fs" growth_ok

(* ------------------------------------------------------------------ *)
(* Extension: circular WAL — group commit and log absorption            *)
(* ------------------------------------------------------------------ *)

let wal () =
  section "Extension: circular WAL under the journal (group commit + absorption)";
  let module W = Perennial_wal.Wal in
  let module P = Sched.Prog in
  Fmt.pr "  The journal's log region driven as a circular ring: a background@.";
  Fmt.pr "  logger drains buffered multiwrites with group commit (one header@.";
  Fmt.pr "  install covers the whole batch) and log absorption (writes to the@.";
  Fmt.pr "  same address collapse before logging).  Lines of code:@.@.";
  List.iter
    (fun (name, files) -> Fmt.pr "    %-40s %6d@." name (Loc.count_files files))
    [
      ("circular log + wal (lib/wal)",
       [ "lib/wal/circ.ml"; "lib/wal/circ.mli"; "lib/wal/wal.ml"; "lib/wal/wal.mli" ]);
      ("tests (test/test_wal.ml)", [ "test/test_wal.ml" ]);
    ];
  let b = Disk.Block.of_string in
  (* Group-commit batch-size sweep: buffer k multiwrites, then one logger
     tick.  The trace tells us how many header installs the drain needed
     (group commit: one per batch) and the refinement checker how many
     executions the same batched workload costs exhaustively. *)
  Fmt.pr "@.  Group-commit batch sweep (k txns buffered, then one logger tick;@.";
  Fmt.pr "  2 hot addresses, ring cap 16):@.";
  Fmt.pr "    %-8s %8s %12s %14s %12s %10s@." "batch" "header" "txns/header"
    "records(raw)" "(absorbed)" "execs";
  let p = W.params ~n_data:2 ~cap:16 () in
  let p_raw = W.params ~absorb:false ~n_data:2 ~cap:16 () in
  let hdr_label = Printf.sprintf "disk_write_f(%d)" p.W.n_data in
  let sweep_ok = ref true in
  let prev_ratio = ref 0. in
  List.iter
    (fun k ->
      let txns = List.init k (fun i -> [ (i mod 2, b (string_of_int i)) ]) in
      let prog =
        List.fold_left
          (fun acc t -> P.Syntax.( let* ) acc (fun _ -> W.mwrite_prog p t))
          (P.return V.unit) txns
      in
      let prog = P.Syntax.( let* ) prog (fun _ -> W.logger_tick_prog p) in
      let outcome = Sched.Runner.run (W.init_world p) [ prog ] in
      let headers =
        List.length (List.filter (fun (_, l) -> l = hdr_label) outcome.Sched.Runner.trace)
      in
      let raw = List.length (W.batch_records p_raw txns) in
      let absorbed = List.length (W.batch_records p txns) in
      let execs =
        let calls = List.map (fun t -> W.mwrite_call p t) txns @ [ W.flush_call p k ] in
        match R.check (W.checker_config p ~max_crashes:1 [ calls ]) with
        | R.Refinement_holds st -> st.R.executions
        | R.Refinement_violated _ | R.Budget_exhausted _ ->
          sweep_ok := false;
          0
      in
      let ratio = float_of_int k /. float_of_int (max 1 headers) in
      Fmt.pr "    %-8d %8d %12.1f %14d %12d %10d@." k headers ratio raw absorbed execs;
      if headers <> 1 then sweep_ok := false;
      if ratio < !prev_ratio then sweep_ok := false;
      prev_ratio := ratio;
      (* absorption never grows the log; with 2 hot addresses, any batch
         beyond 2 has duplicates to absorb *)
      if absorbed > raw || (k > 2 && absorbed >= raw) then sweep_ok := false;
      if absorbed > 2 then sweep_ok := false)
    [ 1; 2; 4; 8 ];
  Fmt.pr "@.  shape checks:@.";
  Fmt.pr "    one header install per drained batch, absorption never grows the@.";
  Fmt.pr "      log and collapses duplicate addresses (records <= 2 hot addrs): %b@."
    !sweep_ok;
  Fmt.pr "  (verdicts: perennial_check wal)@.";
  Shape.check "wal" !sweep_ok

(* ------------------------------------------------------------------ *)
(* Extension: network adversary + exactly-once RPC (sharded KV)         *)
(* ------------------------------------------------------------------ *)

let net () =
  section "Extension: network adversary + exactly-once RPC (sharded KV)";
  let module SK = Dist.Shard_kv in
  let module E = Perennial_core.Explore in
  Fmt.pr "  Messages travel over modeled channels; the adversary enumerates@.";
  Fmt.pr "  loss, duplication, reordering and bounded delay as schedule@.";
  Fmt.pr "  dimensions, composed with crash points and interleavings.  The@.";
  Fmt.pr "  RPC layer (per-client seq numbers + reply cache) must make every@.";
  Fmt.pr "  op exactly-once; leases fence zombies by epoch.  Lines of code:@.@.";
  List.iter
    (fun (name, files) -> Fmt.pr "    %-40s %6d@." name (Loc.count_files files))
    [
      ("network model (lib/sched/net)", [ "lib/sched/net.ml"; "lib/sched/net.mli" ]);
      ("rpc + lease + sharded kv (lib/dist)",
       [ "lib/dist/rpc.ml"; "lib/dist/lease.ml"; "lib/dist/shard_kv.ml" ]);
      ("tests (test/test_net.ml)", [ "test/test_net.ml" ]);
    ];
  (* Adversary-budget sweep on the exactly-once inc instance (1 client with
     retry/timeout/backoff, 1 server; crashes off so the network dimension
     is isolated).  Each budget step admits one more adversarial event per
     execution; the client's retries and the server's reply-cache hits are
     the mechanism that keeps the op exactly-once through all of them. *)
  Fmt.pr "@.  Adversary-budget sweep (exactly-once inc, client || server,@.";
  Fmt.pr "  dpor+sleep):@.";
  let p = SK.params ~n_keys:1 ~n_clients:1 () in
  let sweep_cfg budget =
    SK.checker_config p ~max_crashes:0 ~fault_budget:budget
      [ [ SK.ninc_call p ~client:0 ~seq:0 0; SK.bye_call ]; [ SK.srv_call p 0 ] ]
  in
  let growth_ok, exercised =
    match budget_sweep ~strategy:E.Dpor_sleep sweep_cfg with
    | Some (s0, s1, s2) ->
      ( s0.R.fault_schedules = 0
        && 0 < s1.R.fault_schedules
        && s1.R.fault_schedules < s2.R.fault_schedules,
        List.for_all (fun s -> s.R.retries_observed > 0 && s.R.cache_hits > 0) [ s1; s2 ] )
    | None -> (false, false)
  in
  Fmt.pr "@.  shape checks:@.";
  Fmt.pr "    adversary budget grows the state space monotonically: %b@." growth_ok;
  Fmt.pr "    retries and reply-cache hits at every budget >= 1: %b@." exercised;
  Fmt.pr "  (verdicts: perennial_check net)@.";
  Shape.check "net" (growth_ok && exercised)

(* ------------------------------------------------------------------ *)
(* Parallel exploration: domain sweep                                   *)
(* ------------------------------------------------------------------ *)

let parallel () =
  section "Parallel exploration: multicore DFS across domain counts";
  let module E = Perennial_core.Explore in
  let host_cores = Domain.recommended_domain_count () in
  Fmt.pr "  host cores (recommended domain count): %d@." host_cores;
  Fmt.pr "  The work partition is a fixed function of split_depth, never of@.";
  Fmt.pr "  the domain count, so only wall time moves across the sweep@.";
  Fmt.pr "  (test/test_parallel.ml asserts identical verdicts and stats).@.@.";
  let instances =
    [ ("kvs put||get [naive]", C.kvs_put_get, E.Naive);
      ("kvs txn + crash in recovery [dpor+sleep]", C.kvs_txn, E.Dpor_sleep);
      ("journal commit||read + 1 fault [dpor+sleep]", C.journal_commit_read_fault, E.Dpor_sleep);
      ("fs create||append [naive]", C.fs_create_append_probed, E.Naive) ]
  in
  let sweep = [ 1; 2; 4; 8 ] in
  Fmt.pr "  %-44s %8s %8s %10s %8s@." "instance" "domains" "execs" "steps" "time";
  let fs_speedup = ref 0. in
  List.iter
    (fun (name, inst, strategy) ->
      let rows =
        List.map
          (fun n ->
            let t0 = Unix.gettimeofday () in
            let r = C.run ~strategy ~domains:n inst in
            let ms = (Unix.gettimeofday () -. t0) *. 1000. in
            (n, r, ms))
          sweep
      in
      List.iter
        (fun (n, r, ms) ->
          let st = R.stats_of r in
          Fmt.pr "  %-44s %8d %8d %10d %6.1fms@."
            (if n = 1 then name else "")
            n st.R.executions st.R.steps ms)
        rows;
      if inst == C.fs_create_append_probed then begin
        let ms_at d = match List.find (fun (n, _, _) -> n = d) rows with _, _, ms -> ms in
        fs_speedup := ms_at 1 /. Float.max (ms_at 8) 1e-6
      end)
    instances;
  Fmt.pr "@.  shape checks:@.";
  (* wall time only means something with cores to spread over, so a
     smaller host runs no gate and counts no check *)
  if host_cores < 4 then Fmt.pr "    speedup gate skipped (host cores %d < 4)@." host_cores
  else begin
    let speedup_ok = !fs_speedup >= 2. in
    Fmt.pr "    fs create||append 8-domain speedup %.2fx (required: >= 2x): %b@." !fs_speedup
      speedup_ok;
    Shape.check "parallel" speedup_ok
  end

(* ------------------------------------------------------------------ *)
(* Driver                                                               *)
(* ------------------------------------------------------------------ *)

let all =
  [ ("table1", table1); ("table2", table2); ("table3", table3); ("table4", table4);
    ("fig11", fig11); ("scaling", scaling); ("kvs", kvs); ("faults", faults); ("fs", fs);
    ("wal", wal); ("net", net); ("parallel", parallel) ]

let () =
  let chosen = List.filter (fun a -> a <> "--") (List.tl (Array.to_list Sys.argv)) in
  (match List.filter (fun a -> not (List.mem_assoc a all)) chosen with
  | [] -> ()
  | bad ->
    Fmt.epr "unknown section or flag: %s@.valid sections: %s@." (String.concat " " bad)
      (String.concat " " (List.map fst all));
    exit 2);
  let chosen = if chosen <> [] then chosen else List.map fst all in
  List.iter (fun name -> (List.assoc name all) ()) chosen;
  Shape.report ()
