(* The benchmark harness: one section per table and figure of the paper's
   evaluation (§9), per the experiment index in DESIGN.md.

     dune exec bench/main.exe            -- run everything
     dune exec bench/main.exe -- table2  -- one experiment
     (sections: table1 table2 table3 table4 fig11 patterns bugs scaling
      durability kvs strategies faults fs wal net parallel micro)

   Flags:
     --quick        skip the slow sections (fig11, micro)

   Every section ends in a shape check; the run exits 1 if any fails, and
   2 on an unknown section or flag.  Timing is bench/perf's job.

   Absolute numbers are produced by this repository's own substrate (pure
   OCaml, a discrete-event multicore simulator); the claims being reproduced
   are the *relative* ones — who wins, by what factor, and where the curves
   bend.  Each section prints the paper's numbers next to ours. *)

module V = Tslang.Value
module R = Perennial_core.Refinement
module O = Perennial_core.Outline
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
    rows;
  (* the camera laws and frame-preserving updates behind §5.3, checked live *)
  let module Str_eq = struct
    type t = string

    let equal = String.equal
    let compare = String.compare
    let pp = Fmt.string
  end in
  let module Ls = Ra.Lease.Make (Str_eq) in
  let module F = Ra.Fpu.Make (Ls) in
  let sample =
    [ Ls.unit; Ls.master 0 "a"; Ls.lease 0 "a"; Ls.lease 0 "b";
      Ls.op (Ls.master 0 "a") (Ls.lease 0 "a") ]
  in
  let module L = Ra.Laws.Make (Ls) in
  let laws_ok = L.check_sample sample = None in
  let write_fpu =
    F.ok1 ~frames:sample
      (Ls.op (Ls.master 0 "a") (Ls.lease 0 "a"))
      (Ls.op (Ls.master 0 "b") (Ls.lease 0 "b"))
  in
  let bare_master_fpu = F.ok1 ~frames:sample (Ls.master 0 "a") (Ls.master 0 "b") in
  Fmt.pr
    "@.  lease-camera laws over sample: %s; write fpu: %s; master-only fpu: %s (must be rejected)@."
    (if laws_ok then "hold" else "VIOLATED")
    (if write_fpu then "frame-preserving" else "REJECTED")
    (if bare_master_fpu then "ACCEPTED (BUG)" else "rejected");
  Shape.check "table1" (laws_ok && write_fpu && not bare_master_fpu)

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
(* Table 3: crash-safety patterns — LoC and verification statistics     *)
(* ------------------------------------------------------------------ *)

let contains s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

(* Check one catalog instance and print its line: VERIFIED with the stats,
   or CAUGHT with the counterexample's reason; any other result is a miss.
   With [~fault], a caught bug's counterexample lanes must also show the
   injected fault, unless the instance runs at fault budget 0. *)
let check ?strategy ?(fault = false) inst =
  let name = C.name inst in
  match (C.expect inst, C.run ?strategy inst) with
  | C.Holds, R.Refinement_holds stats ->
    Fmt.pr "    %-58s VERIFIED  %a@." name R.pp_stats stats;
    true
  | C.Violated, R.Refinement_violated (f, _) ->
    let ok =
      (not fault) || C.budget inst = C.Fixed 0
      || contains (Fmt.str "%a" R.pp_failure_lanes f) "FAULT"
    in
    Fmt.pr "    %-58s CAUGHT%s: %s@." name
      (if ok then "" else " (no FAULT in lanes!)")
      (String.sub f.R.reason 0 (min 60 (String.length f.R.reason)));
    ok
  | C.Holds, R.Refinement_violated (f, _) ->
    Fmt.pr "    %-58s VIOLATED  %s@." name f.R.reason;
    false
  | C.Violated, R.Refinement_holds _ ->
    Fmt.pr "    %-58s MISSED@." name;
    false
  | _, R.Budget_exhausted stats ->
    Fmt.pr "    %-58s BUDGET    %a@." name R.pp_stats stats;
    false

let table3 () =
  section "Table 3: crash-safety patterns — lines of code and verification";
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
  Fmt.pr "@.  Exhaustive verification of each pattern (interleavings x crash points):@.";
  let ok = List.map check C.[ rd_two_writers; shadow_copy; wal_recovery; group_commit ] in
  Fmt.pr "@.  Proof outlines (Theorem 2 premises):@.";
  List.iter
    (fun (name, r) -> Fmt.pr "    replicated-disk %-22s %a@." name O.pp_result r)
    (Systems.Rd_proof.check 1);
  List.iter
    (fun (name, r) -> Fmt.pr "    write-ahead-log %-22s %a@." name O.pp_result r)
    (Systems.Wal_proof.check ());
  List.iter
    (fun (name, r) -> Fmt.pr "    shadow-copy     %-22s %a@." name O.pp_result r)
    (Systems.Shadow_proof.check ());
  Shape.check "table3" (List.for_all Fun.id ok)

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
(* Figure 11: throughput scaling                                        *)
(* ------------------------------------------------------------------ *)

let fig11 () =
  section "Figure 11: mail-server throughput vs cores (simulated multicore)";
  Fmt.pr "  (workload: 50/50 SMTP deliver + POP3 pickup, 100 users, closed loop;@.";
  Fmt.pr "   substrate: discrete-event simulator — see DESIGN.md substitutions)@.@.";
  let series = Mcsim.Mail_model.figure11 ~requests:30_000 () in
  Fmt.pr "  %-9s" "cores:";
  List.iter (fun c -> Fmt.pr "%8d" c) (List.init 12 (fun i -> i + 1));
  Fmt.pr "@.";
  List.iter
    (fun s ->
      Fmt.pr "  %-9s" (Mailboat.Server.kind_name s.Mcsim.Mail_model.kind);
      List.iter
        (fun (p : Mcsim.Mail_model.point) -> Fmt.pr "%7.0fk" (p.throughput_rps /. 1000.))
        s.Mcsim.Mail_model.points;
      Fmt.pr "@.")
    series;
  Fmt.pr "@.  Request latency at 12 cores (us, nearest-rank percentiles):@.";
  Fmt.pr "    %-9s%10s%10s%10s@." "" "p50" "p95" "p99";
  let lat_ordered =
    List.map
      (fun s ->
        let pt =
          List.find
            (fun (p : Mcsim.Mail_model.point) -> p.cores = 12)
            s.Mcsim.Mail_model.points
        in
        Fmt.pr "    %-9s%10.1f%10.1f%10.1f@."
          (Mailboat.Server.kind_name s.Mcsim.Mail_model.kind)
          pt.lat_p50_us pt.lat_p95_us pt.lat_p99_us;
        pt.lat_p50_us <= pt.lat_p95_us && pt.lat_p95_us <= pt.lat_p99_us)
      series
    |> List.for_all Fun.id
  in
  let find k = List.find (fun (s : Mcsim.Mail_model.series) -> s.kind = k) series in
  let mb = find Mailboat.Server.Mailboat_server
  and gm = find Mailboat.Server.Gomail
  and cm = find Mailboat.Server.Cmail in
  let at s c = Mcsim.Mail_model.throughput_at s c in
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
(* §9.1/Figure 6: pattern walkthrough incl. helping                     *)
(* ------------------------------------------------------------------ *)

let patterns () =
  section "Patterns (E6): crash in the middle of rd_write, helping in recovery";
  let ok1 =
    check
      (C.v "rd_write crash at every step (Fig. 6)" (fun () ->
           Systems.Replicated_disk.checker_config ~may_fail:false ~max_crashes:1 ~size:1
             [ [ Systems.Replicated_disk.write_call 0 (V.str "v") ] ]))
  in
  let ok2 = check C.mailboat_deliver in
  Fmt.pr "@.  helping is *required*: WAL recovery without the Simulate ghost step:@.";
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
              [ O.Atomic [ O.Write_durable { loc = "data0"; value = Seplogic.Sval.var "r0" } ];
                O.Atomic [ O.Write_durable { loc = "data1"; value = Seplogic.Sval.var "r1" } ];
                O.Atomic [ O.Write_durable { loc = "flag"; value = Seplogic.Sval.str "e" } ] ];
              [];
            ];
          O.Crash_step;
        ];
    }
  in
  let helping_needed =
    match O.check_recovery Systems.Wal_proof.system broken with
    | O.Rejected why ->
      Fmt.pr "    rejected as it must be: %s@." (String.sub why 0 (min 100 (String.length why)));
      true
    | O.Accepted _ ->
      Fmt.pr "    UNEXPECTEDLY ACCEPTED@.";
      false
  in
  Shape.check "patterns" (ok1 && ok2 && helping_needed)

(* ------------------------------------------------------------------ *)
(* §9.5: the bug suite — every seeded bug must be caught                *)
(* ------------------------------------------------------------------ *)

let bugs () =
  section "Bug suite (E7, §9.5): seeded bugs must be rejected";
  let results = List.map check C.bugs in
  (* the §9.5 infinite-pickup bug, caught by execution rather than proof *)
  let loop_caught =
    let w = Mailboat.Core.init_world ~users:1 () in
    let fs, fd = Option.get (Gfs.Fs.create w.Mailboat.Core.fs "user0" "m0") in
    let fs = Option.get (Gfs.Fs.append fs fd "abcdef") in
    let w = { w with Mailboat.Core.fs } in
    match Sched.Runner.run ~max_steps:5_000 w [ Mailboat.Core.Buggy.pickup_infinite_loop 0 ] with
    | exception Failure _ ->
      Fmt.pr "    %-58s CAUGHT: step budget (diverges)@."
        "mailboat: >1-chunk pickup loop (§9.5)";
      true
    | _ ->
      Fmt.pr "    %-58s MISSED@." "mailboat: >1-chunk pickup loop";
      false
  in
  Shape.check "bugs" (List.for_all Fun.id results && loop_caught)

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
(* Extension: deferred durability (the paper's §1 future-work item)     *)
(* ------------------------------------------------------------------ *)

let durability () =
  section "Extension: deferred durability (buffered writes + fsync)";
  Fmt.pr "  The paper's file-system model makes every write durable; §1 calls@.";
  Fmt.pr "  deferred durability future work.  Our Fs supports it, and the@.";
  Fmt.pr "  checker shows exactly what it costs Mailboat:@.@.";
  Shape.check "durability"
    (List.for_all check C.[ mailboat_deferred; mailboat_fsync_deferred; mailboat_fsync_sync ])

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
  Fmt.pr "@.  Exhaustive verification (interleavings x crash points):@.";
  let held = List.map check (C.journal_commit_read :: C.kvs) in
  Fmt.pr "@.  Seeded bugs (must be rejected):@.";
  let caught =
    List.map check C.[ journal_record_first; kvs_txn_no_log; kvs_skip_buffer; kvs_strict_spec ]
  in
  Fmt.pr "@.  Proof outlines (Theorem 2 premises, 2-key instance):@.";
  let outlines = Journal.Kvs_proof.check () in
  List.iter
    (fun (name, r) -> Fmt.pr "    journal-kvs %-22s %a@." name O.pp_result r)
    outlines;
  let outline_ok =
    List.for_all (fun (_, r) -> match r with O.Accepted _ -> true | O.Rejected _ -> false) outlines
  in
  let buggy_outline_rejected =
    match Journal.Kvs_proof.check_buggy () with
    | O.Rejected why ->
      Fmt.pr "    record-first txn outline REJECTED: %s@."
        (String.sub why 0 (min 60 (String.length why)));
      true
    | O.Accepted _ ->
      Fmt.pr "    record-first txn outline UNEXPECTEDLY ACCEPTED@.";
      false
  in
  Fmt.pr "@.  Throughput vs cores (simulated; 70/25/5 get/put/txn, 16 keys):@.";
  let series = Mcsim.Kvs_model.sweep ~requests:20_000 () in
  Fmt.pr "    %-18s" "cores:";
  List.iter (fun c -> Fmt.pr "%8d" c) (List.init 12 (fun i -> i + 1));
  Fmt.pr "@.";
  List.iter
    (fun (s : Mcsim.Kvs_model.series) ->
      Fmt.pr "    %-18s" (Mcsim.Kvs_model.variant_name s.variant);
      List.iter
        (fun (pt : Mcsim.Kvs_model.point) -> Fmt.pr "%7.0fk" (pt.throughput_rps /. 1000.))
        s.points;
      Fmt.pr "@.")
    series;
  Fmt.pr "@.  Request latency at 12 cores (us, nearest-rank percentiles):@.";
  Fmt.pr "    %-18s%10s%10s%10s@." "" "p50" "p95" "p99";
  let lat_ordered =
    List.map
      (fun (s : Mcsim.Kvs_model.series) ->
        let pt =
          List.find (fun (p : Mcsim.Kvs_model.point) -> p.cores = 12) s.points
        in
        Fmt.pr "    %-18s%10.1f%10.1f%10.1f@."
          (Mcsim.Kvs_model.variant_name s.variant)
          pt.lat_p50_us pt.lat_p95_us pt.lat_p99_us;
        pt.lat_p50_us <= pt.lat_p95_us && pt.lat_p95_us <= pt.lat_p99_us)
      series
    |> List.for_all Fun.id
  in
  let find v = List.find (fun (s : Mcsim.Kvs_model.series) -> s.variant = v) series in
  let at s c = Mcsim.Kvs_model.throughput_at s c in
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
  Shape.check "kvs"
    (List.for_all Fun.id held && List.for_all Fun.id caught && outline_ok
    && buggy_outline_rejected && ordered && group_gain > 1.4 && global_flat && group_scales
    && lat_ordered)

(* ------------------------------------------------------------------ *)
(* Exploration strategies: naive vs DPOR vs DPOR+sleep                  *)
(* ------------------------------------------------------------------ *)

let strategies () =
  section "Exploration strategies: naive vs DPOR vs DPOR+sleep sets";
  let module E = Perennial_core.Explore in
  Fmt.pr "  Partial-order reduction prunes interleavings of commuting steps@.";
  Fmt.pr "  (disjoint footprints) and crash points that reach already-explored@.";
  Fmt.pr "  recovery states; the verdict must never change (differential@.";
  Fmt.pr "  harness: test/test_explore.ml).@.@.";
  Fmt.pr "  %-50s %-11s %8s %10s %8s %7s %7s %8s@." "instance" "strategy" "execs"
    "steps" "pruned" "crashsk" "sleepsk" "time";
  let ok = ref true in
  let kvs_reduction = ref 0. in
  List.iter
    (fun inst ->
      let name = C.name inst in
      let rows =
        List.map
          (fun s ->
            let t0 = Unix.gettimeofday () in
            let r = C.run ~strategy:s inst in
            let ms = (Unix.gettimeofday () -. t0) *. 1000. in
            (s, r, ms))
          E.all_strategies
      in
      let naive_st =
        let _, r, _ = List.find (fun (s, _, _) -> s = E.Naive) rows in
        R.stats_of r
      in
      List.iter
        (fun (s, r, ms) ->
          let st = R.stats_of r in
          Fmt.pr "  %-50s %-11s %8d %10d %8d %7d %7d %6.1fms@."
            (if s = E.Naive then name else "")
            (E.strategy_name s) st.R.executions st.R.steps st.R.commutations_pruned
            st.R.crash_skips st.R.sleep_skips ms;
          if inst == C.kvs_put_get && s = E.Dpor then
            kvs_reduction :=
              float_of_int naive_st.R.executions /. float_of_int (max 1 st.R.executions))
        rows;
      List.iter
        (fun problem ->
          Fmt.pr "    GUARD BROKEN: %s@." problem;
          ok := false)
        (C.guard (List.map (fun (s, r, _) -> (s, r)) rows)))
    C.strategies;
  Fmt.pr "@.  shape checks:@.";
  Fmt.pr "    verdicts agree and reduced strategies never explore more: %b@." !ok;
  Fmt.pr "    kvs put||get reduction under dpor: %.1fx (required: >= 3x)@." !kvs_reduction;
  Shape.check "strategies" (!ok && !kvs_reduction >= 3.)

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
  Fmt.pr "    %-8s %12s %8s %10s %8s@." "budget" "executions" "faults" "schedules" "retries";
  let growth =
    List.map
      (fun budget ->
        match R.check (rd_cfg budget) with
        | R.Refinement_holds st ->
          Fmt.pr "    %-8d %12d %8d %10d %8d@." budget st.R.executions st.R.faults_injected
            st.R.fault_schedules st.R.retries_observed;
          Some st
        | R.Refinement_violated _ | R.Budget_exhausted _ ->
          Fmt.pr "    %-8d UNEXPECTED verdict@." budget;
          None)
      [ 0; 1; 2 ]
  in
  let growth_ok =
    match growth with
    | [ Some s0; Some s1; Some s2 ] ->
      s0.R.faults_injected = 0 && s1.R.faults_injected > 0
      && s0.R.executions < s1.R.executions
      && s1.R.executions < s2.R.executions
      && s2.R.retries_observed > 0
    | _ -> false
  in
  Fmt.pr "@.  Exhaustive verification at fault budget 2 (faults x crashes x@.";
  Fmt.pr "  interleavings); each seeded fault-handling bug must be caught with@.";
  Fmt.pr "  the injected fault visible in the counterexample lanes:@.";
  let checked = List.for_all Fun.id (List.map (check ~fault:true) C.faults) in
  Fmt.pr "@.  shape checks:@.";
  Fmt.pr "    fault branches grow the state space monotonically: %b@." growth_ok;
  Fmt.pr "    retry/degradation paths verified at budget 2, seeded fault bugs@.";
  Fmt.pr "      caught with FAULT in lanes: %b@." checked;
  Shape.check "faults" (growth_ok && checked)

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
  Fmt.pr "    %-8s %12s %8s %10s %8s@." "budget" "executions" "faults" "schedules" "retries";
  let growth =
    List.map
      (fun budget ->
        match R.check (ft_cfg budget) with
        | R.Refinement_holds st ->
          Fmt.pr "    %-8d %12d %8d %10d %8d@." budget st.R.executions st.R.faults_injected
            st.R.fault_schedules st.R.retries_observed;
          Some st
        | R.Refinement_violated _ | R.Budget_exhausted _ ->
          Fmt.pr "    %-8d UNEXPECTED verdict@." budget;
          None)
      [ 0; 1; 2 ]
  in
  let growth_ok =
    match growth with
    | [ Some s0; Some s1; Some s2 ] ->
      s0.R.faults_injected = 0 && s1.R.faults_injected > 0
      && s0.R.executions < s1.R.executions
      && s1.R.executions < s2.R.executions
      && s2.R.retries_observed > 0
    | _ -> false
  in
  Fmt.pr "@.  Exhaustive verification (interleavings x crash points); each@.";
  Fmt.pr "  seeded crash-safety bug must be rejected:@.";
  let checked = List.for_all Fun.id (List.map check C.fs) in
  Fmt.pr "@.  shape checks:@.";
  Fmt.pr "    fault branches grow the state space monotonically: %b@." growth_ok;
  Fmt.pr "    fs + spool refinement verified, seeded fs bugs caught: %b@." checked;
  Shape.check "fs" (growth_ok && checked)

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
  Fmt.pr "@.  Exhaustive verification (interleavings x crash points); each@.";
  Fmt.pr "  seeded WAL bug must be rejected:@.";
  let checked = List.for_all Fun.id (List.map check C.wal) in
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
  Fmt.pr "    wal refinement verified, seeded wal bugs caught: %b@." checked;
  Fmt.pr "    one header install per drained batch, absorption never grows the@.";
  Fmt.pr "      log and collapses duplicate addresses (records <= 2 hot addrs): %b@."
    !sweep_ok;
  Shape.check "wal" (checked && !sweep_ok)

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
  Fmt.pr "    %-8s %10s %12s %8s %10s %10s@." "budget" "schedules" "executions"
    "retries" "cache-hits" "hits/exec";
  let p = SK.params ~n_keys:1 ~n_clients:1 () in
  let sweep_cfg budget =
    SK.checker_config p ~max_crashes:0 ~fault_budget:budget
      [ [ SK.ninc_call p ~client:0 ~seq:0 0; SK.bye_call ]; [ SK.srv_call p 0 ] ]
  in
  let growth =
    List.map
      (fun budget ->
        match R.check ~strategy:E.Dpor_sleep (sweep_cfg budget) with
        | R.Refinement_holds st ->
          let rate = float_of_int st.R.cache_hits /. float_of_int (max 1 st.R.executions) in
          Fmt.pr "    %-8d %10d %12d %8d %10d %10.2f@." budget st.R.fault_schedules
            st.R.executions st.R.retries_observed st.R.cache_hits rate;
          Some st
        | R.Refinement_violated _ | R.Budget_exhausted _ ->
          Fmt.pr "    %-8d UNEXPECTED verdict@." budget;
          None)
      [ 0; 1; 2 ]
  in
  let growth_ok, exercised =
    match growth with
    | [ Some s0; Some s1; Some s2 ] ->
      ( s0.R.faults_injected = 0
        && s0.R.fault_schedules = 0
        && s1.R.faults_injected > 0
        && s0.R.executions < s1.R.executions
        && s1.R.executions < s2.R.executions
        && s0.R.fault_schedules < s1.R.fault_schedules
        && s1.R.fault_schedules < s2.R.fault_schedules,
        List.for_all (fun s -> s.R.retries_observed > 0 && s.R.cache_hits > 0) [ s1; s2 ] )
    | _ -> (false, false)
  in
  Fmt.pr "@.  Exhaustive verification (network x crash x interleavings,@.";
  Fmt.pr "  dpor+sleep); each seeded network bug must be caught, the@.";
  Fmt.pr "  adversarial event showing up as a FAULT line in its lanes:@.";
  let checked =
    List.for_all Fun.id (List.map (check ~strategy:E.Dpor_sleep ~fault:true) C.net)
  in
  Fmt.pr "@.  shape checks:@.";
  Fmt.pr "    adversary budget grows the state space monotonically: %b@." growth_ok;
  Fmt.pr "    retries and reply-cache hits at every budget >= 1: %b@." exercised;
  Fmt.pr "    exactly-once + lease fencing verified under the adversary, seeded@.";
  Fmt.pr "      network bugs caught: %b@." checked;
  Shape.check "net" (growth_ok && exercised && checked)

(* ------------------------------------------------------------------ *)
(* Parallel exploration: domain sweep + fingerprint pruning             *)
(* ------------------------------------------------------------------ *)

let parallel () =
  section "Parallel exploration: multicore DFS, fingerprinting, symmetry";
  let module E = Perennial_core.Explore in
  let module RD = Systems.Replicated_disk in
  let host_cores = Domain.recommended_domain_count () in
  Fmt.pr "  host cores (recommended domain count): %d@." host_cores;
  Fmt.pr "  The work partition is a fixed function of split_depth, never of@.";
  Fmt.pr "  the domain count: verdicts and execution counts must be identical@.";
  Fmt.pr "  across the sweep — wall time is the only thing allowed to move.@.@.";
  let instances =
    [ ("kvs put||get [naive]", C.kvs_put_get, E.Naive);
      ("kvs txn + crash in recovery [dpor+sleep]", C.kvs_txn, E.Dpor_sleep);
      ("journal commit||read + 1 fault [dpor+sleep]", C.journal_commit_read_fault, E.Dpor_sleep);
      ("fs create||append [naive]", C.fs_create_append_probed, E.Naive) ]
  in
  let sweep = [ 1; 2; 4; 8 ] in
  Fmt.pr "  %-44s %8s %8s %10s %8s@." "instance" "domains" "execs" "steps" "time";
  let deterministic = ref true in
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
      let _, base, _ = List.hd rows in
      List.iter
        (fun (n, r, ms) ->
          let st = R.stats_of r in
          Fmt.pr "  %-44s %8d %8d %10d %6.1fms@."
            (if n = 1 then name else "")
            n st.R.executions st.R.steps ms;
          if R.verdict_name r <> R.verdict_name base || R.stats_of base <> st then begin
            Fmt.pr "    DETERMINISM VIOLATION: domains=%d diverged from domains=1@." n;
            deterministic := false
          end)
        rows;
      if inst == C.fs_create_append_probed then begin
        let ms_at d = match List.find (fun (n, _, _) -> n = d) rows with _, _, ms -> ms in
        fs_speedup := ms_at 1 /. Float.max (ms_at 8) 1e-6
      end)
    instances;
  (* fingerprint pruning: same verdict, strictly fewer executions *)
  Fmt.pr "@.  fingerprint pruning (naive strategy, kvs put||get):@.";
  let plain = C.run C.kvs_put_get in
  let fp = C.run ~fingerprint:true C.kvs_put_get in
  let fp_st = R.stats_of fp in
  Fmt.pr "    plain: %d executions; fingerprinted: %d (%d hits, %d misses)@."
    (R.stats_of plain).R.executions fp_st.R.executions fp_st.R.fingerprint_hits
    fp_st.R.fingerprint_misses;
  (* symmetry: two interchangeable writers collapse further *)
  let sym_cfg =
    RD.checker_config ~may_fail:false ~max_crashes:1 ~size:1
      [ [ RD.write_call 0 (V.str "x") ]; [ RD.write_call 0 (V.str "x") ] ]
  in
  let sym_fp = R.stats_of (R.check ~fingerprint:true sym_cfg) in
  let sym = R.stats_of (R.check ~fingerprint:true ~symmetry:true sym_cfg) in
  Fmt.pr "  symmetry (rd, two identical writers):@.";
  Fmt.pr "    fingerprint misses %d -> with symmetry %d@." sym_fp.R.fingerprint_misses
    sym.R.fingerprint_misses;
  let fp_prunes =
    fp_st.R.fingerprint_hits > 0
    && fp_st.R.executions < (R.stats_of plain).R.executions
    && R.verdict_name fp = R.verdict_name plain
  in
  let sym_ok = sym.R.fingerprint_misses <= sym_fp.R.fingerprint_misses in
  Fmt.pr "@.  shape checks:@.";
  Fmt.pr "    stats identical across the domain sweep: %b@." !deterministic;
  Fmt.pr "    fingerprinting prunes without changing the verdict: %b@." fp_prunes;
  Fmt.pr "    symmetry never explores more classes than plain fingerprints: %b@." sym_ok;
  (* wall time only means something with cores to spread over *)
  let speedup_ok = host_cores < 4 || !fs_speedup >= 2. in
  if host_cores < 4 then Fmt.pr "    speedup gate skipped (host cores %d < 4)@." host_cores
  else
    Fmt.pr "    fs create||append 8-domain speedup %.2fx (required: >= 2x): %b@." !fs_speedup
      speedup_ok;
  Shape.check "parallel" (!deterministic && fp_prunes && sym_ok && speedup_ok)

(* ------------------------------------------------------------------ *)
(* Micro-benchmarks (Bechamel)                                          *)
(* ------------------------------------------------------------------ *)

let micro () =
  section "Micro-benchmarks (Bechamel; supports the cost-model calibration)";
  let open Bechamel in
  let open Toolkit in
  let tmpfs_test =
    let fs = Gfs.Tmpfs.init [ "d" ] in
    let counter = ref 0 in
    Test.make ~name:"tmpfs create+append+close"
      (Staged.stage (fun () ->
           incr counter;
           let name = "f" ^ string_of_int !counter in
           match Gfs.Tmpfs.create fs "d" name with
           | Some fd ->
             ignore (Gfs.Tmpfs.append fs fd "payload");
             ignore (Gfs.Tmpfs.close fs fd)
           | None -> ()))
  in
  let server = Mailboat.Server.create ~kind:Mailboat.Server.Mailboat_server ~users:100 () in
  let deliver_test =
    Test.make ~name:"mailboat deliver (1 KB)"
      (Staged.stage (fun () ->
           ignore (Mailboat.Server.deliver server ~user:3 Mailboat.Workload.message_body)))
  in
  let pickup_test =
    Test.make ~name:"mailboat pickup session"
      (Staged.stage (fun () ->
           let msgs = Mailboat.Server.pickup server ~user:4 in
           List.iter (fun (id, _) -> Mailboat.Server.delete server ~user:4 id) msgs;
           Mailboat.Server.unlock server ~user:4))
  in
  let rd_check_test =
    Test.make ~name:"refinement check: rd writer+crash"
      (Staged.stage (fun () ->
           ignore
             (R.check
                (Systems.Replicated_disk.checker_config ~may_fail:false ~max_crashes:1
                   ~size:1
                   [ [ Systems.Replicated_disk.write_call 0 (V.str "x") ] ]))))
  in
  let outline_test =
    Test.make ~name:"outline check: rd_write proof"
      (Staged.stage (fun () ->
           ignore (O.check_op (Systems.Rd_proof.system 1) (Systems.Rd_proof.write_outline 0))))
  in
  let goose_parse_test =
    Test.make ~name:"goose: parse+typecheck mailboat.go"
      (Staged.stage (fun () ->
           let f = Goose.Parser.parse_file Mailboat.Goose_src.source in
           Goose.Typecheck.check_file f))
  in
  let goose_run_test =
    let file = Goose.Parser.parse_file Mailboat.Goose_src.source in
    let it = Goose.Interp.make file in
    let w = Goose.Interp.init_world ~dirs:[ "spool"; "user0" ] () in
    let counter = ref 0 in
    Test.make ~name:"goose: interpret Deliver"
      (Staged.stage (fun () ->
           incr counter;
           ignore
             (Sched.Runner.run ~policy:(Sched.Runner.Random !counter) w
                [ Goose.Interp.run_func_value it "Deliver"
                    [ Goose.Gvalue.VInt 0; Goose.Gvalue.VString "hello" ] ])))
  in
  let tests =
    [ tmpfs_test; deliver_test; pickup_test; rd_check_test; outline_test; goose_parse_test;
      goose_run_test ]
  in
  List.iter
    (fun test ->
      let instances = Instance.[ monotonic_clock ] in
      let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:(Some 1000) () in
      let raw = Benchmark.all cfg instances test in
      let ols = Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |] in
      let results = Analyze.all ols Instance.monotonic_clock raw in
      Hashtbl.iter
        (fun name result ->
          match Analyze.OLS.estimates result with
          | Some [ est ] -> Fmt.pr "  %-40s %12.1f ns/run@." name est
          | Some _ | None -> Fmt.pr "  %-40s (no estimate)@." name)
        results)
    tests

(* ------------------------------------------------------------------ *)
(* Driver                                                               *)
(* ------------------------------------------------------------------ *)

let all =
  [ ("table1", table1); ("table2", table2); ("table3", table3); ("table4", table4);
    ("fig11", fig11); ("patterns", patterns); ("bugs", bugs); ("scaling", scaling);
    ("durability", durability); ("kvs", kvs); ("strategies", strategies);
    ("faults", faults); ("fs", fs); ("wal", wal); ("net", net); ("parallel", parallel);
    ("micro", micro) ]

let slow_sections = [ "fig11"; "micro" ]

let () =
  let args = List.filter (fun a -> a <> "--") (List.tl (Array.to_list Sys.argv)) in
  let quick = List.mem "--quick" args in
  let chosen = List.filter (fun a -> a <> "--quick") args in
  (match List.filter (fun a -> not (List.mem_assoc a all)) chosen with
  | [] -> ()
  | bad ->
    Fmt.epr "unknown section or flag: %s@.valid sections: %s@.flags: --quick@."
      (String.concat " " bad) (String.concat " " (List.map fst all));
    exit 2);
  let chosen =
    if chosen <> [] then chosen
    else if quick then
      List.filter (fun n -> not (List.mem n slow_sections)) (List.map fst all)
    else List.map fst all
  in
  List.iter (fun name -> (List.assoc name all) ()) chosen;
  Shape.report ()
