(* perennial_check: run every verification artifact in the repository and
   print a report — the outline proofs (Theorem 2's premises) and the
   exhaustive refinement checks (its conclusion) for each system.  Every
   selection but outlines runs one group of lib/catalog's instances: each
   instance carries its name, expected verdict (a seeded bug must be
   caught) and how the --faults budget applies to it.

   Usage: perennial_check [outlines|refinement|kvs|wal|fs|faults|net|strategies|all]
                          [--strategy naive|dpor|dpor+sleep]
                          [--faults N] [--max-seconds S]
                          [--domains N] [--fingerprint] [--symmetry]
                          [--trace FILE] [--metrics]
                          [--coverage] [--coverage-out FILE]
                          [--explain] [--progress]

   --trace FILE  write a Chrome trace_event JSON of the run (load it in
                 chrome://tracing or ui.perfetto.dev): span events for the
                 exploration/recovery/post phases, instant events for every
                 injected crash or fault.
   --metrics     after the report, print the refinement checks' wall time
                 split into explore (whole checks), recovery and post
                 phases, in microseconds, plus the parallel work items and
                 steals.  Every count is in the per-check stats lines.
   --coverage    enable the site registry: every crash point, fault point,
                 and spec arm the checks could exercise is registered, hits
                 are counted, and a coverage report (with the vacuity list
                 of never-exercised sites) is printed after the run.
   --coverage-out FILE  also write the perennial-coverage/v1 JSON report.
   --explain     record pruning provenance and print the ranked report of
                 which (rule, site) pairs the reduction skipped and why —
                 meaningful with --strategy dpor or dpor+sleep.
   --progress    print a live one-line progress status (execs/sec, frontier
                 depth, fault-schedule index, budget ETA) to stderr.
   --strategy    exploration strategy for the exhaustive checks (default
                 naive); the strategies selection cross-checks all of them
                 against each other and fails on any verdict mismatch or
                 pruning regression (DPOR exploring MORE than naive).
   --faults N    per-execution fault budget (default 2) for the instances
                 whose catalog entry takes it — every faults instance, and
                 the fault-injecting wal and fs ones: the checker
                 enumerates every schedule of at most N injected I/O faults
                 alongside crash points.  The net selection reuses it as
                 the network-event budget, capped at 1 (network schedules
                 branch at every send/recv, so larger budgets explode).
   --max-seconds S  wall-clock budget per exhaustive check; exceeding it
                 reports budget exhaustion instead of hanging.
   --domains N   run every exhaustive check on N domains (OCaml 5
                 multicore).  Verdicts, counterexamples and stats are
                 identical to the sequential run; only wall time changes.
   --fingerprint hash-consed state fingerprinting: prune subtrees whose
                 canonical state was already explored (naive strategy
                 only — the checker rejects it under dpor).
   --symmetry    additionally canonicalize interchangeable threads before
                 fingerprinting (implies --fingerprint). *)

module R = Perennial_core.Refinement
module O = Perennial_core.Outline
module E = Perennial_core.Explore
module C = Perennial_catalog.Catalog

let ok = ref 0
let failed = ref 0

(* --max-seconds: wall-clock budget applied to every exhaustive check *)
let max_secs : float option ref = ref None

(* --domains: run every exhaustive check on N domains (same verdicts and
   stats as sequential; see Refinement.check) *)
let domains : int option ref = ref None

(* --fingerprint / --symmetry: hash-consed state pruning (naive strategy) *)
let fingerprint = ref false
let symmetry = ref false

let rcheck ?faults ~strategy inst =
  (* fingerprinting is naive-only; the strategies cross-check iterates all
     strategies, so apply it just to the naive runs there *)
  let fp = !fingerprint && strategy = E.Naive in
  C.run ~strategy ?faults ?max_seconds:!max_secs ?domains:!domains ~fingerprint:fp
    ~symmetry:(!symmetry && fp) inst

let report name result =
  match result with
  | Ok detail ->
    incr ok;
    Printf.printf "  [OK]   %-50s %s\n%!" name detail
  | Error detail ->
    incr failed;
    Printf.printf "  [FAIL] %-50s %s\n%!" name detail

let outline_result = function
  | O.Accepted r -> Ok (Fmt.str "%a" O.pp_report r)
  | O.Rejected why -> Error why

let run_outlines () =
  print_endline "Proof outlines (premises of Theorem 2, per system):";
  List.iter
    (fun (name, r) -> report ("replicated-disk " ^ name) (outline_result r))
    (Systems.Rd_proof.check 2);
  List.iter
    (fun (name, r) -> report ("write-ahead-log " ^ name) (outline_result r))
    (Systems.Wal_proof.check ());
  List.iter
    (fun (name, r) -> report ("shadow-copy " ^ name) (outline_result r))
    (Systems.Shadow_proof.check ());
  List.iter
    (fun (name, r) -> report ("cached-block " ^ name) (outline_result r))
    (Systems.Cached_proof.check ())

(* One report line per catalog instance: a positive instance reports its
   stats, a seeded bug the counterexample that caught it. *)
let instance_result inst r =
  match (C.expect inst, r) with
  | C.Holds, R.Refinement_holds stats -> Ok (Fmt.str "%a" R.pp_stats stats)
  | C.Holds, R.Refinement_violated (f, _) -> Error f.R.reason
  | C.Violated, R.Refinement_violated (f, stats) ->
    Ok (Fmt.str "caught: %s (%a)" f.R.reason R.pp_stats stats)
  | C.Violated, R.Refinement_holds stats ->
    Error (Fmt.str "seeded bug NOT caught (%a)" R.pp_stats stats)
  | _, R.Budget_exhausted stats -> Error (Fmt.str "budget exhausted (%a)" R.pp_stats stats)

let run_group ~strategy ~faults header group =
  print_endline header;
  List.iter
    (fun inst -> report (C.name inst) (instance_result inst (rcheck ~strategy ~faults inst)))
    group

(* Cross-strategy guard: every strategy must reach the same verdict on the
   bundled instances, and the reduced strategies must never explore more
   executions than naive.  This is the CI pruning-regression gate. *)
let run_strategies () =
  print_endline "Exploration-strategy cross-check (verdicts + pruning guard):";
  List.iter
    (fun inst ->
      let res = List.map (fun s -> (s, rcheck ~strategy:s inst)) E.all_strategies in
      let detail =
        String.concat " "
          (List.map
             (fun (s, r) ->
               Fmt.str "%s=%s/%d" (E.strategy_name s) (R.verdict_name r)
                 (R.stats_of r).R.executions)
             res)
      in
      report (C.name inst)
        (match C.guard res with [] -> Ok detail | ps -> Error (String.concat "; " ps)))
    C.strategies

let () =
  let trace_file = ref None in
  let metrics = ref false in
  let coverage = ref false in
  let coverage_out = ref None in
  let explain = ref false in
  let progress = ref false in
  let strategy = ref E.Naive in
  let faults = ref 2 in
  let what = ref "all" in
  let rec parse = function
    | [] -> ()
    | "--trace" :: file :: rest ->
      trace_file := Some file;
      parse rest
    | "--trace" :: [] ->
      prerr_endline "perennial_check: --trace needs a file argument";
      exit 2
    | "--metrics" :: rest ->
      metrics := true;
      parse rest
    | "--coverage" :: rest ->
      coverage := true;
      parse rest
    | "--coverage-out" :: file :: rest ->
      coverage := true;
      coverage_out := Some file;
      parse rest
    | "--coverage-out" :: [] ->
      prerr_endline "perennial_check: --coverage-out needs a file argument";
      exit 2
    | "--explain" :: rest ->
      explain := true;
      parse rest
    | "--progress" :: rest ->
      progress := true;
      parse rest
    | "--faults" :: n :: rest ->
      (match int_of_string_opt n with
      | Some n when n >= 0 ->
        faults := n;
        parse rest
      | _ ->
        Printf.eprintf "perennial_check: --faults needs a non-negative integer, got %s\n" n;
        exit 2)
    | "--faults" :: [] ->
      prerr_endline "perennial_check: --faults needs an argument";
      exit 2
    | "--max-seconds" :: s :: rest ->
      (match float_of_string_opt s with
      | Some s when s > 0. ->
        max_secs := Some s;
        parse rest
      | _ ->
        Printf.eprintf "perennial_check: --max-seconds needs a positive number, got %s\n" s;
        exit 2)
    | "--max-seconds" :: [] ->
      prerr_endline "perennial_check: --max-seconds needs an argument";
      exit 2
    | "--domains" :: n :: rest ->
      (match int_of_string_opt n with
      | Some n when n >= 1 ->
        domains := Some n;
        parse rest
      | _ ->
        Printf.eprintf "perennial_check: --domains needs a positive integer, got %s\n" n;
        exit 2)
    | "--domains" :: [] ->
      prerr_endline "perennial_check: --domains needs an argument";
      exit 2
    | "--fingerprint" :: rest ->
      fingerprint := true;
      parse rest
    | "--symmetry" :: rest ->
      fingerprint := true;
      symmetry := true;
      parse rest
    | "--strategy" :: s :: rest ->
      (match E.strategy_of_string s with
      | Some st ->
        strategy := st;
        parse rest
      | None ->
        Printf.eprintf "perennial_check: unknown strategy %s (want naive|dpor|dpor+sleep)\n" s;
        exit 2)
    | "--strategy" :: [] ->
      prerr_endline "perennial_check: --strategy needs an argument";
      exit 2
    | w :: rest ->
      what := w;
      parse rest
  in
  parse (List.tl (Array.to_list Sys.argv));
  if !fingerprint && !strategy <> E.Naive then begin
    prerr_endline
      "perennial_check: --fingerprint/--symmetry require --strategy naive (state \
       caching is unsound under DPOR)";
    exit 2
  end;
  let what = !what in
  let strategy = !strategy and faults = !faults in
  let sname = E.strategy_name strategy in
  let groups =
    [ ( "refinement",
        Fmt.str "Exhaustive concurrent-recovery-refinement checks [strategy=%s]:" sname,
        C.refinement );
      ("kvs", Fmt.str "Journaled key-value store (2 keys, exhaustive) [strategy=%s]:" sname, C.kvs);
      ("wal", Fmt.str "Circular write-ahead log [strategy=%s faults=%d]:" sname faults, C.wal);
      ( "fs",
        Fmt.str "Inode file system on the journal [strategy=%s faults=%d]:" sname faults,
        C.fs );
      ("faults", Fmt.str "Fault-injection checks [strategy=%s faults=%d]:" sname faults, C.faults);
      ( "net",
        Fmt.str "Network-adversary checks [strategy=%s net-events=%d]:" sname (min faults 1),
        C.net ) ]
  in
  let selections = "outlines" :: "strategies" :: "all" :: List.map (fun (w, _, _) -> w) groups in
  if not (List.mem what selections) then begin
    Printf.eprintf
      "perennial_check: unknown selection %s (want outlines|refinement|kvs|wal|fs|faults|net|strategies|all)\n"
      what;
    exit 2
  end;
  Option.iter Obs.Trace.open_chrome !trace_file;
  if !coverage then begin
    Obs.Coverage.set_enabled true;
    Obs.Coverage.reset ()
  end;
  if !explain then begin
    E.Prov.set_enabled true;
    E.Prov.reset ()
  end;
  if !progress then Obs.Progress.enable ();
  let selected w = what = w || what = "all" in
  if selected "outlines" then run_outlines ();
  List.iter
    (fun (w, header, group) -> if selected w then run_group ~strategy ~faults header group)
    groups;
  if selected "strategies" then run_strategies ();
  if !progress then Obs.Progress.finish ();
  Obs.Trace.close ();
  if !coverage then begin
    Fmt.pr "@.@[<v>%a@]@." Obs.Coverage.pp_report ();
    Option.iter
      (fun file ->
        let oc = open_out file in
        output_string oc (Obs.Json.to_string (Obs.Coverage.report_json ()));
        output_char oc '\n';
        close_out oc;
        Fmt.pr "Wrote coverage report to %s@." file)
      !coverage_out
  end;
  if !explain then Fmt.pr "@.@[<v>%a@]@." E.Prov.pp_report ();
  if !metrics then Fmt.pr "@.Metrics:@.%a" (Obs.Metrics.pp ?registry:None) ();
  Printf.printf "\n%d checks passed, %d failed\n" !ok !failed;
  if !failed > 0 then exit 1
