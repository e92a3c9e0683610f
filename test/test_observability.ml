(* Tests for the observability-v2 surfaces: the coverage site registry and
   its vacuity detector, pruning provenance, causal span trees threaded
   through fs -> txn_log -> disk, latency percentiles, and the byte-stable
   Chrome trace golden.  Also the qcheck round-trip property for JSON
   documents, and the default registry's contract with bench/perf. *)

module M = Obs.Metrics
module T = Obs.Trace
module J = Obs.Json
module C = Obs.Coverage
module V = Tslang.Value
module R = Perennial_core.Refinement
module E = Perennial_core.Explore
module Cat = Perennial_catalog.Catalog
module Rd = Systems.Replicated_disk
module L = Perennial_fs.Layout
module Fs = Perennial_fs.Fs

let with_fake_clock f =
  let t = ref 0. in
  T.set_clock (fun () ->
      t := !t +. 10.;
      !t);
  Fun.protect ~finally:(fun () -> T.set_clock (fun () -> Unix.gettimeofday () *. 1e6)) f

let with_coverage f =
  C.set_enabled true;
  C.reset ();
  Fun.protect
    ~finally:(fun () ->
      C.reset ();
      C.set_enabled false)
    f

(* --- coverage registry semantics --- *)

let test_coverage_basics () =
  with_coverage (fun () ->
      C.register C.Crash "main:wal_append";
      C.register C.Crash "main:wal_append" (* idempotent *);
      C.hit C.Crash "main:commit";
      C.hit C.Crash "main:commit";
      C.register C.Arm "wal:write:err";
      let s = C.summarize () in
      Alcotest.(check int) "three sites" 3 s.C.total;
      Alcotest.(check int) "one covered" 1 s.C.covered;
      Alcotest.(check int) "two vacuous" 2 (List.length s.C.vacuous);
      let sc = C.summarize ~kind:C.Crash () in
      Alcotest.(check int) "crash sites" 2 sc.C.total;
      Alcotest.(check int) "crash covered" 1 sc.C.covered;
      (match C.sites () with
      | [ (C.Crash, "main:commit", 2); (C.Crash, "main:wal_append", 0); (C.Arm, "wal:write:err", 0) ]
        -> ()
      | ss -> Alcotest.failf "unexpected site list (%d entries)" (List.length ss));
      match C.report_json () with
      | J.Obj fields ->
        (match List.assoc_opt "schema" fields with
        | Some (J.Str "perennial-coverage/v1") -> ()
        | _ -> Alcotest.fail "report schema missing");
        (match List.assoc_opt "vacuous" fields with
        | Some (J.Arr l) -> Alcotest.(check int) "vacuous listed" 2 (List.length l)
        | _ -> Alcotest.fail "vacuous list missing")
      | _ -> Alcotest.fail "report is not an object")

let test_coverage_disabled_noop () =
  C.set_enabled false;
  C.reset ();
  C.register C.Crash "x";
  C.hit C.Fault "y";
  Alcotest.(check int) "nothing recorded when disabled" 0 (C.summarize ()).C.total

(* Under the naive (exhaustive) strategy every registered crash site is also
   explored: a full fs check reports 100% crash coverage. *)
let test_fs_crash_sites_fully_covered () =
  with_coverage (fun () ->
      (match Cat.run Cat.fs_create_append with
      | R.Refinement_holds _ -> ()
      | _ -> Alcotest.fail "fs instance expected to hold");
      let s = C.summarize ~kind:C.Crash () in
      Alcotest.(check bool) "many crash sites registered" true (s.C.total > 10);
      Alcotest.(check int) "all crash sites covered" s.C.total s.C.covered;
      Alcotest.(check (list (pair string string))) "no vacuous crash sites" []
        (List.map (fun (k, id) -> (C.kind_name k, id)) s.C.vacuous))

(* The vacuity detector: fault-tolerant ops declare fault points, so with a
   fault budget of zero those sites register but are never exercised — the
   check "passes" as vacuous evidence for its fault-handling paths. *)
let test_vacuity_flags_unreachable_fault_sites () =
  with_coverage (fun () ->
      let cfg =
        Rd.checker_config ~may_fail:false ~size:1 ~max_crashes:0
          [ [ Rd.write_ft_call 0 (V.str "x") ]; [ Rd.read_ft_call 0 ] ]
      in
      (match R.check ~faults:0 cfg with
      | R.Refinement_holds _ -> ()
      | _ -> Alcotest.fail "rd instance expected to hold");
      let s = C.summarize ~kind:C.Fault () in
      Alcotest.(check bool) "fault sites registered" true (s.C.total > 0);
      Alcotest.(check int) "none exercised" 0 s.C.covered;
      Alcotest.(check int) "all flagged vacuous" s.C.total (List.length s.C.vacuous);
      (* and with budget they are exercised: the flags clear *)
      C.reset ();
      (match R.check ~faults:1 cfg with
      | R.Refinement_holds _ -> ()
      | _ -> Alcotest.fail "rd instance expected to hold under faults");
      let s' = C.summarize ~kind:C.Fault () in
      Alcotest.(check bool) "sites again registered" true (s'.C.total > 0);
      Alcotest.(check bool) "some sites now exercised" true (s'.C.covered > 0);
      (* retry-path fault sites remain vacuous at budget 1: they only run
         after the budget is spent — the detector keeps flagging them *)
      Alcotest.(check int) "vacuous = registered - covered"
        (s'.C.total - s'.C.covered)
        (List.length s'.C.vacuous))

(* --- pruning provenance --- *)

let test_provenance_ranked_report () =
  E.Prov.set_enabled true;
  E.Prov.reset ();
  Fun.protect
    ~finally:(fun () ->
      E.Prov.reset ();
      E.Prov.set_enabled false)
    (fun () ->
      (match Cat.run ~strategy:E.Dpor_sleep Cat.kvs_put_get with
      | R.Refinement_holds _ -> ()
      | _ -> Alcotest.fail "kvs instance expected to hold");
      let es = E.Prov.entries () in
      Alcotest.(check bool) "skips recorded" true (es <> []);
      Alcotest.(check int) "total is the sum of entry counts"
        (List.fold_left (fun acc (_, _, _, n) -> acc + n) 0 es)
        (E.Prov.total ());
      let counts = List.map (fun (_, _, _, n) -> n) es in
      Alcotest.(check (list int)) "ranked by count, descending"
        (List.sort (fun a b -> compare b a) counts)
        counts;
      (* DPOR's crash pruning fires on this instance and is attributed *)
      Alcotest.(check bool) "clean-crash skips attributed" true
        (List.exists (fun (r, _, _, _) -> r = E.Prov.Clean_crash) es))

(* Keys tied on count and site come out in one order, however they were
   recorded: with [--domains], recording order is a race. *)
let test_provenance_tie_order () =
  let site = "kvs_put" in
  let keys =
    List.concat_map
      (fun rule -> List.map (fun witness -> (rule, witness)) [ None; Some "a"; Some "b" ])
      E.Prov.[ Sleep; Clean_crash; Commutation ]
  in
  let entries_after keys =
    E.Prov.reset ();
    List.iter (fun (rule, witness) -> E.Prov.record rule ~site ?witness ()) keys;
    E.Prov.entries ()
  in
  E.Prov.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      E.Prov.reset ();
      E.Prov.set_enabled false)
    (fun () ->
      let forward = entries_after keys in
      let backward = entries_after (List.rev keys) in
      Alcotest.(check bool) "same order for either recording order" true (forward = backward);
      Alcotest.(check bool) "rule name, then witness" true
        (List.map (fun (r, _, w, _) -> (r, w)) forward
        = E.Prov.
            [ (Clean_crash, None); (Clean_crash, Some "a"); (Clean_crash, Some "b");
              (Commutation, None); (Commutation, Some "a"); (Commutation, Some "b");
              (Sleep, None); (Sleep, Some "a"); (Sleep, Some "b") ]))

let test_provenance_disabled_noop () =
  E.Prov.set_enabled false;
  E.Prov.reset ();
  E.Prov.record E.Prov.Sleep ~site:"x" ();
  Alcotest.(check int) "nothing recorded when disabled" 0 (E.Prov.total ())

(* --- causal span trees: fs -> txn_log -> disk --- *)

(* Trace one concrete run of [prog] and reconstruct the span tree from the
   span/parent args of the Span_begin events; returns the set of root-to-leaf
   category chains (e.g. ["fs"; "txn_log"; "disk"]). *)
let span_chains prog_of =
  with_fake_clock (fun () ->
      T.reset_spans ();
      T.install_memory ();
      let p = Fs.params (L.v ~n_inodes:7 ~n_blocks:9 ()) in
      let w =
        Fs.init_world p ~dirs:[ "a"; "b" ] ~files:[ ("a", "f", "x"); ("b", "t", "u") ]
      in
      let _ = Sched.Runner.run w [ prog_of p ] in
      let evs = T.memory_events () in
      T.close ();
      T.reset_spans ();
      let begins = List.filter (fun e -> e.T.ph = T.Span_begin) evs in
      let arg_int k e =
        match List.assoc_opt k e.T.args with Some (T.I i) -> Some i | _ -> None
      in
      let parent = Hashtbl.create 16 in
      let cat_of = Hashtbl.create 16 in
      List.iter
        (fun e ->
          match arg_int "span" e with
          | None -> Alcotest.fail "span_begin without a span id"
          | Some id ->
            Hashtbl.replace cat_of id e.T.cat;
            (match arg_int "parent" e with
            | Some pid -> Hashtbl.replace parent id pid
            | None -> ()))
        begins;
      let chain_cats id =
        let rec go id acc =
          let acc = Hashtbl.find cat_of id :: acc in
          match Hashtbl.find_opt parent id with None -> acc | Some p -> go p acc
        in
        go id []
      in
      Hashtbl.fold (fun id _ acc -> chain_cats id :: acc) cat_of [])

(* Every mutating Fs op commits through the journal: its traced run must
   contain a chain descending fs -> txn_log -> disk, >= 3 layers deep. *)
let test_span_tree_depth_three_layers () =
  List.iter
    (fun (name, prog_of) ->
      let chains = span_chains prog_of in
      let deep =
        List.exists
          (fun ch ->
            List.length ch >= 3
            && (match ch with
               | "fs" :: rest -> List.mem "txn_log" rest && List.mem "disk" rest
               | _ -> false))
          chains
      in
      if not deep then
        Alcotest.failf "%s: no fs->txn_log->disk chain among: %s" name
          (String.concat " | " (List.map (String.concat "->") chains)))
    [ ("mkdir", fun p -> Fs.mkdir_prog p "c");
      ("create", fun p -> Fs.create_prog p "a" "g");
      ("append", fun p -> Fs.append_prog p "a" "f" "y");
      ("unlink", fun p -> Fs.unlink_prog p "a" "f");
      ("rename", fun p -> Fs.rename_prog p ~src:("a", "f") ~dst:("b", "t")) ]

(* --- latency percentiles --- *)

let test_percentile_nearest_rank () =
  let xs = [| 50.; 10.; 40.; 30.; 20. |] in
  Alcotest.(check (float 0.0)) "p50" 30. (Mcsim.Sim.percentile xs 50.);
  Alcotest.(check (float 0.0)) "p95" 50. (Mcsim.Sim.percentile xs 95.);
  Alcotest.(check (float 0.0)) "p0 clamps" 10. (Mcsim.Sim.percentile xs 0.);
  Alcotest.(check (float 0.0)) "p100" 50. (Mcsim.Sim.percentile xs 100.);
  Alcotest.(check (float 0.0)) "empty" 0. (Mcsim.Sim.percentile [||] 50.);
  (* input not mutated *)
  Alcotest.(check bool) "input untouched" true (xs = [| 50.; 10.; 40.; 30.; 20. |])

let test_sim_latencies_populated () =
  let reqs = Array.make 40 [ Mcsim.Sim.Cpu 5.; Mcsim.Sim.Serial ("s", 1.) ] in
  let out = Mcsim.Sim.run ~cores:4 reqs in
  Alcotest.(check int) "one latency per request" 40 (Array.length out.Mcsim.Sim.latencies_us);
  Array.iter
    (fun l -> Alcotest.(check bool) "latency covers service time" true (l >= 6.))
    out.Mcsim.Sim.latencies_us;
  let p50 = Mcsim.Sim.percentile out.Mcsim.Sim.latencies_us 50. in
  let p99 = Mcsim.Sim.percentile out.Mcsim.Sim.latencies_us 99. in
  Alcotest.(check bool) "p99 >= p50" true (p99 >= p50)

(* --- the default registry: exactly what bench/perf reads --- *)

(* A run's counts live in its stats; the default registry keeps only the
   phase times and the parallel split, which bench/perf reads by name.
   Handles are get-or-create, so a renamed one would make perf.exe read a
   silent 0: pin the sample set and that a parallel, crash-injecting run
   fills the values perf.exe reports. *)
let test_default_registry_contract () =
  M.reset M.default;
  ignore (Cat.run ~domains:2 Cat.kvs_put_get);
  (match Cat.run Cat.kvs_txn with
  | R.Refinement_holds s ->
    Alcotest.(check bool) "the instance injects crashes" true (s.R.crashes_injected > 0)
  | _ -> Alcotest.fail "kvs txn instance expected to hold");
  let samples = M.snapshot () in
  let phase p = ("perennial_refinement_phase_us", [ ("phase", p) ]) in
  Alcotest.(check (list (pair string (list (pair string string)))))
    "default registry samples"
    [ phase "explore"; phase "post"; phase "recovery";
      ("perennial_refinement_steals_total", []);
      ("perennial_refinement_work_items_total", []) ]
    (List.map (fun (s : M.sample) -> (s.name, s.labels)) samples);
  let value name labels =
    match List.find (fun (s : M.sample) -> s.name = name && s.labels = labels) samples with
    | { value = M.Counter c; _ } -> float_of_int c
    | { value = M.Gauge g; _ } -> g
  in
  Alcotest.(check bool) "work items counted" true
    (value "perennial_refinement_work_items_total" [] > 0.);
  Alcotest.(check bool) "recovery time measured" true
    (value "perennial_refinement_phase_us" [ ("phase", "recovery") ] > 0.)

let gen_json =
  QCheck.Gen.(
    sized @@ fix (fun self n ->
        let leaf =
          oneof
            [ map (fun i -> J.Int i) small_signed_int;
              map (fun f -> J.Float (float_of_int f /. 4.)) small_signed_int;
              map (fun s -> J.Str s) (string_size ~gen:printable (int_bound 8));
              map (fun b -> J.Bool b) bool;
              return J.Null ]
        in
        if n <= 0 then leaf
        else
          frequency
            [ (3, leaf);
              (1, map (fun l -> J.Arr l) (list_size (int_bound 4) (self (n / 2))));
              ( 1,
                map
                  (fun kvs -> J.Obj kvs)
                  (list_size (int_bound 4)
                     (pair (string_size ~gen:(char_range 'a' 'f') (int_bound 5)) (self (n / 2)))) ) ]))

let prop_json_roundtrip =
  QCheck.Test.make ~count:200 ~name:"arbitrary json docs round-trip"
    (QCheck.make ~print:J.to_string gen_json)
    (fun doc ->
      match J.of_string (J.to_string doc) with Ok d -> d = doc | Error _ -> false)

(* --- golden: the Chrome trace export is byte-stable --- *)

let test_chrome_golden () =
  let doc =
    with_fake_clock (fun () ->
        T.reset_spans ();
        T.install_memory ();
        T.span_begin ~cat:"fs" ~tid:0 "fs_append";
        T.span_begin ~cat:"txn_log" ~tid:0 "txn_commit";
        T.span_begin ~cat:"disk" ~tid:0 ~args:[ ("addr", T.I 3) ] "disk_write(3)";
        ignore (T.span_end ~tid:0 ());
        ignore (T.span_end ~tid:0 ());
        T.instant ~cat:"crash" ~args:[ ("n", T.I 1) ] "crash_injection";
        ignore (T.span_end ~tid:0 ());
        ignore (T.with_span ~cat:"refinement" ~tid:1 "recovery" (fun () -> ()));
        let evs = T.memory_events () in
        T.close ();
        T.reset_spans ();
        J.to_string (T.chrome_json evs) ^ "\n")
  in
  let golden = Golden.read ~regen:(fun () -> doc) "chrome_trace.txt" in
  if doc <> golden then
    Alcotest.failf
      "chrome export drifted from chrome_trace.txt (rerun with GOLDEN_UPDATE=1 if intended); got (%d bytes): %s"
      (String.length doc)
      (if String.length doc < 2000 then doc else String.sub doc 0 2000)

let suite =
  [
    Alcotest.test_case "coverage basics" `Quick test_coverage_basics;
    Alcotest.test_case "coverage disabled is a no-op" `Quick test_coverage_disabled_noop;
    Alcotest.test_case "fs crash sites fully covered (naive)" `Quick
      test_fs_crash_sites_fully_covered;
    Alcotest.test_case "vacuity flags unreachable fault sites" `Quick
      test_vacuity_flags_unreachable_fault_sites;
    Alcotest.test_case "provenance ranked report" `Quick test_provenance_ranked_report;
    Alcotest.test_case "provenance disabled is a no-op" `Quick
      test_provenance_disabled_noop;
    Alcotest.test_case "span tree: fs op descends 3 layers" `Quick
      test_span_tree_depth_three_layers;
    Alcotest.test_case "percentile: nearest rank" `Quick test_percentile_nearest_rank;
    Alcotest.test_case "sim populates per-request latencies" `Quick
      test_sim_latencies_populated;
    Alcotest.test_case "default registry: every metric name is perennial_*" `Quick
      test_default_registry_contract;
    QCheck_alcotest.to_alcotest prop_json_roundtrip;
    Alcotest.test_case "chrome trace export is byte-stable (golden)" `Quick
      test_chrome_golden;
    Alcotest.test_case "provenance ties in one order" `Quick test_provenance_tie_order;
  ]
