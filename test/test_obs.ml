(* Tests for lib/obs — the metrics registry, the trace-event sinks and the
   JSON emitter/parser — plus the integration contract: the refinement
   checker's registry counters must agree with its returned stats, with
   exact values on a fixed instance, and its Chrome traces must round-trip
   through our own parser. *)

module M = Obs.Metrics
module T = Obs.Trace
module J = Obs.Json
module V = Tslang.Value
module R = Perennial_core.Refinement
module Rd = Systems.Replicated_disk

(* --- registry semantics --- *)

let test_counter_basics () =
  let r = M.create () in
  let c = M.counter ~registry:r "requests_total" in
  Alcotest.(check int) "starts at zero" 0 (M.counter_value c);
  M.inc c;
  M.inc ~by:41 c;
  Alcotest.(check int) "accumulates" 42 (M.counter_value c);
  let c' = M.counter ~registry:r "requests_total" in
  M.inc c';
  Alcotest.(check int) "get-or-create returns the same counter" 43 (M.counter_value c);
  (match M.inc ~by:(-1) c with
  | () -> Alcotest.fail "negative increment accepted"
  | exception Invalid_argument _ -> ());
  Alcotest.(check int) "value unchanged after rejected inc" 43 (M.counter_value c)

let test_label_isolation () =
  let r = M.create () in
  let a = M.counter ~registry:r ~labels:[ ("rule", "acquire") ] "rules_total" in
  let b = M.counter ~registry:r ~labels:[ ("rule", "release") ] "rules_total" in
  M.inc ~by:5 a;
  M.inc ~by:2 b;
  Alcotest.(check int) "label a isolated" 5 (M.counter_value a);
  Alcotest.(check int) "label b isolated" 2 (M.counter_value b);
  (* label order is canonicalized: same set, same metric *)
  let c1 = M.counter ~registry:r ~labels:[ ("x", "1"); ("y", "2") ] "multi" in
  let c2 = M.counter ~registry:r ~labels:[ ("y", "2"); ("x", "1") ] "multi" in
  M.inc c1;
  Alcotest.(check int) "label order irrelevant" 1 (M.counter_value c2)

let test_kind_mismatch_rejected () =
  let r = M.create () in
  let _ = M.counter ~registry:r "thing" in
  match M.gauge ~registry:r "thing" with
  | _ -> Alcotest.fail "gauge registered over a counter"
  | exception Invalid_argument _ -> ()

let test_gauge_ops () =
  let r = M.create () in
  let g = M.gauge ~registry:r "depth" in
  M.set g 3.5;
  M.add g 1.5;
  Alcotest.(check (float 0.0)) "set+add" 5.0 (M.gauge_value g);
  M.record_max g 4.0;
  Alcotest.(check (float 0.0)) "record_max keeps larger" 5.0 (M.gauge_value g);
  M.record_max g 9.0;
  Alcotest.(check (float 0.0)) "record_max takes larger" 9.0 (M.gauge_value g)

let test_histogram_buckets () =
  let r = M.create () in
  let h = M.histogram ~registry:r ~buckets:[ 1.; 10.; 100. ] "lat" in
  List.iter (M.observe h) [ 0.5; 1.0; 5.; 50.; 5000. ];
  Alcotest.(check int) "count" 5 (M.hist_count h);
  Alcotest.(check (float 1e-9)) "sum" 5056.5 (M.hist_sum h);
  (* cumulative bucket counts: <=1 has two (0.5 and the boundary 1.0),
     <=10 adds 5., <=100 adds 50., +inf catches 5000. *)
  Alcotest.(check (list (pair (float 0.0) int)))
    "cumulative buckets"
    [ (1., 2); (10., 3); (100., 4); (infinity, 5) ]
    (M.hist_buckets h)

let test_reset_zeroes_but_keeps_handles () =
  let r = M.create () in
  let c = M.counter ~registry:r "c" in
  let g = M.gauge ~registry:r "g" in
  let h = M.histogram ~registry:r ~buckets:[ 1. ] "h" in
  M.inc ~by:7 c;
  M.set g 7.;
  M.observe h 7.;
  M.reset r;
  Alcotest.(check int) "counter zeroed" 0 (M.counter_value c);
  Alcotest.(check (float 0.0)) "gauge zeroed" 0. (M.gauge_value g);
  Alcotest.(check int) "histogram zeroed" 0 (M.hist_count h);
  M.inc c;
  Alcotest.(check int) "handle still live after reset" 1 (M.counter_value c)

let test_snapshot_json () =
  let r = M.create () in
  let c = M.counter ~registry:r ~labels:[ ("op", "put") ] "ops_total" in
  M.inc ~by:3 c;
  M.inc ~by:4 c;
  match M.to_json ~registry:r () with
  | J.Obj [ ("ops_total{op=put}", J.Int 7) ] -> ()
  | j -> Alcotest.failf "unexpected json: %s" (J.to_string j)

(* --- JSON emitter/parser --- *)

let test_json_roundtrip_values () =
  let doc =
    J.Obj
      [ ("s", J.Str "a \"quoted\" \\ line\nwith\ttabs");
        ("i", J.Int (-42));
        ("f", J.Float 1.5);
        ("big", J.Float 1786016675641041.);
        ("t", J.Bool true);
        ("n", J.Null);
        ("a", J.Arr [ J.Int 1; J.Obj [ ("nested", J.Bool false) ] ]) ]
  in
  match J.of_string (J.to_string doc) with
  | Ok doc' -> Alcotest.(check bool) "round-trips" true (doc = doc')
  | Error e -> Alcotest.failf "parse error: %s" e

let test_json_parse_errors () =
  List.iter
    (fun s ->
      match J.of_string s with
      | Ok _ -> Alcotest.failf "accepted malformed input %S" s
      | Error _ -> ())
    [ ""; "{"; "[1,]"; "{\"a\":}"; "tru"; "\"unterminated"; "1 2"; "{\"a\":1,}" ]

(* --- trace sinks --- *)

(* Install a deterministic microsecond clock for the duration of [f]. *)
let with_fake_clock f =
  let t = ref 0. in
  T.set_clock (fun () ->
      t := !t +. 10.;
      !t);
  Fun.protect ~finally:(fun () -> T.set_clock (fun () -> Unix.gettimeofday () *. 1e6)) f

let test_null_sink_disabled () =
  T.close ();
  Alcotest.(check bool) "disabled by default" false (T.enabled ());
  (* hooks are no-ops but still run the thunk *)
  T.instant "nothing";
  Alcotest.(check int) "with_span still runs the thunk" 7
    (T.with_span "span" (fun () -> 7))

let test_memory_sink_and_chrome_roundtrip () =
  with_fake_clock (fun () ->
      T.install_memory ();
      Alcotest.(check bool) "enabled" true (T.enabled ());
      let v = T.with_span ~cat:"refinement" "explore" (fun () -> T.instant ~cat:"crash" ~args:[ ("n", T.I 1) ] "crash_injection"; 99) in
      Alcotest.(check int) "span result" 99 v;
      let evs = T.memory_events () in
      T.close ();
      Alcotest.(check int) "two events" 2 (List.length evs);
      (* the instant fires inside the span, so it is buffered first *)
      (match evs with
      | [ i; s ] ->
        Alcotest.(check string) "instant name" "crash_injection" i.T.name;
        Alcotest.(check string) "span name" "explore" s.T.name;
        (match s.T.ph with
        | T.Complete d -> Alcotest.(check (float 1e-9)) "span duration from clock" 20. d
        | _ -> Alcotest.fail "span is not a complete event")
      | _ -> Alcotest.fail "unexpected event shapes");
      (* Chrome document round-trip through our own parser *)
      match J.of_string (J.to_string (T.chrome_json evs)) with
      | Error e -> Alcotest.failf "chrome json does not parse: %s" e
      | Ok doc ->
        let get o = match o with Some v -> v | None -> Alcotest.fail "missing field" in
        let evs' = get (J.to_list (get (J.member "traceEvents" doc))) in
        Alcotest.(check int) "both events serialized" 2 (List.length evs');
        let phs =
          List.map (fun e -> get (Option.bind (J.member "ph" e) J.to_str)) evs'
        in
        Alcotest.(check (list string)) "phases" [ "i"; "X" ] phs;
        let dur = get (Option.bind (J.member "dur" (List.nth evs' 1)) J.to_float) in
        Alcotest.(check (float 1e-9)) "duration survives" 20. dur)

let test_jsonl_sink () =
  let path = Filename.temp_file "obs_test" ".jsonl" in
  with_fake_clock (fun () ->
      T.open_jsonl path;
      T.instant ~cat:"a" "one";
      T.instant ~cat:"b" "two";
      T.close ());
  let ic = open_in path in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> ());
  close_in ic;
  Sys.remove path;
  let lines = List.rev !lines in
  Alcotest.(check int) "one line per event" 2 (List.length lines);
  List.iter
    (fun l ->
      match J.of_string l with
      | Ok (J.Obj _) -> ()
      | Ok _ -> Alcotest.fail "line is not an object"
      | Error e -> Alcotest.failf "line does not parse: %s" e)
    lines

let test_buffer_limit () =
  T.install_memory ();
  T.set_limit 3;
  for i = 1 to 5 do
    T.instant (string_of_int i)
  done;
  Alcotest.(check int) "buffer capped" 3 (List.length (T.memory_events ()));
  Alcotest.(check int) "overflow counted" 2 (T.dropped ());
  T.close ();
  T.set_limit 200_000

(* --- integration: deterministic metrics for a fixed refinement instance --- *)

let test_refinement_metrics_deterministic () =
  M.reset M.default;
  let cfg =
    Rd.checker_config ~may_fail:false ~max_crashes:0 ~size:1
      [ [ Rd.write_call 0 (V.str "a") ]; [ Rd.read_call 0 ] ]
  in
  (match R.check cfg with
  | R.Refinement_holds s ->
    (* exhaustive exploration of a fixed instance: exact, reproducible *)
    Alcotest.(check int) "executions" 2 s.R.executions;
    Alcotest.(check int) "steps" 26 s.R.steps;
    Alcotest.(check int) "max candidates" 5 s.R.max_candidates;
    Alcotest.(check int) "frontier high-water" 7 s.R.frontier_hwm
  | _ -> Alcotest.fail "expected the instance to hold");
  (* the registry must agree with the returned stats *)
  let counter_of name =
    M.counter_value (M.counter name)
  in
  Alcotest.(check int) "registry executions" 2
    (counter_of "perennial_refinement_executions_total");
  Alcotest.(check int) "registry steps" 26
    (counter_of "perennial_refinement_steps_total");
  Alcotest.(check int) "registry crash injections" 0
    (counter_of "perennial_refinement_crash_injections_total");
  Alcotest.(check int) "registry checks" 1
    (counter_of "perennial_refinement_checks_total");
  Alcotest.(check (float 0.0)) "registry frontier gauge" 7.
    (M.gauge_value (M.gauge "perennial_refinement_frontier_depth_hwm"))

let test_refinement_trace_crash_instants () =
  (* every injected crash must appear as an instant event in the trace *)
  M.reset M.default;
  with_fake_clock (fun () ->
      T.install_memory ();
      let stats =
        match
          R.check
            (Rd.checker_config ~may_fail:false ~max_crashes:1 ~size:1
               [ [ Rd.write_call 0 (V.str "x") ] ])
        with
        | R.Refinement_holds s -> s
        | _ -> Alcotest.fail "expected the instance to hold"
      in
      let evs = T.memory_events () in
      T.close ();
      let crashes =
        List.length (List.filter (fun e -> e.T.name = "crash_injection") evs)
      in
      Alcotest.(check int) "one instant per injected crash" stats.R.crashes_injected
        crashes;
      Alcotest.(check bool) "phase spans present" true
        (List.exists (fun e -> e.T.name = "recovery") evs
        && List.exists (fun e -> e.T.name = "refinement.check") evs))

let suite =
  [
    Alcotest.test_case "counter basics" `Quick test_counter_basics;
    Alcotest.test_case "label isolation" `Quick test_label_isolation;
    Alcotest.test_case "kind mismatch rejected" `Quick test_kind_mismatch_rejected;
    Alcotest.test_case "gauge ops" `Quick test_gauge_ops;
    Alcotest.test_case "histogram buckets" `Quick test_histogram_buckets;
    Alcotest.test_case "reset keeps handles" `Quick test_reset_zeroes_but_keeps_handles;
    Alcotest.test_case "snapshot, json" `Quick test_snapshot_json;
    Alcotest.test_case "json round-trip" `Quick test_json_roundtrip_values;
    Alcotest.test_case "json parse errors" `Quick test_json_parse_errors;
    Alcotest.test_case "null sink disabled" `Quick test_null_sink_disabled;
    Alcotest.test_case "memory sink + chrome round-trip" `Quick
      test_memory_sink_and_chrome_roundtrip;
    Alcotest.test_case "jsonl sink" `Quick test_jsonl_sink;
    Alcotest.test_case "buffer limit" `Quick test_buffer_limit;
    Alcotest.test_case "refinement metrics deterministic" `Quick
      test_refinement_metrics_deterministic;
    Alcotest.test_case "refinement trace crash instants" `Quick
      test_refinement_trace_crash_instants;
  ]
