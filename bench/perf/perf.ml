(* perf: the repository's benchmark.  Four workloads over the refinement
   checker and the modeled storage stack; README.md beside this file says
   why each exists and which layer metric should move which end-to-end
   metric.

     perf.exe [--workload W] [--seed N] [--seconds S] [--trace 0|1]
              [--traced] [--json FILE]
     perf.exe --smoke BENCHMARK.json [--workload W]

   A workload is a closed loop of identical passes: a pass is a fixed
   amount of work, set by instance and op counts, and the next pass starts
   when the previous one returns.  Passes repeat until [--seconds] is
   spent (at least [min_passes] of them), and timings are medians over
   passes, so the run length changes the spread but not the value.

   --trace 0 (default) measures the end-to-end metrics with tracing off.
   --trace 1 (alias --traced) measures the per-layer metrics instead: a
   warm-up pass, one untraced pass, then one traced pass with the Memory
   sink installed and every spec wrapped in call counters and timers; it
   writes the trace as perf_trace.<workload>.json (Chrome format).
   --json FILE writes the run as a perennial-perf/v1 document with the
   host facts a comparison needs (compare.py checks them).
   --smoke runs every workload at tiny size, end to end and traced, and
   checks verdicts, spec agreement, the metric names and units against the
   given BENCHMARK.json, the output shape and the per-op write counts of
   the direct journal; it is the runtest rule of this directory.

   Every metric prints as [workload metric value unit]; the last line of
   standard output is one JSON object {correct, attempted, failed,
   metrics}.  The exit code is 1 if any check failed. *)

module R = Perennial_core.Refinement
module E = Perennial_core.Explore
module T = Tslang.Transition
module Spec = Tslang.Spec
module M = Obs.Metrics
module J = Obs.Json

(* ------------------------------------------------------------------ *)
(* Spec probes (traced runs only)                                       *)
(* ------------------------------------------------------------------ *)

(* Call counters and timers wrapped around a config's spec functions from
   outside the checker.  Atomics: parallel checks call them from several
   domains. *)
module Probe = struct
  type t = { calls : int Atomic.t; ns : int Atomic.t }

  let v () = { calls = Atomic.make 0; ns = Atomic.make 0 }
  let step = v ()
  let compare = v ()
  let render = v ()

  let reset () =
    List.iter
      (fun p ->
        Atomic.set p.calls 0;
        Atomic.set p.ns 0)
      [ step; compare; render ]

  let time p f =
    let t0 = Sample.now_ns () in
    let r = f () in
    Atomic.incr p.calls;
    ignore (Atomic.fetch_and_add p.ns (Sample.now_ns () - t0));
    r

  (* Runs the wrapped transition under the timer, then replays its outcomes
     in the same order, so the checker sees an identical transition. *)
  let transition tr =
    T.bind T.reads (fun s ->
        T.bind
          (T.choose (time step (fun () -> T.run tr s)))
          (function
            | T.Ok (s', v) -> T.bind (T.puts s') (fun () -> T.ret v)
            | T.Undefined_behaviour -> T.undefined))

  let config (cfg : ('w, 's) R.config) =
    let sp = cfg.R.spec in
    { cfg with
      R.spec =
        { sp with
          Spec.step = (fun op args -> transition (sp.Spec.step op args));
          crash = transition sp.Spec.crash;
          compare_state = (fun a b -> time compare (fun () -> sp.Spec.compare_state a b));
          pp_state = (fun ppf s -> time render (fun () -> sp.Spec.pp_state ppf s)) };
      pp_world = (fun ppf w -> time render (fun () -> cfg.R.pp_world ppf w)) }
end

type wrap = { f : 'w 's. ('w, 's) R.config -> ('w, 's) R.config }

let plain = { f = (fun c -> c) }
let probed = { f = Probe.config }

(* ------------------------------------------------------------------ *)
(* Passes                                                               *)
(* ------------------------------------------------------------------ *)

type detail =
  | Stats of R.stats  (** summed over the pass's checks; max for high-water marks *)
  | Stack of Fs_stack.result * Fs_stack.lat

type pass = {
  wall_ns : int;
  attempted : int;
  failed : int;
  items : int;  (** checks, or fs ops *)
  item_ns : int;  (** summed latency of the items *)
  minor_words : float;
  major_gcs : int;
  recovery_us : float;  (** the checker's perennial_refinement_phase_us gauges *)
  post_us : float;
  work_items : int;
  steals : int;
  detail : detail;
}

let zero_stats : R.stats =
  { executions = 0; steps = 0; crashes_injected = 0; vacuous = 0; max_candidates = 0;
    dedup_hits = 0; frontier_hwm = 0; commutations_pruned = 0; sleep_skips = 0;
    crash_skips = 0; faults_injected = 0; fault_schedules = 0; retries_observed = 0;
    cache_hits = 0; fingerprint_hits = 0; fingerprint_misses = 0 }

let add_stats (a : R.stats) (b : R.stats) : R.stats =
  { executions = a.executions + b.executions;
    steps = a.steps + b.steps;
    crashes_injected = a.crashes_injected + b.crashes_injected;
    vacuous = a.vacuous + b.vacuous;
    max_candidates = max a.max_candidates b.max_candidates;
    dedup_hits = a.dedup_hits + b.dedup_hits;
    frontier_hwm = max a.frontier_hwm b.frontier_hwm;
    commutations_pruned = a.commutations_pruned + b.commutations_pruned;
    sleep_skips = a.sleep_skips + b.sleep_skips;
    crash_skips = a.crash_skips + b.crash_skips;
    faults_injected = a.faults_injected + b.faults_injected;
    fault_schedules = a.fault_schedules + b.fault_schedules;
    retries_observed = a.retries_observed + b.retries_observed;
    cache_hits = a.cache_hits + b.cache_hits;
    fingerprint_hits = a.fingerprint_hits + b.fingerprint_hits;
    fingerprint_misses = a.fingerprint_misses + b.fingerprint_misses }

let recovery_g = M.gauge ~labels:[ ("phase", "recovery") ] "perennial_refinement_phase_us"
let post_g = M.gauge ~labels:[ ("phase", "post") ] "perennial_refinement_phase_us"
let work_items_c = M.counter "perennial_refinement_work_items_total"
let steals_c = M.counter "perennial_refinement_steals_total"

(* Time one pass and take the GC and metrics-registry deltas it caused.
   [collect] starts the pass from a fully collected heap. *)
let measure ~collect run =
  M.reset M.default;
  if collect then Gc.full_major ();
  let g0 = Gc.quick_stat () in
  let t0 = Sample.now_ns () in
  let attempted, failed, items, item_ns, detail = run () in
  let wall_ns = Sample.now_ns () - t0 in
  let g1 = Gc.quick_stat () in
  { wall_ns; attempted; failed; items; item_ns;
    minor_words = g1.minor_words -. g0.minor_words;
    major_gcs = g1.major_collections - g0.major_collections;
    recovery_us = M.gauge_value recovery_g;
    post_us = M.gauge_value post_g;
    work_items = M.counter_value work_items_c;
    steals = M.counter_value steals_c;
    detail }

let checks_pass wrap insts () =
  let failed = ref 0 and item_ns = ref 0 and sum = ref zero_stats in
  List.iter
    (fun (Checks.Check c) ->
      let cfg = wrap.f c.cfg in
      let t0 = Sample.now_ns () in
      let r = c.run cfg in
      item_ns := !item_ns + (Sample.now_ns () - t0);
      let st, ok =
        match r, c.expect with
        | R.Refinement_holds st, Checks.Holds | R.Refinement_violated (_, st), Checks.Violated ->
          (st, true)
        | (R.Refinement_holds st | R.Refinement_violated (_, st) | R.Budget_exhausted st), _ ->
          (st, false)
      in
      if not ok then begin
        incr failed;
        Printf.eprintf "perf: unexpected verdict: %s\n%!" c.name
      end;
      sum := add_stats !sum st)
    insts;
  let n = List.length insts in
  (n, !failed, n, !item_ns, Stats !sum)

let stack_pass ?limit t () =
  let lat = Fs_stack.lat () in
  let r = Fs_stack.pass ?limit t lat in
  (r.attempted, r.failed, r.ops, r.op_ns, Stack (r, lat))

(* ------------------------------------------------------------------ *)
(* Workloads                                                            *)
(* ------------------------------------------------------------------ *)

(* A set-up job: everything a pass needs, built before timing starts.
   [limit] bounds the traced pass of the fs stack (a prefix of the
   stream); the checker workloads always run whole passes. *)
type job = { run : ?limit:int -> wrap -> pass; items_per_pass : int }

type workload = {
  name : string;
  min_passes : int;
  setup : seed:int -> smoke:bool -> job;
  serial : (seed:int -> smoke:bool -> job) option;
      (** the same job on one domain: the traced run's speedup baseline *)
}

(* [collect]: start every pass from a fully collected heap.  Only the
   parallel workload needs it: with two domains, how much of one pass's
   garbage is still uncollected when the next starts depends on timing,
   and the heap peak followed it (quartile spread 16 % over 8 runs, 2 %
   with the collection).  On one domain the collection itself raised the
   peak and its spread, so the other workloads run without it. *)
let checks_job ?(collect = false) insts =
  { run = (fun ?limit:_ wrap -> measure ~collect (checks_pass wrap insts));
    items_per_pass = List.length insts }

let only names insts = List.filter (fun c -> List.mem (Checks.name c) names) insts

(* The two cheapest net instances: the smoke run's size. *)
let net_smoke = [ "lease: 2 holders + expiry + crash"; "hosted shard-kv + crash" ]

let net_job ?collect checker ~smoke =
  let insts = Checks.net checker in
  checks_job ?collect (if smoke then only net_smoke insts else insts)

let naive = { Checks.check = (fun ?faults cfg -> R.check ~strategy:E.Naive ?faults cfg) }

let fp_par domains =
  { Checks.check =
      (fun ?faults cfg -> R.check ~strategy:E.Naive ?faults ~fingerprint:true ~domains cfg) }

let par_domains = min 2 (Domain.recommended_domain_count ())

(* Sized so a pass of the stream over both backends takes about 0.4 s on
   a 2-core host. *)
let fs_ops = 12_000
let smoke_fs_ops = 600
let trace_ops = 1_024

let workloads =
  [ { name = "net-naive";
      min_passes = 2;
      setup = (fun ~seed:_ ~smoke -> net_job naive ~smoke);
      serial = None };
    { name = "storage-dpor";
      min_passes = 5;
      setup =
        (fun ~seed ~smoke ->
          let dpor =
            { Checks.check = (fun ?faults cfg -> R.check ~strategy:E.Dpor_sleep ?faults cfg) }
          in
          let insts = Checks.storage dpor ~seed in
          checks_job
            (if smoke then
               only [ "kvs: put || get + crash"; "seeded: journal torn commit record" ] insts
             else insts));
      serial = None };
    { name = "net-fp-par";
      min_passes = 5;
      setup = (fun ~seed:_ ~smoke -> net_job ~collect:true (fp_par par_domains) ~smoke);
      serial = Some (fun ~seed:_ ~smoke -> net_job ~collect:true (fp_par 1) ~smoke) };
    { name = "fs-stack";
      min_passes = 5;
      setup =
        (fun ~seed ~smoke ->
          let ops = if smoke then smoke_fs_ops else fs_ops in
          let t = Fs_stack.generate ~seed ops in
          { run = (fun ?limit _ -> measure ~collect:false (stack_pass ?limit t));
            items_per_pass = 2 * ops });
      serial = None } ]

(* ------------------------------------------------------------------ *)
(* Metrics                                                              *)
(* ------------------------------------------------------------------ *)

type metric = { mname : string; value : float; unit_ : string; exact : bool }

let m ?(exact = false) mname unit_ value = { mname; value; unit_; exact }
let fi = float_of_int
let ratio a b = if b = 0. then 0. else a /. b

(* One set-up batch: the set-up repeated until it has lasted 20 ms, so the
   clock's resolution does not set the value.  Returns the time per set-up
   and the last job built. *)
let setup_batch build =
  let t0 = Sample.now_ns () in
  let rec go n =
    let job = build () in
    if Sample.now_ns () - t0 < 20_000_000 then go (n + 1)
    else (fi (Sample.now_ns () - t0) /. fi n /. 1e9, job)
  in
  go 1

let peak_heap_mb () = fi ((Gc.quick_stat ()).top_heap_words * (Sys.word_size / 8)) /. 1e6

(* The end-to-end metrics over the passes' (wall ns, items, item ns):
   medians over passes, so a cold first pass does not set them. *)
let end_to_end ~setup_s passes =
  [ m "setup_s" "s" setup_s;
    m "pass_s" "s" (Sample.median (List.map (fun (w, _, _) -> fi w /. 1e9) passes));
    m "items_per_s" "1/s"
      (Sample.median (List.map (fun (_, n, ns) -> ratio (fi n) (fi ns /. 1e9)) passes));
    m "peak_heap_mb" "MB" (peak_heap_mb ()) ]

(* Self time per span category (layer), in ns: each span's duration minus
   its children's, linked by the [parent] arg of the runner's span events.
   Children end before their parent, so a parent's child sum is complete
   when its end event arrives. *)
let self_times events =
  let open Obs.Trace in
  let arg k e = match List.assoc_opt k e.args with Some (I i) -> Some i | _ -> None in
  let opened = Hashtbl.create 64 and child = Hashtbl.create 64 and self = Hashtbl.create 8 in
  let bump tbl k d = Hashtbl.replace tbl k (d +. Option.value ~default:0. (Hashtbl.find_opt tbl k)) in
  List.iter
    (fun e ->
      match e.ph, arg "span" e with
      | Span_begin, Some id -> Hashtbl.replace opened id (e.cat, e.ts, arg "parent" e)
      | Span_end, Some id -> (
        match Hashtbl.find_opt opened id with
        | None -> ()
        | Some (cat, t0, parent) ->
          let dur = e.ts -. t0 in
          bump self cat (dur -. Option.value ~default:0. (Hashtbl.find_opt child id));
          Option.iter (fun p -> bump child p dur) parent;
          Hashtbl.remove opened id;
          Hashtbl.remove child id)
      | _ -> ())
    events;
  fun cat -> Option.value ~default:0. (Hashtbl.find_opt self cat) *. 1e3

(* Stream the Chrome document event by event: a checker pass can hold
   hundreds of thousands of events. *)
let write_chrome path events =
  let oc = open_out path in
  output_string oc "{\"traceEvents\":[";
  List.iteri
    (fun i e ->
      if i > 0 then output_string oc ",\n";
      output_string oc (J.to_string (Obs.Trace.event_json e)))
    events;
  output_string oc "],\"displayTimeUnit\":\"ms\"}\n";
  close_out oc

let per_layer ~plain_pass ~base_ns ~traced_pass ~self ~speedup =
  let p = plain_pass in
  let pass_s = fi p.wall_ns /. 1e9 in
  let s = match p.detail with Stats s -> s | Stack _ -> zero_stats in
  let per_step x = ratio x (fi s.steps) in
  let recovery_s = p.recovery_us /. 1e6 and post_s = p.post_us /. 1e6 in
  let skips = fi (s.commutations_pruned + s.sleep_skips + s.crash_skips) in
  let nodes = s.fingerprint_hits + s.fingerprint_misses in
  let is_stats = match p.detail with Stats _ -> true | Stack _ -> false in
  let refinement =
    [ m ~exact:true "refinement.steps" "count" (fi s.steps);
      m ~exact:true "refinement.executions" "count" (fi s.executions);
      m "refinement.steps_per_s" "1/s" (ratio (fi s.steps) pass_s);
      m ~exact:true "refinement.max_candidates" "count" (fi s.max_candidates);
      m ~exact:true "refinement.dedup_hits" "count" (fi s.dedup_hits);
      m "refinement.minor_words_per_step" "words" (per_step p.minor_words);
      m "refinement.major_gcs" "count" (if is_stats then fi p.major_gcs else 0.);
      m ~exact:true "refinement.crashes_injected" "count" (fi s.crashes_injected);
      m "refinement.recovery_s" "s" recovery_s;
      m "refinement.post_s" "s" post_s;
      m "refinement.main_s" "s"
        (if is_stats then Float.max 0. (pass_s -. recovery_s -. post_s) else 0.);
      m "refinement.checks_per_s" "1/s" (if is_stats then ratio (fi p.items) pass_s else 0.) ]
  in
  let probe (pr : Probe.t) = fi (Atomic.get pr.calls) in
  let probe_s (pr : Probe.t) = fi (Atomic.get pr.ns) /. 1e9 in
  let spec =
    [ m ~exact:true "spec.step_calls" "count" (probe Probe.step);
      m "spec.step_s" "s" (probe_s Probe.step);
      m ~exact:true "spec.compare_calls" "count" (probe Probe.compare);
      m "spec.compare_s" "s" (probe_s Probe.compare) ]
  in
  let explore =
    [ m ~exact:true "explore.commutations_pruned" "count" (fi s.commutations_pruned);
      m ~exact:true "explore.sleep_skips" "count" (fi s.sleep_skips);
      m ~exact:true "explore.crash_skips" "count" (fi s.crash_skips);
      m "explore.prune_ratio" "ratio" (ratio skips (skips +. fi s.executions)) ]
  in
  let fingerprint =
    [ m ~exact:true "fingerprint.hits" "count" (fi s.fingerprint_hits);
      m ~exact:true "fingerprint.misses" "count" (fi s.fingerprint_misses);
      m "fingerprint.hit_ratio" "ratio" (ratio (fi s.fingerprint_hits) (fi nodes));
      m "fingerprint.minor_words_per_node" "words" (ratio p.minor_words (fi nodes));
      m "fingerprint.render_s" "s" (probe_s Probe.render) ]
  in
  let parallel =
    [ m "parallel.domains" "count" (if p.work_items > 0 then fi par_domains else 1.);
      m ~exact:true "parallel.work_items" "count" (fi p.work_items);
      m "parallel.steals" "count" (fi p.steals);
      m "parallel.speedup" "ratio" speedup ]
  in
  let net =
    [ m ~exact:true "fault.schedules" "count" (fi s.fault_schedules);
      m ~exact:true "fault.injected" "count" (fi s.faults_injected);
      m ~exact:true "rpc.retries" "count" (fi s.retries_observed);
      m ~exact:true "rpc.cache_hits" "count" (fi s.cache_hits);
      m "rpc.cache_hit_ratio" "ratio" (ratio (fi s.cache_hits) (fi s.executions)) ]
  in
  let stack =
    let open Fs_stack in
    let cs, lat, ops =
      match p.detail with
      | Stack (r, lat) -> (r.counts, Some lat, fi r.ops)
      | Stats _ -> ([], None, 0.)
    in
    let all f = fi (List.fold_left (fun a (_, c) -> a + f c) 0 cs) in
    (* each backend runs half the ops *)
    let per_backend_op b f =
      match List.assoc_opt b cs with Some c -> ratio (fi (f c)) (ops /. 2.) | None -> 0.
    in
    let traced_ops = match traced_pass.detail with Stack (r, _) -> fi r.ops | Stats _ -> 0. in
    let self_per_op cat = ratio (self cat /. 1e3) traced_ops in
    let pct f q = match lat with Some l -> fi (Sample.percentile (f l) q) /. 1e3 | None -> 0. in
    let data = all (fun c -> c.op_io.data_writes) in
    [ m "fs.read_us_p50" "us" (pct (fun l -> l.read_ns) 50.);
      m "fs.write_us_p50" "us" (pct (fun l -> l.write_ns) 50.);
      m "fs.op_us_p99" "us" (pct (fun l -> l.op_ns) 99.);
      m "fs.recover_us_p50" "us" (pct (fun l -> l.recover_ns) 50.);
      m ~exact:true "fs.txns_per_op" "count" (ratio (all (fun c -> c.txns)) ops);
      m "fs.self_us_per_op" "us" (self_per_op "fs");
      m ~exact:true "runner.steps_per_op" "count" (ratio (all (fun c -> c.steps)) ops);
      m ~exact:true "txn_log.direct.log_writes_per_op" "blocks"
        (per_backend_op `Direct (fun c -> c.op_io.log_writes));
      m ~exact:true "txn_log.direct.header_writes_per_op" "blocks"
        (per_backend_op `Direct (fun c -> c.op_io.header_writes));
      m ~exact:true "txn_log.direct.apply_writes_per_op" "blocks"
        (per_backend_op `Direct (fun c -> c.op_io.data_writes));
      m ~exact:true "txn_log.wal.record_writes_per_op" "blocks"
        (per_backend_op `Wal (fun c -> c.op_io.log_writes));
      m ~exact:true "txn_log.wal.header_writes_per_op" "blocks"
        (per_backend_op `Wal (fun c -> c.op_io.header_writes));
      m ~exact:true "txn_log.entries_per_txn" "blocks" (ratio data (all (fun c -> c.txns)));
      m ~exact:true "txn_log.recover_reads" "blocks"
        (ratio (all (fun c -> c.rec_io.reads)) (all (fun c -> c.recoveries)));
      m "txn_log.self_us_per_op" "us" (self_per_op "txn_log");
      m ~exact:true "disk.writes_per_op" "blocks" (ratio (all (fun c -> writes c.op_io)) ops);
      m ~exact:true "disk.reads_per_op" "blocks" (ratio (all (fun c -> c.op_io.reads)) ops);
      m ~exact:true "disk.write_amp" "ratio" (ratio (all (fun c -> writes c.op_io)) data);
      m "disk.self_us_per_op" "us" (self_per_op "disk") ]
  in
  refinement @ spec @ explore @ fingerprint @ parallel @ net @ stack
  @ [ m "obs.trace_overhead" "ratio" (ratio (fi traced_pass.wall_ns) (fi base_ns)) ]

(* ------------------------------------------------------------------ *)
(* Runs                                                                 *)
(* ------------------------------------------------------------------ *)

type result = {
  workload : string;
  passes : int;
  items_per_pass : int;
  r_attempted : int;
  r_failed : int;
  metrics : metric list;
}

(* One set-up batch runs before the first pass and one after every pass:
   spread over the run, their median does not follow a burst of load on the
   host the way back-to-back batches did. *)
let run_end_to_end w ~seed ~seconds ~smoke =
  let build () = w.setup ~seed ~smoke in
  let s0, job = setup_batch build in
  let deadline = Sample.now_ns () + int_of_float (seconds *. 1e9) in
  let attempted = ref 0 and failed = ref 0 in
  (* Keep only what the metrics need: a pass's detail holds its samples. *)
  let rec loop setups acc =
    let p = job.run plain in
    attempted := !attempted + p.attempted;
    failed := !failed + p.failed;
    let acc = (p.wall_ns, p.items, p.item_ns) :: acc in
    let setups = if smoke then setups else fst (setup_batch build) :: setups in
    let median_ns = Sample.median (List.map (fun (w, _, _) -> fi w) acc) in
    let more = List.length acc < w.min_passes || fi (Sample.now_ns ()) +. median_ns <= fi deadline in
    if more && not smoke then loop setups acc else (setups, acc)
  in
  let setups, passes = loop [ s0 ] [] in
  { workload = w.name;
    passes = List.length passes;
    items_per_pass = job.items_per_pass;
    r_attempted = !attempted;
    r_failed = !failed;
    metrics = end_to_end ~setup_s:(Sample.median setups) passes }

let run_traced w ~seed ~smoke =
  Obs.Trace.set_clock (fun () -> fi (Sample.now_ns ()) /. 1e3);
  let job = w.setup ~seed ~smoke in
  (* warm-up: the first pass also pays for growing the heap *)
  ignore (job.run plain);
  let plain_pass = job.run plain in
  let limit = trace_ops in
  let base = match plain_pass.detail with Stats _ -> plain_pass | Stack _ -> job.run ~limit plain in
  let speedup =
    match w.serial with
    | None -> 0.
    | Some serial -> fi ((serial ~seed ~smoke).run plain).wall_ns /. fi plain_pass.wall_ns
  in
  Obs.Trace.set_limit 50_000_000;
  Obs.Trace.reset_spans ();
  Obs.Trace.install_memory ();
  Probe.reset ();
  let traced_pass = job.run ~limit probed in
  let events = Obs.Trace.memory_events () in
  let dropped = Obs.Trace.dropped () in
  Obs.Trace.close ();
  if not smoke then write_chrome (Printf.sprintf "perf_trace.%s.json" w.name) events;
  if dropped > 0 then Printf.eprintf "perf: %s: %d trace events dropped\n%!" w.name dropped;
  (* The probes must leave the exploration exactly as it was. *)
  let perturbed =
    match plain_pass.detail, traced_pass.detail with Stats a, Stats b -> a <> b | _ -> false
  in
  if perturbed then Printf.eprintf "perf: %s: the traced pass explored differently\n%!" w.name;
  let all = [ plain_pass; base; traced_pass ] in
  let sum f = List.fold_left (fun a p -> a + f p) 0 all in
  { workload = w.name;
    passes = 1;
    items_per_pass = job.items_per_pass;
    r_attempted = sum (fun p -> p.attempted) + 2;
    r_failed = sum (fun p -> p.failed) + Bool.to_int (dropped > 0) + Bool.to_int perturbed;
    metrics =
      per_layer ~plain_pass ~base_ns:base.wall_ns ~traced_pass ~self:(self_times events) ~speedup }

(* ------------------------------------------------------------------ *)
(* Output                                                               *)
(* ------------------------------------------------------------------ *)

let metric_json mt =
  J.Obj [ ("value", J.Float mt.value); ("unit", J.Str mt.unit_) ]

(* The summary line: bare metric names for one workload, "workload/metric"
   when several ran. *)
let summary results =
  let key r mt = if List.length results = 1 then mt.mname else r.workload ^ "/" ^ mt.mname in
  let failed = List.fold_left (fun a r -> a + r.r_failed) 0 results in
  J.Obj
    [ ("correct", J.Bool (failed = 0));
      ("attempted", J.Int (List.fold_left (fun a r -> a + r.r_attempted) 0 results));
      ("failed", J.Int failed);
      ( "metrics",
        J.Obj (List.concat_map (fun r -> List.map (fun mt -> (key r mt, metric_json mt)) r.metrics) results)
      ) ]

let nproc () =
  match Unix.open_process_args_in "nproc" [| "nproc" |] with
  | ic ->
    let n = try int_of_string_opt (String.trim (input_line ic)) with End_of_file -> None in
    ignore (Unix.close_process_in ic);
    n
  | exception Unix.Unix_error _ -> None

let host_json () =
  let g = Gc.get () in
  J.Obj
    [ ("nproc", match nproc () with Some n -> J.Int n | None -> J.Null);
      ("recommended_domain_count", J.Int (Domain.recommended_domain_count ()));
      ("ocaml", J.Str Sys.ocaml_version);
      ("word_size", J.Int Sys.word_size);
      ( "gc",
        J.Obj
          [ ("minor_heap_size", J.Int g.Gc.minor_heap_size);
            ("space_overhead", J.Int g.Gc.space_overhead);
            ("major_heap_increment", J.Int g.Gc.major_heap_increment);
            ("max_overhead", J.Int g.Gc.max_overhead);
            ("allocation_policy", J.Int g.Gc.allocation_policy) ] ) ]

let document ~seed ~seconds ~traced results =
  J.Obj
    [ ("schema", J.Str "perennial-perf/v1");
      ("host", host_json ());
      ("seed", J.Int seed);
      ("seconds", J.Float seconds);
      ("traced", J.Bool traced);
      ( "workloads",
        J.Arr
          (List.map
             (fun r ->
               J.Obj
                 [ ("name", J.Str r.workload);
                   ("passes", J.Int r.passes);
                   ("items_per_pass", J.Int r.items_per_pass);
                   ("attempted", J.Int r.r_attempted);
                   ("failed", J.Int r.r_failed);
                   ( "metrics",
                     J.Obj
                       (List.map
                          (fun mt ->
                            ( mt.mname,
                              J.Obj
                                [ ("value", J.Float mt.value);
                                  ("unit", J.Str mt.unit_);
                                  ("exact", J.Bool mt.exact) ] ))
                          r.metrics) ) ])
             results) ) ]

let print_result r =
  Printf.printf "%s passes %d items/pass %d\n" r.workload r.passes r.items_per_pass;
  Printf.printf "%s failed_share %.6g ratio\n" r.workload
    (ratio (fi r.r_failed) (fi (max 1 r.r_attempted)));
  List.iter (fun mt -> Printf.printf "%s %s %.6g %s\n" r.workload mt.mname mt.value mt.unit_) r.metrics;
  flush stdout

(* ------------------------------------------------------------------ *)
(* Smoke                                                                *)
(* ------------------------------------------------------------------ *)

(* Exact disk writes of each op kind on the direct journal (3 per txn entry
   + 2 commit-record writes), in the scenario [Fs_stack.scripted_writes]
   sets up. *)
let expected_writes = [ ("create", 14); ("append", 11); ("rename", 11); ("read", 0); ("unlink", 17) ]

(* (name, unit) of every metric BENCHMARK.json lists under [key]. *)
let listed benchmark key =
  let ( let* ) = Option.bind in
  let field k o = let* v = J.member k o in J.to_str v in
  match
    let* doc = Result.to_option (J.of_string benchmark) in
    let* l = J.member key doc in
    J.to_list l
  with
  | Some l ->
    List.filter_map
      (fun o -> match field "name" o, field "unit" o with Some n, Some u -> Some (n, u) | _ -> None)
      l
  | None -> []

(* The smoke run's checks: no failed check, the metric names and units
   BENCHMARK.json lists, positive end-to-end values, a parseable summary
   line, and the direct journal's exact per-op write counts. *)
let smoke_checks ~benchmark e2e traced =
  let problems = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  let check_set key r =
    if r.r_failed > 0 then fail "%s: %d failed checks" r.workload r.r_failed;
    if List.map (fun mt -> (mt.mname, mt.unit_)) r.metrics <> listed benchmark key then
      fail "%s: metrics differ from BENCHMARK.json %s" r.workload key
  in
  List.iter (check_set "end_to_end") e2e;
  List.iter (check_set "per_layer") traced;
  List.iter
    (fun r ->
      List.iter
        (fun mt -> if not (mt.value > 0.) then fail "%s: %s is %g" r.workload mt.mname mt.value)
        r.metrics)
    e2e;
  (match J.of_string (J.to_string (summary e2e)) with
  | Ok doc -> (
    match J.member "metrics" doc, J.member "correct" doc, J.member "attempted" doc with
    | Some (J.Obj ms), Some (J.Bool _), Some (J.Int n)
      when n > 0 && List.length ms = 4 * List.length e2e ->
      ()
    | _ -> fail "summary line has the wrong shape")
  | Error e -> fail "summary line does not parse: %s" e);
  List.iter
    (fun (op, n) ->
      match List.assoc_opt op (Fs_stack.scripted_writes ()) with
      | Some k when k = n -> ()
      | Some k -> fail "direct %s wrote %d blocks, expected %d" op k n
      | None -> fail "direct %s did not run" op)
    expected_writes;
  List.rev !problems

(* ------------------------------------------------------------------ *)
(* Command line                                                         *)
(* ------------------------------------------------------------------ *)

let usage () =
  prerr_endline
    "usage: perf.exe [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--traced] [--json FILE]\n\
    \       perf.exe --smoke BENCHMARK.json [--workload W]";
  prerr_endline ("workloads: " ^ String.concat ", " (List.map (fun w -> w.name) workloads));
  exit 2

let () =
  let selected = ref [] and seed = ref 1 and seconds = ref 14. and traced = ref false in
  let json = ref None and smoke = ref None in
  let rec parse = function
    | [] -> ()
    | "--workload" :: w :: rest when List.exists (fun x -> x.name = w) workloads ->
      selected := !selected @ [ w ];
      parse rest
    | "--seed" :: n :: rest when int_of_string_opt n <> None ->
      seed := int_of_string n;
      parse rest
    | "--seconds" :: s :: rest when (match float_of_string_opt s with Some s -> s > 0. | None -> false) ->
      seconds := float_of_string s;
      parse rest
    | "--trace" :: ("0" | "1" as t) :: rest ->
      traced := t = "1";
      parse rest
    | "--traced" :: rest ->
      traced := true;
      parse rest
    | "--json" :: f :: rest ->
      json := Some f;
      parse rest
    | "--smoke" :: f :: rest ->
      smoke := Some f;
      parse rest
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let ws =
    match !selected with
    | [] -> workloads
    | names -> List.filter (fun w -> List.mem w.name names) workloads
  in
  let seed = !seed and seconds = !seconds in
  let run f =
    List.map
      (fun w ->
        let r = f w in
        print_result r;
        r)
      ws
  in
  let results, problems =
    match !smoke with
    | Some path ->
      let benchmark = In_channel.with_open_bin path In_channel.input_all in
      let e2e = run (fun w -> run_end_to_end w ~seed ~seconds ~smoke:true) in
      let traced = run (fun w -> run_traced w ~seed ~smoke:true) in
      (e2e @ traced, smoke_checks ~benchmark e2e traced)
    | None when !traced -> (run (fun w -> run_traced w ~seed ~smoke:false), [])
    | None -> (run (fun w -> run_end_to_end w ~seed ~seconds ~smoke:false), [])
  in
  List.iter (fun p -> Printf.eprintf "perf smoke: %s\n" p) problems;
  Option.iter
    (fun f ->
      let oc = open_out f in
      output_string oc (J.to_string (document ~seed ~seconds ~traced:!traced results));
      output_char oc '\n';
      close_out oc)
    !json;
  print_endline (J.to_string (summary results));
  if problems <> [] || List.exists (fun r -> r.r_failed > 0) results then exit 1
