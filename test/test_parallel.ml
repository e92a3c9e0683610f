(* Parallel state-space exploration: the determinism harness.

   The multicore checker's contract (Refinement.check ~domains) is that the
   domain count buys wall time and nothing else: verdict, counterexample and
   every stats field must be a fixed function of the instance.  This suite pins that down differentially:

   - the catalog's systems and seeded bugs, under naive and dpor+sleep, run at
     domains 1/2/4/8: identical verdicts, identical stats records, identical
     [pp_failure_lanes] renderings;
   - naive parallel runs of *holding* instances match the plain sequential
     checker's stats exactly (the two-phase partition replays the very same
     DFS);
   - the golden counterexamples of test/golden/ stay byte-identical when
     found by a parallel run;
   - qcheck properties for the fingerprint canonicalizer: token-renaming
     idempotence and permutation-invariance, thread-relabeling invariance
     under symmetry, injectivity smoke, and digest stability across
     structurally-equal states (nothing physical leaks into the key);
   - fingerprint pruning never changes a verdict, prunes for real on the
     kvs instances, and the symmetry quotient prunes at least as hard on
     instances with interchangeable threads;
   - the obs layer survives a 4-domain hammer with exact totals
     (metrics registry, coverage table);
   - check_random with domains: same failing walk, same reason prefix, same
     merged stats at any domain count, and the [seed/schedule] pair replays
     the failure on its own at any domain count. *)

module V = Tslang.Value
module R = Perennial_core.Refinement
module E = Perennial_core.Explore
module C = Perennial_catalog.Catalog
module Fpr = Perennial_core.Fingerprint
module Rd = Systems.Replicated_disk
module K = Journal.Kvs

let lanes_of = function
  | R.Refinement_violated (f, _) -> Some (Fmt.str "%a" R.pp_failure_lanes f)
  | R.Refinement_holds _ | R.Budget_exhausted _ -> None

let check_stats name expected got =
  if expected <> got then
    Alcotest.failf "%s: stats diverged:@,  expected %a@,  got      %a" name R.pp_stats
      expected R.pp_stats got

(* ------------------------------------------------------------------ *)
(* The domains matrix                                                  *)
(* ------------------------------------------------------------------ *)

let domain_counts = [ 1; 2; 4; 8 ]

(* Checked strategies: naive plus the strongest reduction.  (Cross-strategy
   agreement is test_explore's job; here each strategy is compared with
   itself across domain counts.) *)
let strategies = [ E.Naive; E.Dpor_sleep ]

(* Run one catalog instance at every domain count under each strategy:
   identical verdicts, stats, and counterexample lanes.  Under naive, the
   parallel run must also reproduce the plain sequential stats when the
   instance holds (on violations the sequential checker stops early by
   design). *)
let domain_deterministic inst =
  let name = C.name inst in
  List.iter
    (fun strategy ->
      let sname = E.strategy_name strategy in
      let run domains = C.run ~strategy ?domains inst in
      let base = run (Some 1) in
      List.iter
        (fun n ->
          let r = run (Some n) in
          Alcotest.(check string)
            (Printf.sprintf "%s [%s]: verdict at domains=%d" name sname n)
            (R.verdict_name base) (R.verdict_name r);
          check_stats
            (Printf.sprintf "%s [%s]: domains=%d vs domains=1" name sname n)
            (R.stats_of base) (R.stats_of r);
          Alcotest.(check (option string))
            (Printf.sprintf "%s [%s]: lanes at domains=%d" name sname n)
            (lanes_of base) (lanes_of r))
        (List.filter (fun n -> n <> 1) domain_counts);
      let seq = run None in
      Alcotest.(check string)
        (Printf.sprintf "%s [%s]: parallel vs sequential verdict" name sname)
        (R.verdict_name seq) (R.verdict_name base);
      match seq with
      | R.Refinement_holds st when strategy = E.Naive ->
        check_stats (Printf.sprintf "%s: naive parallel vs sequential" name) st
          (R.stats_of base)
      | _ -> ())
    strategies

let test_domains_systems () =
  List.iter domain_deterministic (Test_explore.exhaustive C.refinement)

let test_domains_journal_kvs () =
  List.iter domain_deterministic (C.journal_commit_read :: C.kvs)

let test_domains_fs () = domain_deterministic C.fs_create_append_probed
let test_domains_bugs_rd () = List.iter domain_deterministic C.rd_bugs
let test_domains_bugs_wal_shadow () = List.iter domain_deterministic C.pattern_bugs
let test_domains_bugs_journal_kvs () = List.iter domain_deterministic C.journal_bugs

(* the shared fault-schedule seen-table must stay partition-proof *)
let test_domains_faults () = domain_deterministic C.journal_commit_read_fault

(* golden counterexamples stay byte-identical under parallel runs *)
let test_domains_golden () =
  Golden.lanes ~domains:[ Some 2 ] C.journal_record_first;
  Golden.lanes ~domains:[ Some 4 ] C.kvs_recover_nop;
  Golden.lanes ~domains:[ Some 3 ] C.kvs_strict_spec

(* --- argument validation --- *)

let test_bad_arguments () =
  let p = K.params ~n_keys:2 () in
  let cfg = K.checker_config p ~max_crashes:1 [ [ K.get_call p 0 ] ] in
  let expect_invalid name f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s: expected Invalid_argument" name
  in
  expect_invalid "domains=0" (fun () -> R.check ~domains:0 cfg);
  expect_invalid "fingerprint under dpor" (fun () ->
      R.check ~strategy:E.Dpor ~fingerprint:true cfg);
  expect_invalid "symmetry without fingerprint" (fun () -> R.check ~symmetry:true cfg);
  expect_invalid "check_random domains=0" (fun () -> R.check_random ~domains:0 cfg)

(* ------------------------------------------------------------------ *)
(* qcheck: the fingerprint canonicalizer                               *)
(* ------------------------------------------------------------------ *)

(* Strings over a small alphabet with embedded "k<digits>" tokens. *)
let gen_tokenful_string =
  QCheck.Gen.(
    let frag =
      oneof
        [ map (fun i -> "k" ^ string_of_int i) (int_range 0 12);
          oneofl [ "x"; ","; ";"; "|"; "put("; ")"; "k"; "" ] ]
    in
    map (String.concat "") (list_size (int_range 0 20) frag))

let arb_tokenful = QCheck.make ~print:(fun s -> s) gen_tokenful_string

let prop_rename_idempotent =
  QCheck.Test.make ~name:"rename_tokens is idempotent" ~count:500 arb_tokenful (fun s ->
      let r = Fpr.rename_tokens ~prefix:"k" s in
      String.equal r (Fpr.rename_tokens ~prefix:"k" r))

(* Renaming the token namespace through any injection leaves the canonical
   form untouched: rename_tokens only looks at first-occurrence order. *)
let prop_rename_permutation_invariant =
  QCheck.Test.make ~name:"rename_tokens is token-permutation invariant" ~count:500
    (QCheck.pair arb_tokenful QCheck.(int_range 1 9))
    (fun (s, shift) ->
      (* injective renaming: k<i> -> k<100 + (i * 13 + shift)> *)
      let buf = Buffer.create (String.length s) in
      let n = String.length s in
      let i = ref 0 in
      let digit c = c >= '0' && c <= '9' in
      while !i < n do
        if s.[!i] = 'k' && !i + 1 < n && digit s.[!i + 1] then begin
          let j = ref (!i + 1) in
          while !j < n && digit s.[!j] do incr j done;
          let v = int_of_string (String.sub s (!i + 1) (!j - !i - 1)) in
          Buffer.add_string buf (Printf.sprintf "k%d" (100 + (v * 13) + shift));
          i := !j
        end
        else begin
          Buffer.add_char buf s.[!i];
          incr i
        end
      done;
      String.equal
        (Fpr.rename_tokens ~prefix:"k" s)
        (Fpr.rename_tokens ~prefix:"k" (Buffer.contents buf)))

(* Random fingerprint states: a handful of threads with classes drawn from
   a small set, pends over those threads, and short rendered worlds. *)
let gen_state =
  QCheck.Gen.(
    let* n_threads = int_range 1 4 in
    let tids = List.init n_threads (fun i -> i) in
    let* classes =
      list_size (return n_threads) (oneofl [ "put+get"; "txn"; "get" ])
    in
    let* world = oneofl [ "d=[k0:A k1:B]"; "d=[k0:_ k1:B]"; "d=[]"; "log=[k1]" ] in
    let* n_cands = int_range 1 2 in
    let* cands =
      list_size (return n_cands)
        (let* st = oneofl [ "s0"; "s1:k0=A" ] in
         let* pend_tids = list_size (int_range 0 n_threads) (oneofl tids) in
         let f_pend =
           List.map
             (fun t ->
               { Fpr.f_ptid = t; f_op = "op"; f_args = [ "k1" ]; f_result = None })
             (List.sort_uniq compare pend_tids)
         in
         return { Fpr.f_state = st; f_pend })
    in
    let* crashes = int_range 0 1 in
    let f_threads =
      List.map2
        (fun tid cls -> { Fpr.f_tid = tid; f_class = cls; f_hist = [] })
        tids classes
    in
    return
      {
        Fpr.f_world = world;
        f_cands = cands;
        f_phase = "main";
        f_crashes = crashes;
        f_fused = 0;
        f_fsite = 0;
        f_threads;
      })

let arb_state =
  QCheck.make ~print:(fun st -> Fpr.canonical st) gen_state

(* Relabel every tid through a bijection, keeping each thread's class
   attached: with symmetry on, the canonical form must not move. *)
let relabel perm st =
  let m t = List.nth perm t in
  {
    st with
    Fpr.f_threads =
      List.map (fun t -> { t with Fpr.f_tid = m t.Fpr.f_tid }) st.Fpr.f_threads;
    f_cands =
      List.map
        (fun c ->
          { c with
            Fpr.f_pend = List.map (fun p -> { p with Fpr.f_ptid = m p.Fpr.f_ptid }) c.Fpr.f_pend
          })
        st.Fpr.f_cands;
  }

let permutations_4 =
  (* all permutations of [0;1;2;3]; relabel only consults the first n *)
  let rec perms = function
    | [] -> [ [] ]
    | l -> List.concat_map (fun x -> List.map (fun p -> x :: p) (perms (List.filter (( <> ) x) l))) l
  in
  perms [ 0; 1; 2; 3 ]

let prop_symmetry_relabel_invariant =
  QCheck.Test.make ~name:"canonical ~symmetry is tid-relabeling invariant" ~count:300
    (QCheck.pair arb_state (QCheck.oneofl permutations_4))
    (fun (st, perm) ->
      String.equal
        (Fpr.canonical ~symmetry:true st)
        (Fpr.canonical ~symmetry:true (relabel perm st)))

let prop_symmetry_key_rename_invariant =
  QCheck.Test.make ~name:"canonical ~key_prefix is key-renaming invariant" ~count:300
    arb_state (fun st ->
      (* consistently rename k<i> -> k<i+7> everywhere a key can appear *)
      let ren s =
        let buf = Buffer.create (String.length s) in
        let n = String.length s in
        let digit c = c >= '0' && c <= '9' in
        let i = ref 0 in
        while !i < n do
          if s.[!i] = 'k' && !i + 1 < n && digit s.[!i + 1] then begin
            let j = ref (!i + 1) in
            while !j < n && digit s.[!j] do incr j done;
            let v = int_of_string (String.sub s (!i + 1) (!j - !i - 1)) in
            Buffer.add_string buf (Printf.sprintf "k%d" (v + 7));
            i := !j
          end
          else begin
            Buffer.add_char buf s.[!i];
            incr i
          end
        done;
        Buffer.contents buf
      in
      let st' =
        {
          st with
          Fpr.f_world = ren st.Fpr.f_world;
          f_cands =
            List.map
              (fun c ->
                {
                  Fpr.f_state = ren c.Fpr.f_state;
                  f_pend =
                    List.map
                      (fun pd ->
                        { pd with Fpr.f_args = List.map ren pd.Fpr.f_args })
                      c.Fpr.f_pend;
                })
              st.Fpr.f_cands;
        }
      in
      String.equal
        (Fpr.canonical ~symmetry:true ~key_prefix:"k" st)
        (Fpr.canonical ~symmetry:true ~key_prefix:"k" st'))

let prop_world_injective =
  QCheck.Test.make ~name:"distinct worlds never collide (no symmetry)" ~count:300
    (QCheck.pair arb_state arb_state)
    (fun (s1, s2) ->
      String.equal s1.Fpr.f_world s2.Fpr.f_world
      || not
           (String.equal (Fpr.canonical s1)
              (Fpr.canonical { s1 with Fpr.f_world = s2.Fpr.f_world })))

let prop_digest_stable =
  QCheck.Test.make ~name:"digest is structural (no physical identity)" ~count:300
    arb_state (fun st ->
      (* rebuild a structurally-equal copy through fresh allocations *)
      let copy =
        {
          Fpr.f_world = String.sub (st.Fpr.f_world ^ "!") 0 (String.length st.Fpr.f_world);
          f_cands =
            List.map
              (fun c ->
                {
                  Fpr.f_state = String.concat "" [ c.Fpr.f_state ];
                  f_pend = List.map (fun pd -> { pd with Fpr.f_op = "op" }) c.Fpr.f_pend;
                })
              st.Fpr.f_cands;
          f_phase = "main";
          f_crashes = st.Fpr.f_crashes;
          f_fused = st.Fpr.f_fused;
          f_fsite = st.Fpr.f_fsite;
          f_threads = List.map (fun t -> { t with Fpr.f_tid = t.Fpr.f_tid }) st.Fpr.f_threads;
        }
      in
      let t1, _ = Fpr.digest st in
      let t2, fresh2 = Fpr.digest copy in
      Fpr.equal t1 t2 && Fpr.id t1 = Fpr.id t2 && not fresh2)

let test_intern_semantics () =
  Fpr.reset ();
  let t1, fresh1 = Fpr.intern "alpha" in
  let t2, fresh2 = Fpr.intern "alpha" in
  let t3, fresh3 = Fpr.intern "beta" in
  Alcotest.(check bool) "first intern is fresh" true fresh1;
  Alcotest.(check bool) "second intern is stale" false fresh2;
  Alcotest.(check bool) "distinct string is fresh" true fresh3;
  Alcotest.(check int) "stable id" (Fpr.id t1) (Fpr.id t2);
  Alcotest.(check bool) "distinct ids" true (Fpr.id t1 <> Fpr.id t3);
  Alcotest.(check string) "key round-trips" "alpha" (Fpr.key t1);
  Alcotest.(check int) "table size" 2 (Fpr.table_size ());
  Fpr.reset ();
  Alcotest.(check int) "reset empties" 0 (Fpr.table_size ())

(* ------------------------------------------------------------------ *)
(* Fingerprint pruning on the real checker                             *)
(* ------------------------------------------------------------------ *)

(* Fingerprinting must never change a verdict, and must actually prune. *)
let test_fingerprint_differential () =
  let fp_diff ?(expect_pruning = true) inst =
    let name = C.name inst in
    let plain = C.run inst in
    let fp = C.run ~fingerprint:true inst in
    Alcotest.(check string)
      (Printf.sprintf "%s: fingerprint verdict" name)
      (R.verdict_name plain) (R.verdict_name fp);
    let st = R.stats_of fp in
    Alcotest.(check bool)
      (Printf.sprintf "%s: fingerprint misses recorded" name)
      true (st.R.fingerprint_misses > 0);
    if expect_pruning then begin
      Alcotest.(check bool)
        (Printf.sprintf "%s: fingerprint pruned for real" name)
        true (st.R.fingerprint_hits > 0);
      Alcotest.(check bool)
        (Printf.sprintf "%s: pruning shrank the execution count" name)
        true (st.R.executions < (R.stats_of plain).R.executions)
    end;
    (* parallel fingerprint runs stay domain-count deterministic *)
    let p2 = C.run ~fingerprint:true ~domains:2 inst in
    let p4 = C.run ~fingerprint:true ~domains:4 inst in
    Alcotest.(check string)
      (Printf.sprintf "%s: parallel fingerprint verdict" name)
      (R.verdict_name plain) (R.verdict_name p2);
    check_stats (Printf.sprintf "%s: fingerprint domains=2 vs 4" name) (R.stats_of p2)
      (R.stats_of p4)
  in
  List.iter fp_diff C.[ kvs_put_get; kvs_async; journal_commit_read ];
  (* seeded bugs are still caught with pruning on *)
  List.iter (fp_diff ~expect_pruning:false) C.[ kvs_recover_nop; journal_record_first ]

(* Interchangeable threads: the symmetry quotient prunes at least as hard
   as plain fingerprinting, with the same verdict. *)
let test_symmetry_reduction () =
  let cfg =
    Rd.checker_config ~may_fail:false ~max_crashes:1 ~size:1
      [ [ Rd.write_call 0 (V.str "a") ]; [ Rd.write_call 0 (V.str "a") ] ]
  in
  let fp = R.check ~fingerprint:true cfg in
  let sym = R.check ~fingerprint:true ~symmetry:true cfg in
  Alcotest.(check string) "symmetry verdict" (R.verdict_name fp) (R.verdict_name sym);
  let mfp = (R.stats_of fp).R.fingerprint_misses in
  let msym = (R.stats_of sym).R.fingerprint_misses in
  Alcotest.(check bool)
    (Printf.sprintf "symmetry misses (%d) <= fingerprint misses (%d)" msym mfp)
    true (msym <= mfp);
  (* and it still catches bugs: two identical writers, unlocked *)
  let buggy =
    R.config ~spec:(Rd.spec 1)
      ~init_world:(Rd.init_world ~may_fail:false 1)
      ~crash_world:Rd.crash_world ~pp_world:Rd.pp_world
      ~threads:
        [ [ Rd.Buggy.write_call_unlocked 0 (V.str "a") ];
          [ Rd.Buggy.write_call_unlocked 0 (V.str "a") ] ]
      ~recovery:(Rd.recover_prog 1) ~post:(Rd.probe 1) ~max_crashes:0 ()
  in
  Alcotest.(check string)
    "symmetry still catches the unlocked writers"
    (R.verdict_name (R.check buggy))
    (R.verdict_name (R.check ~fingerprint:true ~symmetry:true buggy))

(* ------------------------------------------------------------------ *)
(* Obs layer under domains: exact totals                               *)
(* ------------------------------------------------------------------ *)

let test_metrics_hammer () =
  let reg = Obs.Metrics.create () in
  let n_dom = 4 and per = 20_000 in
  let doms =
    List.init n_dom (fun _ ->
        Domain.spawn (fun () ->
            (* resolve through the registry inside the domain: exercises
               concurrent resolve as well as concurrent increments *)
            let c = Obs.Metrics.counter ~registry:reg "hammer_total" in
            let g = Obs.Metrics.gauge ~registry:reg "hammer_sum" in
            for i = 1 to per do
              Obs.Metrics.inc c;
              Obs.Metrics.add g (float_of_int (i mod 150))
            done))
  in
  List.iter Domain.join doms;
  let c = Obs.Metrics.counter ~registry:reg "hammer_total" in
  let g = Obs.Metrics.gauge ~registry:reg "hammer_sum" in
  Alcotest.(check int) "counter total exact" (n_dom * per) (Obs.Metrics.counter_value c);
  let expect_sum = ref 0. in
  for i = 1 to per do
    expect_sum := !expect_sum +. float_of_int (i mod 150)
  done;
  Alcotest.(check (float 0.))
    "gauge sum exact (integer-valued additions)"
    (!expect_sum *. float_of_int n_dom)
    (Obs.Metrics.gauge_value g)

let test_coverage_hammer () =
  let was = Obs.Coverage.enabled () in
  Obs.Coverage.set_enabled true;
  Obs.Coverage.reset ();
  let n_dom = 4 and per = 10_000 in
  let doms =
    List.init n_dom (fun d ->
        Domain.spawn (fun () ->
            let site = Printf.sprintf "hammer:site%d" (d mod 2) in
            for _ = 1 to per do
              Obs.Coverage.register Obs.Coverage.Arm site;
              Obs.Coverage.hit Obs.Coverage.Arm site
            done;
            Obs.Coverage.register Obs.Coverage.Arm "hammer:never"))
  in
  List.iter Domain.join doms;
  let hits site =
    match
      List.find_opt
        (fun (k, s, _) -> k = Obs.Coverage.Arm && String.equal s site)
        (Obs.Coverage.sites ())
    with
    | Some (_, _, n) -> n
    | None -> Alcotest.failf "site %s not registered" site
  in
  (* two domains hammered each site: totals must be exact *)
  Alcotest.(check int) "site0 hits exact" (2 * per) (hits "hammer:site0");
  Alcotest.(check int) "site1 hits exact" (2 * per) (hits "hammer:site1");
  Alcotest.(check int) "never-hit site registered with 0" 0 (hits "hammer:never");
  Obs.Coverage.reset ();
  Obs.Coverage.set_enabled was

(* ------------------------------------------------------------------ *)
(* check_random under domains                                          *)
(* ------------------------------------------------------------------ *)

let random_bug_cfg =
  (* zeroing recovery + crash coins flipped during recovery too: the same
     seeded bug the random-check suite replays (known to fail at seed 123) *)
  R.config ~spec:(Rd.spec 1)
    ~init_world:(Rd.init_world ~may_fail:false 1)
    ~crash_world:Rd.crash_world ~pp_world:Rd.pp_world
    ~threads:[ [ Rd.write_call 0 (V.str "x") ] ]
    ~recovery:(Rd.Buggy.recover_zero 1) ~post:(Rd.probe 1) ~max_crashes:2 ()

let test_random_domains () =
  let schedules = 500 and seed = 123 and crash_prob = 0.2 in
  let run domains = R.check_random ~schedules ~seed ~crash_prob ?domains random_bug_cfg in
  let seq = run None in
  let reason_of name = function
    | R.Refinement_violated (f, _) -> f.R.reason
    | r -> Alcotest.failf "%s: expected random violation, got %s" name (R.verdict_name r)
  in
  let seq_reason = reason_of "sequential" seq in
  (* the sequential first failure is the lowest-index failing walk, which is
     exactly what every parallel run must report *)
  let d1 = run (Some 1) in
  List.iter
    (fun n ->
      let r = run (Some n) in
      Alcotest.(check string)
        (Printf.sprintf "random reason at domains=%d" n)
        seq_reason
        (reason_of (Printf.sprintf "domains=%d" n) r);
      check_stats (Printf.sprintf "random stats domains=%d vs 1" n) (R.stats_of d1)
        (R.stats_of r))
    [ 2; 4 ];
  (* the reason prefix alone replays the failure *)
  let schedule =
    Scanf.sscanf seq_reason "[seed=%d schedule=%d/%d]" (fun _ i _ -> i)
  in
  match R.check_random_replay ~schedules ~seed ~crash_prob ~schedule random_bug_cfg with
  | R.Refinement_violated (f, _) ->
    Alcotest.(check string) "replayed reason" seq_reason f.R.reason
  | r -> Alcotest.failf "replay: expected violation, got %s" (R.verdict_name r)

let test_random_domains_honest () =
  let run domains =
    C.on_config
      { f = (fun c -> R.check_random ~schedules:40 ~seed:11 ~crash_prob:0.2 ?domains c) }
      C.kvs_put_get
  in
  let seq = run None in
  Alcotest.(check string) "honest random holds" "holds" (R.verdict_name seq);
  (* with no failing walk the sequential and parallel runs do the same
     work, so even the stats line up across all modes *)
  List.iter
    (fun n -> check_stats (Printf.sprintf "honest random domains=%d" n) (R.stats_of seq)
        (R.stats_of (run (Some n))))
    [ 1; 2; 4 ]

let suite =
  [
    Alcotest.test_case "domains: pattern systems" `Quick test_domains_systems;
    Alcotest.test_case "domains: journal + kvs" `Quick test_domains_journal_kvs;
    Alcotest.test_case "domains: fs" `Quick test_domains_fs;
    Alcotest.test_case "domains: rd seeded bugs" `Quick test_domains_bugs_rd;
    Alcotest.test_case "domains: wal/shadow seeded bugs" `Quick
      test_domains_bugs_wal_shadow;
    Alcotest.test_case "domains: journal/kvs seeded bugs" `Quick
      test_domains_bugs_journal_kvs;
    Alcotest.test_case "domains: fault schedules" `Quick test_domains_faults;
    Alcotest.test_case "domains: golden counterexamples" `Quick test_domains_golden;
    Alcotest.test_case "domains: argument validation" `Quick test_bad_arguments;
    QCheck_alcotest.to_alcotest prop_rename_idempotent;
    QCheck_alcotest.to_alcotest prop_rename_permutation_invariant;
    QCheck_alcotest.to_alcotest prop_symmetry_relabel_invariant;
    QCheck_alcotest.to_alcotest prop_symmetry_key_rename_invariant;
    QCheck_alcotest.to_alcotest prop_world_injective;
    QCheck_alcotest.to_alcotest prop_digest_stable;
    Alcotest.test_case "fingerprint: intern semantics" `Quick test_intern_semantics;
    Alcotest.test_case "fingerprint: differential vs plain" `Quick
      test_fingerprint_differential;
    Alcotest.test_case "fingerprint: symmetry reduction" `Quick test_symmetry_reduction;
    Alcotest.test_case "obs: metrics 4-domain hammer" `Quick test_metrics_hammer;
    Alcotest.test_case "obs: coverage 4-domain hammer" `Quick test_coverage_hammer;
    Alcotest.test_case "random: domains determinism + replay" `Quick test_random_domains;
    Alcotest.test_case "random: domains honest stats" `Quick test_random_domains_honest;
  ]
