(* The soundness argument for the partial-order-reduced strategies is
   differential: for the catalog's systems, storage stacks and seeded bugs,
   {!Explore.Dpor} and {!Explore.Dpor_sleep} must reach exactly the verdict
   of {!Explore.Naive} — while never exploring more executions.  On top of
   that:

   - qcheck properties over the dependence relation: swapping adjacent
     steps that the footprints classify as independent never changes the
     final state or either step's observation, and the seeded dependent
     pairs (same-address write/write, crash vs durable write, [Unknown]
     vs anything) are never classified independent;
   - golden counterexample snapshots: the [pp_failure_lanes] rendering of
     the seeded journal/kvs bugs and the refuted strict-KVS spec is
     byte-for-byte identical under every strategy (test/golden/);
   - the reduction is real: on the kvs put||get instance DPOR must explore
     at least 3x fewer executions than naive, with nonzero
     [commutations_pruned] and [crash_skips]. *)

module R = Perennial_core.Refinement
module E = Perennial_core.Explore
module C = Perennial_catalog.Catalog
module Fp = Sched.Footprint
module Sd = Disk.Single_disk

let b = Disk.Block.of_string

(* ------------------------------------------------------------------ *)
(* Differential harness                                                *)
(* ------------------------------------------------------------------ *)

(* Run a check under every strategy: the catalog's cross-strategy guard
   holds (same verdict as naive, never more executions than naive). *)
let across_strategies name run =
  let res = List.map (fun s -> (s, run s)) E.all_strategies in
  match C.guard res with
  | [] -> List.assoc E.Naive res
  | ps -> Alcotest.failf "%s: %s" name (String.concat "; " ps)

(* ... and for a catalog instance, naive reaches its expected verdict *)
let differential inst =
  let naive = across_strategies (C.name inst) (fun strategy -> C.run ~strategy inst) in
  if not (C.met inst naive) then
    Alcotest.failf "%s: naive verdict %s" (C.name inst) (R.verdict_name naive)

(* Check a catalog instance once: it must reach its expected verdict. *)
let expect ?strategy inst =
  match C.run ?strategy inst with
  | r when C.met inst r -> ()
  | R.Refinement_violated (f, _) -> Alcotest.failf "%s: %a" (C.name inst) R.pp_failure f
  | r -> Alcotest.failf "%s: %s (%a)" (C.name inst) (R.verdict_name r) R.pp_stats (R.stats_of r)

(* random walks take no strategy *)
let exhaustive = List.filter (fun i -> C.mode i = C.Exhaustive)
let test_diff_systems () = List.iter differential (exhaustive C.refinement)

(* the layered storage stacks: the journal on the circular WAL, the file
   system and the spool on the journal *)
let test_diff_layered () = List.iter differential (C.wal @ C.fs)
let test_diff_journal_kvs () = List.iter differential (C.journal_commit_read :: C.kvs)
let test_diff_bugs_rd () = List.iter differential C.rd_bugs
let test_diff_bugs_wal_shadow () = List.iter differential C.pattern_bugs
let test_diff_bugs_journal_kvs () = List.iter differential C.journal_bugs

(* ------------------------------------------------------------------ *)
(* The reduction is real                                               *)
(* ------------------------------------------------------------------ *)

let test_kvs_reduction () =
  let st strategy =
    match C.run ~strategy C.kvs_put_get with
    | R.Refinement_holds st -> st
    | _ -> Alcotest.failf "kvs put||get should hold under %s" (E.strategy_name strategy)
  in
  let naive = st E.Naive in
  let dpor = st E.Dpor in
  if dpor.R.executions * 3 > naive.R.executions then
    Alcotest.failf "dpor explored %d executions, naive %d: less than the required 3x reduction"
      dpor.R.executions naive.R.executions;
  Alcotest.(check bool) "dpor pruned commutations" true (dpor.R.commutations_pruned > 0);
  Alcotest.(check bool) "dpor skipped clean crash points" true (dpor.R.crash_skips > 0);
  let sleep = st E.Dpor_sleep in
  Alcotest.(check bool) "sleep sets explore no more than dpor" true
    (sleep.R.executions <= dpor.R.executions)

(* ------------------------------------------------------------------ *)
(* qcheck: the dependence relation                                     *)
(* ------------------------------------------------------------------ *)

(* A tiny concrete step language over a 4-block disk: enough to state the
   commutation property the whole reduction rests on. *)
type op = Wr of int * int | Rd_ of int

let op_fp = function
  | Wr (a, _) -> Fp.writes [ Fp.disk a ]
  | Rd_ a -> Fp.reads [ Fp.disk a ]

let apply w = function
  | Wr (a, v) -> (Sd.set w a (b (string_of_int v)), "()")
  | Rd_ a -> (w, Disk.Block.to_string (Sd.get w a))

let print_op = function
  | Wr (a, v) -> Printf.sprintf "disk[%d]:=%d" a v
  | Rd_ a -> Printf.sprintf "read disk[%d]" a

let gen_op =
  QCheck.Gen.(
    let addr = int_range 0 3 in
    oneof [ map2 (fun a v -> Wr (a, v)) addr (int_range 0 9); map (fun a -> Rd_ a) addr ])

let arb_case =
  QCheck.make
    ~print:(fun (o1, o2, init) ->
      Printf.sprintf "%s; %s from [%s]" (print_op o1) (print_op o2)
        (String.concat ";" (List.map string_of_int init)))
    QCheck.Gen.(triple gen_op gen_op (list_size (return 4) (int_range 0 9)))

let init_disk init =
  List.fold_left
    (fun (w, a) v -> (Sd.set w a (b (string_of_int v)), a + 1))
    (Sd.init 4, 0) init
  |> fst

(* Steps whose footprints are classified independent commute: running them
   in either order from any state yields the same final state and the same
   per-step observations.  This is exactly what lets DPOR explore one of
   the two orders. *)
let prop_independent_steps_commute =
  QCheck.Test.make ~name:"independent steps commute (state + observations)" ~count:500
    arb_case (fun (o1, o2, init) ->
      Fp.conflicts (op_fp o1) (op_fp o2)
      ||
      let w0 = init_disk init in
      let w1, r1 = apply w0 o1 in
      let w12, r2 = apply w1 o2 in
      let w2, r2' = apply w0 o2 in
      let w21, r1' = apply w2 o1 in
      Sd.equal w12 w21 && String.equal r1 r1' && String.equal r2 r2')

(* The converse guard: any pair sharing an address where at least one side
   writes must be classified dependent — including write/write. *)
let prop_same_address_write_dependent =
  QCheck.Test.make ~name:"same-address pair with a write is dependent" ~count:500 arb_case
    (fun (o1, o2, _) ->
      let addr = function Wr (a, _) -> a | Rd_ a -> a in
      let is_wr = function Wr _ -> true | Rd_ _ -> false in
      addr o1 <> addr o2
      || (not (is_wr o1 || is_wr o2))
      || Fp.conflicts (op_fp o1) (op_fp o2))

(* Dummy step_infos over a unit world, to exercise Explore.dependent
   itself (not just Footprint.conflicts). *)
let info ?(visible = false) tid fp =
  { E.si_tid = tid; si_label = "step"; si_fp = fp; si_visible = visible; si_branches = [];
    si_faults = []; si_fault_site = false }

let prop_visible_always_dependent =
  QCheck.Test.make ~name:"visible steps are dependent on everything" ~count:200 arb_case
    (fun (o1, o2, _) ->
      E.dependent (info ~visible:true 0 (op_fp o1)) (info 1 (op_fp o2))
      && E.dependent (info 0 (op_fp o1)) (info ~visible:true 1 (op_fp o2)))

let test_dependence_seeded_pairs () =
  let w0 = Fp.writes [ Fp.disk 0 ] in
  let r0 = Fp.reads [ Fp.disk 0 ] in
  let w1 = Fp.writes [ Fp.disk 1 ] in
  let c = Fp.writes [ Fp.cell "buffer" ] in
  Alcotest.(check bool) "write/write same address conflicts" true (Fp.conflicts w0 w0);
  Alcotest.(check bool) "write/read same address conflicts" true (Fp.conflicts w0 r0);
  Alcotest.(check bool) "write/write distinct addresses commute" false (Fp.conflicts w0 w1);
  Alcotest.(check bool) "read/read same address commutes" false (Fp.conflicts r0 r0);
  Alcotest.(check bool) "unknown conflicts with a read" true (Fp.conflicts Fp.unknown r0);
  Alcotest.(check bool) "unknown conflicts with pure" true (Fp.conflicts Fp.unknown Fp.pure);
  (* crash vs durable write: only durable writes are crash-relevant *)
  Alcotest.(check bool) "durable write is crash-relevant" true (E.crash_relevant w0);
  Alcotest.(check bool) "volatile write is not crash-relevant" false (E.crash_relevant c);
  Alcotest.(check bool) "read is not crash-relevant" false (E.crash_relevant r0);
  Alcotest.(check bool) "unknown is crash-relevant" true (E.crash_relevant Fp.unknown);
  (* lock discipline: an acquire is never co-enabled with the release of
     the same lock — load-bearing for catching lock-order deadlocks *)
  let l = Fp.lock 0 in
  Alcotest.(check bool) "acquire vs release same lock never co-enabled" false
    (Fp.may_be_coenabled (Fp.acquire l) (Fp.release l));
  Alcotest.(check bool) "acquire vs release distinct locks may be co-enabled" true
    (Fp.may_be_coenabled (Fp.acquire l) (Fp.release (Fp.lock 1)));
  (* Explore.dependent is conflicts + visibility *)
  Alcotest.(check bool) "disjoint invisible steps independent" false
    (E.dependent (info 0 w0) (info 1 w1))

(* ------------------------------------------------------------------ *)
(* Golden counterexamples                                              *)
(* ------------------------------------------------------------------ *)

let test_golden_journal () =
  List.iter (fun i -> Golden.lanes i)
    C.[ journal_record_first; journal_no_log; journal_recover_clear_first ]

let test_golden_kvs () = List.iter (fun i -> Golden.lanes i) C.[ kvs_recover_nop; kvs_strict_spec ]

let suite =
  [
    Alcotest.test_case "differential: pattern systems" `Quick test_diff_systems;
    Alcotest.test_case "differential: layered" `Quick test_diff_layered;
    Alcotest.test_case "differential: journal + kvs" `Quick test_diff_journal_kvs;
    Alcotest.test_case "differential: rd seeded bugs" `Quick test_diff_bugs_rd;
    Alcotest.test_case "differential: wal/shadow seeded bugs" `Quick
      test_diff_bugs_wal_shadow;
    Alcotest.test_case "differential: journal/kvs seeded bugs" `Quick
      test_diff_bugs_journal_kvs;
    Alcotest.test_case "kvs reduction: >=3x fewer executions" `Quick test_kvs_reduction;
    Alcotest.test_case "dependence: seeded pairs" `Quick test_dependence_seeded_pairs;
    QCheck_alcotest.to_alcotest prop_independent_steps_commute;
    QCheck_alcotest.to_alcotest prop_same_address_write_dependent;
    QCheck_alcotest.to_alcotest prop_visible_always_dependent;
    Alcotest.test_case "golden: journal counterexamples" `Quick test_golden_journal;
    Alcotest.test_case "golden: kvs counterexamples" `Quick test_golden_kvs;
  ]
