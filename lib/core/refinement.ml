module V = Tslang.Value
module Spec = Tslang.Spec

type ('w, 's) config = {
  spec : 's Spec.t;
  init_world : 'w;
  crash_world : 'w -> 'w;
  pp_world : 'w Fmt.t;
  threads : (Spec.call * ('w, V.t) Sched.Prog.t) list list;
  recovery : ('w, V.t) Sched.Prog.t;
  post : (Spec.call * ('w, V.t) Sched.Prog.t) list;
  max_crashes : int;
  fault_budget : int;
  max_seconds : float option;
  step_budget : int;
  fail_on_deadlock : bool;
}

let config ~spec ~init_world ~crash_world ~pp_world ~threads ~recovery ?(post = [])
    ?(max_crashes = 1) ?(fault_budget = 0) ?max_seconds ?(step_budget = 5_000_000)
    ?(fail_on_deadlock = true) () =
  {
    spec; init_world; crash_world; pp_world; threads; recovery; post; max_crashes;
    fault_budget; max_seconds; step_budget; fail_on_deadlock;
  }

type stats = {
  executions : int;
  steps : int;
  crashes_injected : int;
  vacuous : int;
  max_candidates : int;
  dedup_hits : int;
  frontier_hwm : int;
  commutations_pruned : int;
  sleep_skips : int;
  crash_skips : int;
  faults_injected : int;
  fault_schedules : int;
  retries_observed : int;
  cache_hits : int;
  fingerprint_hits : int;
  fingerprint_misses : int;
}

let pp_stats ppf s =
  Fmt.pf ppf
    "executions=%d steps=%d crashes=%d vacuous=%d max_candidates=%d dedup=%d frontier=%d"
    s.executions s.steps s.crashes_injected s.vacuous s.max_candidates s.dedup_hits
    s.frontier_hwm;
  if s.commutations_pruned > 0 || s.sleep_skips > 0 || s.crash_skips > 0 then
    Fmt.pf ppf " pruned=%d sleep_skips=%d crash_skips=%d" s.commutations_pruned
      s.sleep_skips s.crash_skips;
  if s.faults_injected > 0 || s.fault_schedules > 0 || s.retries_observed > 0 then
    Fmt.pf ppf " faults=%d fault_schedules=%d retries=%d" s.faults_injected
      s.fault_schedules s.retries_observed;
  if s.cache_hits > 0 then Fmt.pf ppf " cache_hits=%d" s.cache_hits;
  if s.fingerprint_hits > 0 || s.fingerprint_misses > 0 then
    Fmt.pf ppf " fp_hits=%d fp_misses=%d" s.fingerprint_hits s.fingerprint_misses

(* ------------------------------------------------------------------ *)
(* Structured counterexample events                                     *)
(* ------------------------------------------------------------------ *)

type event_kind = Invoke | Step | Return | Crash | Fault

type event_phase = Main | Recovery | Post

type event = {
  ev_tid : int option;
  ev_kind : event_kind;
  ev_phase : event_phase;
  ev_label : string;
  ev_text : string;
}

(* Exploration records an event as the data it was built from; the public
   [event] — label and rendered text — is built only when a failure is
   reported.  A check that holds renders nothing. *)
type ev =
  | Ev_invoke of int * Spec.call
  | Ev_return of int * Spec.call * V.t
  | Ev_step of int * string
  | Ev_fault of int * string * Sched.Fault.kind
      (** a fault replaces the step's normal outcome, so one event carries
          both the step label and the injected kind; it renders inline in
          the faulting thread's lane *)
  | Ev_crash
  | Ev_crash_recovery
  | Ev_rstep of string
  | Ev_pstep of string
  | Ev_post_return of int * Spec.call * V.t

let phase_of = function
  | Ev_invoke _ | Ev_return _ | Ev_step _ | Ev_fault _ | Ev_crash -> Main
  | Ev_crash_recovery | Ev_rstep _ -> Recovery
  | Ev_pstep _ | Ev_post_return _ -> Post

let label_of = function
  | Ev_invoke (_, call) -> "invoke " ^ call.Spec.op
  | Ev_return (_, call, _) | Ev_post_return (_, call, _) -> "return " ^ call.Spec.op
  | Ev_step (_, label) | Ev_rstep label | Ev_pstep label -> label
  | Ev_fault (_, _, kind) -> "FAULT " ^ Sched.Fault.kind_name kind
  | Ev_crash | Ev_crash_recovery -> "CRASH"

let event_of e =
  let ev_tid, ev_kind, ev_text =
    match e with
    | Ev_invoke (tid, call) ->
      (Some tid, Invoke, Fmt.str "t%d: invoke %a" tid Spec.pp_call call)
    | Ev_return (tid, call, v) ->
      (Some tid, Return, Fmt.str "t%d: %a returns %a" tid Spec.pp_call call V.pp v)
    | Ev_step (tid, label) -> (Some tid, Step, Fmt.str "t%d: %s" tid label)
    | Ev_fault (tid, label, kind) ->
      (Some tid, Fault, Fmt.str "t%d: %s FAULT %s" tid label (Sched.Fault.kind_name kind))
    | Ev_crash -> (None, Crash, "CRASH")
    | Ev_crash_recovery -> (None, Crash, "CRASH (during recovery)")
    | Ev_rstep label -> (None, Step, "recovery: " ^ label)
    | Ev_pstep label -> (None, Step, "post: " ^ label)
    | Ev_post_return (tid, call, v) ->
      (Some tid, Return, Fmt.str "post t%d: %a returns %a" tid Spec.pp_call call V.pp v)
  in
  { ev_tid; ev_kind; ev_phase = phase_of e; ev_label = label_of e; ev_text }

type failure = { reason : string; trace : string list; events : event list }

(* [revents] is newest-first, as accumulated during exploration. *)
let mk_failure reason revents =
  let events = List.rev_map event_of revents in
  { reason; trace = List.map (fun e -> e.ev_text) events; events }

let pp_failure ppf f =
  Fmt.pf ppf "@[<v>refinement violated: %s@,trace:@,  @[<v>%a@]@]" f.reason
    (Fmt.list ~sep:Fmt.cut Fmt.string)
    f.trace

(* Per-thread lanes: one column per thread id (in order of appearance),
   plus a rightmost lane for global events (crash, recovery, post steps). *)
let pp_failure_lanes ppf f =
  let tids =
    List.fold_left
      (fun acc e ->
        match e.ev_tid with
        | Some t when not (List.mem t acc) -> acc @ [ t ]
        | _ -> acc)
      [] f.events
  in
  let width = 26 in
  let n_lanes = List.length tids + 1 in
  let lane_of e =
    match e.ev_tid with
    | Some t ->
      let rec idx i = function
        | [] -> n_lanes - 1
        | t' :: _ when t' = t -> i
        | _ :: rest -> idx (i + 1) rest
      in
      idx 0 tids
    | None -> n_lanes - 1
  in
  let clip s = if String.length s > width - 2 then String.sub s 0 (width - 2) else s in
  Fmt.pf ppf "@[<v>refinement violated: %s@," f.reason;
  let header =
    List.map (fun t -> Printf.sprintf "t%d" t) tids @ [ "(crash/recovery/post)" ]
  in
  List.iteri
    (fun i h -> Fmt.pf ppf "%s%-*s" (if i = 0 then "  " else "| ") (width - 2) (clip h))
    header;
  Fmt.pf ppf "@,";
  List.iter
    (fun e ->
      let lane = lane_of e in
      for i = 0 to n_lanes - 1 do
        let cell = if i = lane then clip e.ev_label else "" in
        Fmt.pf ppf "%s%-*s" (if i = 0 then "  " else "| ") (width - 2) cell
      done;
      Fmt.pf ppf "@,")
    f.events;
  Fmt.pf ppf "@]"

(* Counterexample as a Chrome trace: one lane per thread, each event a
   1ms-wide box at its position in the interleaving; crashes are instants.
   Global (crash/recovery/post) events land on tid 1000. *)
let failure_chrome f =
  let cat_of = function Main -> "main" | Recovery -> "recovery" | Post -> "post" in
  let events =
    List.mapi
      (fun i e ->
        {
          Obs.Trace.name = e.ev_label;
          cat = cat_of e.ev_phase;
          ph =
            (match e.ev_kind with
            | Crash | Fault -> Obs.Trace.Instant
            | Invoke | Step | Return -> Obs.Trace.Complete 900.);
          ts = float_of_int (i * 1000);
          pid = 1;
          tid = (match e.ev_tid with Some t -> t | None -> 1000);
          args = [ ("text", Obs.Trace.S e.ev_text) ];
        })
      f.events
  in
  Obs.Trace.chrome_json events

type result =
  | Refinement_holds of stats
  | Refinement_violated of failure * stats
  | Budget_exhausted of stats

let stats_of = function
  | Refinement_holds st | Refinement_violated (_, st) | Budget_exhausted st -> st

let verdict_name = function
  | Refinement_holds _ -> "holds"
  | Refinement_violated _ -> "violated"
  | Budget_exhausted _ -> "budget"

(* ------------------------------------------------------------------ *)
(* Observability                                                        *)
(* ------------------------------------------------------------------ *)

(* A run's counts live only in its [stats].  The registry holds just what
   a deterministic result cannot: the phase wall times and how the
   parallel work was split, added once per check.  Trace spans (phases)
   and instants (crash injections) are emitted live, gated on
   [Obs.Trace.enabled]. *)
module Mx = struct
  open Obs.Metrics

  let explore_us = gauge ~labels:[ ("phase", "explore") ] "perennial_refinement_phase_us"
  let recovery_us = gauge ~labels:[ ("phase", "recovery") ] "perennial_refinement_phase_us"
  let post_us = gauge ~labels:[ ("phase", "post") ] "perennial_refinement_phase_us"
  let work_items = counter "perennial_refinement_work_items_total"

  let steals = counter "perennial_refinement_steals_total"
  (** work items executed by a non-primary domain — timing-dependent, never
      part of deterministic {!stats} *)
end

(* Internal mutable counters; one record per kernel run (a sequential
   check, the phase-1 splitter, or one job of the worker pool), never
   shared between domains — merged with [merge_into] and snapshotted into
   [stats] once per check. *)
type counters = {
  mutable c_executions : int;
  mutable c_steps : int;
  mutable c_crashes : int;
  mutable c_vacuous : int;
  mutable c_max_candidates : int;
  mutable c_dedup : int;
  mutable c_frontier : int;
  mutable c_commut : int;
  mutable c_sleep : int;
  mutable c_crash_skips : int;
  mutable c_faults : int;
  mutable c_fault_scheds : int;
  mutable c_retries : int;
  mutable c_cache_hits : int;
  mutable c_fp_hits : int;
  mutable c_fp_misses : int;
  mutable c_recovery_us : float;
  mutable c_post_us : float;
}

let fresh_counters () =
  { c_executions = 0; c_steps = 0; c_crashes = 0; c_vacuous = 0; c_max_candidates = 0;
    c_dedup = 0; c_frontier = 0; c_commut = 0; c_sleep = 0; c_crash_skips = 0;
    c_faults = 0; c_fault_scheds = 0; c_retries = 0; c_cache_hits = 0;
    c_fp_hits = 0; c_fp_misses = 0;
    c_recovery_us = 0.; c_post_us = 0. }

(* Counts add; high-water marks take the max.  [c_fault_scheds] increments
   only on globally-fresh schedule keys (the shared seen-table below), so
   the sum over instances is the cardinality of the union — independent of
   how the work was partitioned. *)
let merge_into dst src =
  dst.c_executions <- dst.c_executions + src.c_executions;
  dst.c_steps <- dst.c_steps + src.c_steps;
  dst.c_crashes <- dst.c_crashes + src.c_crashes;
  dst.c_vacuous <- dst.c_vacuous + src.c_vacuous;
  dst.c_max_candidates <- max dst.c_max_candidates src.c_max_candidates;
  dst.c_dedup <- dst.c_dedup + src.c_dedup;
  dst.c_frontier <- max dst.c_frontier src.c_frontier;
  dst.c_commut <- dst.c_commut + src.c_commut;
  dst.c_sleep <- dst.c_sleep + src.c_sleep;
  dst.c_crash_skips <- dst.c_crash_skips + src.c_crash_skips;
  dst.c_faults <- dst.c_faults + src.c_faults;
  dst.c_fault_scheds <- dst.c_fault_scheds + src.c_fault_scheds;
  dst.c_retries <- dst.c_retries + src.c_retries;
  dst.c_cache_hits <- dst.c_cache_hits + src.c_cache_hits;
  dst.c_fp_hits <- dst.c_fp_hits + src.c_fp_hits;
  dst.c_fp_misses <- dst.c_fp_misses + src.c_fp_misses;
  dst.c_recovery_us <- dst.c_recovery_us +. src.c_recovery_us;
  dst.c_post_us <- dst.c_post_us +. src.c_post_us

let snapshot ctr =
  Obs.Metrics.add Mx.recovery_us ctr.c_recovery_us;
  Obs.Metrics.add Mx.post_us ctr.c_post_us;
  {
    executions = ctr.c_executions;
    steps = ctr.c_steps;
    crashes_injected = ctr.c_crashes;
    vacuous = ctr.c_vacuous;
    max_candidates = ctr.c_max_candidates;
    dedup_hits = ctr.c_dedup;
    frontier_hwm = ctr.c_frontier;
    commutations_pruned = ctr.c_commut;
    sleep_skips = ctr.c_sleep;
    crash_skips = ctr.c_crash_skips;
    faults_injected = ctr.c_faults;
    fault_schedules = ctr.c_fault_scheds;
    retries_observed = ctr.c_retries;
    cache_hits = ctr.c_cache_hits;
    fingerprint_hits = ctr.c_fp_hits;
    fingerprint_misses = ctr.c_fp_misses;
  }

(* Time one top-level phase run, accumulating wall time into [cell] and
   emitting a span when a trace sink is installed. *)
let timed_phase name cell f =
  let t0 = Obs.Trace.now_us () in
  let finally () = cell (Obs.Trace.now_us () -. t0) in
  if Obs.Trace.enabled () then
    Obs.Trace.with_span ~cat:"refinement" name (fun () -> Fun.protect ~finally f)
  else Fun.protect ~finally f

(* Run a whole check under a span, timing it into the metrics. *)
let timed_check name f =
  let t0 = Obs.Trace.now_us () in
  let finish r =
    Obs.Metrics.add Mx.explore_us (Obs.Trace.now_us () -. t0);
    r
  in
  if Obs.Trace.enabled () then
    finish (Obs.Trace.with_span ~cat:"refinement" name f)
  else finish (f ())

exception Violation of failure
exception Budget

(* A pending-or-linearized operation on the spec side.  [result = None]
   means not yet linearized. *)
type pending = { ptid : int; pcall : Spec.call; result : V.t option }

(* A linearization candidate: one way the spec could have explained the
   execution so far. *)
type 's cand = { st : 's; pend : pending list (* sorted by ptid *) }

(* A running thread: its current operation, its program position, and the
   operations it has yet to invoke. *)
type 'w live = {
  tid : int;
  call : Spec.call;
  prog : ('w, V.t) Sched.Prog.t;
  rest : (Spec.call * ('w, V.t) Sched.Prog.t) list;
}

(* Spec-level undefined behaviour reachable: obligations become vacuous. *)
exception Vacuous

(* ------------------------------------------------------------------ *)
(* Candidate tracking, shared by the exhaustive and randomized checkers *)
(* ------------------------------------------------------------------ *)

type 's tracker = {
  saturate : 's cand list -> 's cand list;
      (** close under linearizing any pending operation; raises [Vacuous]
          on reachable spec-level undefined behaviour *)
  add_pending : int -> Spec.call -> 's cand list -> 's cand list;
  respond : int -> V.t -> ev list -> 's cand list -> 's cand list;
      (** filter candidates by an observed response; raises [Violation] *)
  crash_cands : ev list -> 's cand list -> 's cand list;
      (** apply the atomic spec crash transition, dropping in-flight ops;
          raises [Violation] if unsatisfiable *)
}

(* [live] gates the stat/coverage side effects: during work-item replay the
   tracker must recompute candidate sets without re-counting what the
   splitting phase already counted. *)
let make_tracker (type s) (spec : s Spec.t) (ctr : counters) ~(live : bool ref) :
    s tracker =
  let compare_pending a b =
    let c = Int.compare a.ptid b.ptid in
    if c <> 0 then c
    else
      let c = String.compare a.pcall.Spec.op b.pcall.Spec.op in
      if c <> 0 then c
      else
        let c = List.compare V.compare a.pcall.Spec.args b.pcall.Spec.args in
        if c <> 0 then c else Option.compare V.compare a.result b.result
  in
  let compare_cand c1 c2 =
    let c = spec.Spec.compare_state c1.st c2.st in
    if c <> 0 then c else List.compare compare_pending c1.pend c2.pend
  in
  let module Cands = Set.Make (struct
    type t = s cand

    let compare = compare_cand
  end) in
  let observe_size n = if n > ctr.c_max_candidates then ctr.c_max_candidates <- n in
  let dedup cands =
    let n0 = List.length cands in
    let sorted = List.sort_uniq compare_cand cands in
    if !live then begin
      let n = List.length sorted in
      ctr.c_dedup <- ctr.c_dedup + (n0 - n);
      observe_size n
    end;
    sorted
  in
  (* Close under linearizing pending operations, one round per
     linearization depth: [seen] holds every candidate found so far, and a
     round's frontier is what the previous round added, newest first.  A
     round adds no duplicates, so it only observes the set's size.  [add]
     doubles as the membership test: it returns [seen] itself when an
     equal candidate is already there. *)
  let saturate cands =
    let start = dedup cands in
    let seen = ref (Cands.of_list start) in
    let rec grow frontier =
      let fresh = ref [] in
      List.iter
        (fun c ->
          List.iter
            (fun p ->
              match p.result with
              | Some _ -> ()
              | None ->
                if Spec.op_has_undefined spec c.st p.pcall then raise Vacuous;
                List.iter
                  (fun (st', v) ->
                    let pend =
                      List.map
                        (fun q -> if q.ptid = p.ptid then { q with result = Some v } else q)
                        c.pend
                    in
                    let c' = { st = st'; pend } in
                    let seen' = Cands.add c' !seen in
                    if seen' != !seen then begin
                      seen := seen';
                      fresh := c' :: !fresh
                    end)
                  (Spec.op_outcomes spec c.st p.pcall))
            c.pend)
        frontier;
      match !fresh with
      | [] -> ()
      | fs ->
        if !live then observe_size (Cands.cardinal !seen);
        grow fs
    in
    grow start;
    Cands.elements !seen
  in
  (* Spec-arm coverage: each invocation registers the outcome arms the spec
     offers in the invoking state ([<system>:<op>:ok|err], DESIGN.md S20);
     each response hits the arm it actually took.  An arm registered but
     never hit — an error arm under fault budget 0, say — is vacuous. *)
  let arm_site call cls = spec.Spec.name ^ ":" ^ call.Spec.op ^ ":" ^ cls in
  let arm_class v = if Sched.Fault.is_eio v then "err" else "ok" in
  let register_arms call cands =
    if !live && Obs.Coverage.enabled () then
      match cands with
      | [] -> ()
      | c :: _ ->
        if not (Spec.op_has_undefined spec c.st call) then
          List.iter
            (fun (_, v) ->
              Obs.Coverage.register Obs.Coverage.Arm (arm_site call (arm_class v)))
            (Spec.op_outcomes spec c.st call)
  in
  let hit_arm tid v cands =
    if !live && Obs.Coverage.enabled () then
      let rec find = function
        | [] -> None
        | c :: rest ->
          (match List.find_opt (fun p -> p.ptid = tid) c.pend with
          | Some p -> Some p.pcall
          | None -> find rest)
      in
      match find cands with
      | Some call -> Obs.Coverage.hit Obs.Coverage.Arm (arm_site call (arm_class v))
      | None -> ()
  in
  let add_pending tid call cands =
    register_arms call cands;
    List.map
      (fun c ->
        { c with
          pend =
            List.sort compare_pending
              ({ ptid = tid; pcall = call; result = None } :: c.pend)
        })
      cands
  in
  let respond tid v trace cands =
    hit_arm tid v cands;
    let sat = saturate cands in
    let kept =
      List.filter_map
        (fun c ->
          match List.find_opt (fun p -> p.ptid = tid) c.pend with
          | Some { result = Some v'; _ } when V.equal v v' ->
            Some { c with pend = List.filter (fun p -> p.ptid <> tid) c.pend }
          | Some _ | None -> None)
        sat
    in
    match dedup kept with
    | [] ->
      raise
        (Violation
           (mk_failure
              (Fmt.str "no linearization explains thread %d returning %a" tid V.pp v)
              trace))
    | cs -> cs
  in
  let crash_cands trace cands =
    let crashed =
      List.concat_map
        (fun c ->
          List.map (fun st' -> { st = st'; pend = [] }) (Spec.crash_outcomes spec c.st))
        cands
    in
    match dedup crashed with
    | [] ->
      raise (Violation (mk_failure "spec crash transition unsatisfiable" trace))
    | cs -> cs
  in
  { saturate; add_pending; respond; crash_cands }

(* ------------------------------------------------------------------ *)
(* The exploration kernel                                               *)
(* ------------------------------------------------------------------ *)

(* Outcome of one kernel instance; Violation/Budget never escape an
   instance, so parallel work items and walks report independently and the
   caller picks the deterministic winner. *)
type inst_outcome = I_ok | I_viol of failure | I_budget

(* A kernel instance either searches the schedule tree, taking every
   alternative at each choice point, or walks it, drawing one.

   A search runs in one of three modes:
   - whole run ([cutoff = max_int], no [emit], empty [replay_path]);
   - splitting phase ([emit = Some f]): explores (and fully accounts) the
     region above [cutoff]; on reaching a node at depth >= [cutoff] it
     emits the path of branch indices leading there as a work item and
     backs off — the node itself is untouched;
   - work item ([replay_path] non-empty): replays the recorded branch
     choices from the root without counting anything (phase 1 owns those
     stats), then explores the subtree below the cutoff node live.

   Branch indices number, per node, the deterministic enumeration the live
   code performs: for each enabled thread in order, each normal outcome
   then each fault branch.  Crash branches are never indexed — they hang
   off a node and are wholly explored by whichever instance visits that
   node live.  The decomposition [phase-1 work + each item at its emission
   point] is exactly the sequential DFS, so merged stats and the first
   counterexample are independent of the domain count.

   Walks run schedules [first..last], each from scratch and each drawing
   from its own RNG seeded by [(seed, index)]. *)
type mode =
  | Search of {
      strategy : Explore.strategy;
      cutoff : int;
      emit : (int list -> unit) option;
      replay_path : int list;
      fp : (bool * string option) option;  (** fingerprinting: symmetry, key prefix *)
    }
  | Walks of { seed : int; crash_prob : float; first : int; last : int; schedules : int }

let run_instance (type w s) (cfg : (w, s) config) ~mode ~fault_budget ~deadline ~step_base
    ~sched_seen ~sched_lock ~(ctr : counters) : inst_outcome =
  let spec = cfg.spec in
  let counting = ref true in
  let tk = make_tracker spec ctr ~live:counting in
  let next_tid = ref 0 in
  let fresh_tid () =
    let t = !next_tid in
    incr next_tid;
    t
  in

  (* Choice points.  A search takes every alternative; a walk draws one from
     [rng] — the crash coin first, then the thread, then the outcome, so a
     walk's draws are a function of its seed and index alone. *)
  let rng = ref None in
  let crash_prob = match mode with Walks w -> w.crash_prob | Search _ -> 0. in
  let choose xs =
    match !rng with
    | None -> xs
    | Some r -> [ List.nth xs (Random.State.int r (List.length xs)) ]
  in
  (* [crash_or ~can crash rest]: a search explores the crash (when [can])
     and then the rest; a walk takes one of the two. *)
  let crash_or ~can crash rest =
    match !rng with
    | None ->
      if can then crash ();
      rest ()
    | Some r -> if can && Random.State.float r 1.0 < crash_prob then crash () else rest ()
  in

  (* Coverage sites (DESIGN.md S20).  A crash site is named by the newest
     trace event at the injection point ([<phase>:<label>], or ["init"]
     before any event) — a function of the path, never of exploration
     order.  A fault site is [<step label>:<fault kind>].  Sites register
     where the checker *could* branch and record a hit where it *does*;
     a pruned crash branch registers without hitting, so reduced
     strategies report exactly which crash points they relied on pruning
     for. *)
  let phase_name = function Main -> "main" | Recovery -> "recovery" | Post -> "post" in
  let crash_site = function
    | [] -> "init"
    | e :: _ -> phase_name (phase_of e) ^ ":" ^ label_of e
  in
  let cov_crash_skip trace =
    if Obs.Coverage.enabled () then
      Obs.Coverage.register Obs.Coverage.Crash (crash_site trace);
    if Explore.Prov.enabled () then
      Explore.Prov.record Explore.Prov.Clean_crash ~site:(crash_site trace) ()
  in
  let fault_site label kind = label ^ ":" ^ Sched.Fault.kind_name kind in
  let cov_fault_sites label flts =
    if Obs.Coverage.enabled () then
      List.iter
        (fun (kind, _, _) -> Obs.Coverage.register Obs.Coverage.Fault (fault_site label kind))
        flts
  in
  let cov_fault_hit label kind =
    if Obs.Coverage.enabled () then
      Obs.Coverage.hit Obs.Coverage.Fault (fault_site label kind)
  in
  let note_crash trace =
    ctr.c_crashes <- ctr.c_crashes + 1;
    Obs.Trace.instant ~cat:"crash" "crash_injection";
    if Obs.Coverage.enabled () then Obs.Coverage.hit Obs.Coverage.Crash (crash_site trace)
  in

  (* Process all finished threads' responses eagerly, invoking each thread's
     next operation as the previous one completes.  Span marks are stripped
     here: the checker explores each step along many branches, so per-branch
     span events would be meaningless — marks only matter to the runner. *)
  let rec settle lives cands trace =
    let lives =
      List.map (fun l -> { l with prog = Sched.Prog.strip_marks l.prog }) lives
    in
    let rec find acc = function
      | [] -> None
      | ({ prog = Sched.Prog.Done v; _ } as l) :: rest -> Some (List.rev_append acc rest, l, v)
      | l :: rest -> find (l :: acc) rest
    in
    match find [] lives with
    | None -> (lives, cands, trace)
    | Some (others, l, v) ->
      let trace = Ev_return (l.tid, l.call, v) :: trace in
      let cands = tk.respond l.tid v trace cands in
      (match l.rest with
      | [] -> settle others cands trace
      | (call', prog') :: rest' ->
        let tid = fresh_tid () in
        let live' = { tid; call = call'; prog = prog'; rest = rest' } in
        let trace = Ev_invoke (tid, call') :: trace in
        settle (live' :: others) (tk.add_pending tid call' cands) trace)
  in

  (* The step budget is shared between the splitting phase and each work
     item ([step_base] carries phase 1's spend into the items), so a
     parallel run's per-item budget matches what the item's subtree would
     have had left sequentially at its emission point. *)
  let bump_steps () =
    ctr.c_steps <- ctr.c_steps + 1;
    if step_base + ctr.c_steps > cfg.step_budget then raise Budget;
    if Obs.Progress.enabled () && ctr.c_steps land 4095 = 0 then
      Obs.Progress.tick ~executions:ctr.c_executions ~steps:(step_base + ctr.c_steps)
        ~frontier:ctr.c_frontier ~fault_schedule:ctr.c_fault_scheds
        ?deadline_us:deadline ();
    (* The wall clock is polled once per 1024 steps: cheap enough to leave
       on, coarse enough that a check never overshoots by much. *)
    match deadline with
    | Some t when ctr.c_steps land 1023 = 0 && Obs.Trace.now_us () > t ->
      raise Budget
    | Some _ | None -> ()
  in

  (* Fault bookkeeping.  [fpath] is the fault schedule of the current DFS
     path, newest injection first, as (site, kind): fault-eligible steps
     are numbered 0, 1, … per path in commit order, mirroring the runner's
     oracle.  Distinct non-empty schedules across completed executions
     feed the [fault_schedules] stat; the seen-table is shared across the
     check's instances (mutex-guarded), so the count is the cardinality of
     the union however the tree was partitioned. *)
  let fpath = ref [] in
  let in_fault_branch ~live site kind f =
    if live then begin
      ctr.c_faults <- ctr.c_faults + 1;
      Obs.Trace.instant ~cat:"fault" "fault_injection"
    end;
    fpath := (site, kind) :: !fpath;
    Fun.protect ~finally:(fun () -> fpath := List.tl !fpath) f
  in
  let record_execution () =
    ctr.c_executions <- ctr.c_executions + 1;
    match !fpath with
    | [] -> ()
    | path ->
      let key =
        String.concat ";"
          (List.rev_map
             (fun (site, kind) ->
               Printf.sprintf "%d:%s" site (Sched.Fault.kind_name kind))
             path)
      in
      Mutex.lock sched_lock;
      if not (Hashtbl.mem sched_seen key) then begin
        Hashtbl.add sched_seen key ();
        ctr.c_fault_scheds <- ctr.c_fault_scheds + 1
      end;
      Mutex.unlock sched_lock
  in
  (* Retry loops announce themselves by labelling their steps "retry…";
     counting committed retry steps gives the [retries_observed] stat. *)
  let note_label label =
    if String.starts_with ~prefix:"retry" label then ctr.c_retries <- ctr.c_retries + 1
    else if String.starts_with ~prefix:"rpc_cache_hit" label then
      ctr.c_cache_hits <- ctr.c_cache_hits + 1
  in

  (* A path that reaches spec-level undefined behaviour is vacuously
     correct: the spec constrains nothing for such clients (§8.3). *)
  let vacuous_ok f = try f () with Vacuous -> ctr.c_vacuous <- ctr.c_vacuous + 1 in

  (* Thread ids must be a function of the path, not of how many sibling
     paths the DFS visited first: each exploration subtree restores the
     tid counter on exit, so the rendered counterexample for a given path
     is identical whichever strategy (or sibling order) found it. *)
  let scoped_tids f =
    let saved = !next_tid in
    Fun.protect ~finally:(fun () -> next_tid := saved) f
  in

  (* Recovery and the post probes run one program alone: undefined
     behaviour or a blocked step is a violation. *)
  let solo_outcomes what label result trace =
    match result with
    | Sched.Prog.Ub reason ->
      raise
        (Violation
           (mk_failure (Fmt.str "%s hit undefined behaviour at %s: %s" what label reason) trace))
    | Sched.Prog.Steps [] ->
      raise (Violation (mk_failure (Fmt.str "%s blocked at %s" what label) trace))
    | Sched.Prog.Steps outs -> outs
  in

  (* Run the post-phase probe operations sequentially, then count one
     finished execution. *)
  let rec run_post w cands trace ops =
    scoped_tids @@ fun () ->
    match ops with
    | [] -> record_execution ()
    | (call, prog) :: rest ->
      let tid = fresh_tid () in
      let cands = tk.add_pending tid call cands in
      let rec go w prog trace =
        match prog with
        | Sched.Prog.Mark (_, p) -> go w p trace
        | Sched.Prog.Done v ->
          let trace = Ev_post_return (tid, call, v) :: trace in
          vacuous_ok (fun () ->
              let cands = tk.respond tid v trace cands in
              run_post w cands trace rest)
        | Sched.Prog.Atomic { label; action; k; _ } ->
          bump_steps ();
          List.iter
            (fun (w', v) -> go w' (k v) (Ev_pstep label :: trace))
            (choose (solo_outcomes "post op" label (action w) trace))
      in
      go w prog trace
  in
  let timed_post w cands trace =
    timed_phase "post" (fun us -> ctr.c_post_us <- ctr.c_post_us +. us) (fun () ->
        run_post w cands trace cfg.post)
  in

  (* Recovery runs single-threaded; it may crash and restart (idempotence,
     §5.5).  [crashes] counts injected crashes on this path.  Once it
     completes: one atomic spec crash transition — all operations still in
     flight at the crash are dropped (those that linearized keep their
     effect in the candidate state) — then the post probes. *)
  let rec run_recovery w cands crashes trace =
    let rec go w prog trace =
      (* marks are instantaneous annotations: consume them before branching
         so the crash opportunity at this world is explored exactly once *)
      let prog = Sched.Prog.strip_marks prog in
      crash_or ~can:(crashes < cfg.max_crashes)
        (fun () ->
          note_crash trace;
          run_recovery (cfg.crash_world w) cands (crashes + 1) (Ev_crash_recovery :: trace))
        (fun () ->
          match prog with
          | Sched.Prog.Mark _ -> assert false (* stripped above *)
          | Sched.Prog.Done _ -> run_post w (tk.crash_cands trace cands) trace cfg.post
          | Sched.Prog.Atomic { label; action; k; _ } ->
            bump_steps ();
            List.iter
              (fun (w', v) -> go w' (k v) (Ev_rstep label :: trace))
              (choose (solo_outcomes "recovery" label (action w) trace)))
    in
    scoped_tids (fun () -> go w cfg.recovery trace)
  in
  (* A main-phase crash: recovery from the crashed world, which starts
     with [crashes] counted against [max_crashes]. *)
  let crash_branch w cands crashes trace =
    note_crash trace;
    vacuous_ok (fun () ->
        let sat = tk.saturate cands in
        timed_phase "recovery" (fun us -> ctr.c_recovery_us <- ctr.c_recovery_us +. us)
          (fun () -> run_recovery (cfg.crash_world w) sat crashes (Ev_crash :: trace)))
  in

  (* The main phase's step function: every running thread's next atomic
     step at [w], in thread order — label, normal branches, fault branches
     (when [faults]) and whether the step is a fault site.  Blocked threads
     are left out.  Undefined behaviour in any thread's step is a violation,
     raised here, before any of the node's branches is explored.  Only
     [footprints] evaluates the steps' footprints for DPOR; otherwise every
     step counts as [Unknown], dependent with everything and crash-dirty. *)
  let enabled_steps ~live ~footprints ~faults w lives trace =
    List.filter_map
      (fun l ->
        match l.prog with
        | Sched.Prog.Done _ | Sched.Prog.Mark _ -> assert false (* settled *)
        | Sched.Prog.Atomic { label; fp; action; faults = fault_points; k } ->
          (match action w with
          | Sched.Prog.Ub reason ->
            raise
              (Violation
                 (mk_failure
                    (Fmt.str "thread %d hit undefined behaviour at %s: %s" l.tid label reason)
                    trace))
          | Sched.Prog.Steps [] -> None
          | Sched.Prog.Steps outs ->
            let branches = List.map (fun (w', v) -> (w', k v)) outs in
            let flts = fault_points w in
            if live then cov_fault_sites label flts;
            let fault_branches =
              if faults then List.map (fun (kind, w', v) -> (kind, (w', k v))) flts else []
            in
            let fp = if footprints then fp w else Sched.Footprint.unknown in
            Some
              { Explore.si_tid = l.tid; si_label = label; si_fp = fp;
                (* a step whose fault branches will be explored is globally
                   dependent, like an [Unknown] footprint: faulted and
                   normal outcomes may diverge arbitrarily, so it is never
                   reordered *)
                si_visible =
                  Explore.crash_relevant fp
                  || fault_branches <> []
                  || List.exists
                       (fun (_, p) ->
                         match Sched.Prog.strip_marks p with
                         | Sched.Prog.Done _ -> true
                         | _ -> false)
                       branches;
                si_branches = branches;
                si_faults = fault_branches;
                si_fault_site = flts <> [] }))
      lives
  in
  let resume lives si prog' =
    List.map (fun l -> if l.tid = si.Explore.si_tid then { l with prog = prog' } else l) lives
  in
  let deadlock lives trace =
    if cfg.fail_on_deadlock then
      raise
        (Violation
           (mk_failure
              (Fmt.str "deadlock: threads %s all blocked"
                 (String.concat "," (List.map (fun l -> string_of_int l.tid) lives)))
              trace))
  in

  let initial () =
    let lives, cands =
      List.fold_left
        (fun (lives, cands) ops ->
          match ops with
          | [] -> (lives, cands)
          | (call, prog) :: rest ->
            let tid = fresh_tid () in
            ({ tid; call; prog; rest } :: lives, tk.add_pending tid call cands))
        ([], [ { st = spec.Spec.init; pend = [] } ])
        cfg.threads
    in
    (List.rev lives, cands)
  in

  (* The search.  Interleave threads; crash at any point; while the fault
     budget [fused < fault_budget] lasts, every fault point also branches.
     [depth] is the schedule depth of this path, tracked as a high-water
     mark; [fsite] numbers the fault-eligible steps committed on this path;
     [rpath] is the reversed branch-index path (maintained only when
     emitting work items).

     Every strategy is a policy at each node over the same step function.
     DPOR (Flanagan–Godefroid, optional sleep sets, plus crash-point
     pruning) rests on three conservative rules, cross-validated against
     naive by the differential harness in test/test_explore.ml:
     - a crash branch is skipped only at "clean" nodes — the step into the
       node wrote no durable state ([dirty] from its footprint) and settling
       observed no response/invocation (trace unchanged) — so crashing here
       reaches exactly the recovery state and candidate set already explored
       at the nearest dirty ancestor;
     - a step is globally dependent (kept in order w.r.t. everything) if it
       writes durable state, has an [Unknown] footprint, or may complete its
       operation: responses and the invocations they trigger reorder the
       linearization obligations, so only footprint-disjoint steps strictly
       between those points commute;
     - threads blocked or unannotated degrade to naive exploration around
       them.

     A conservative node explores ALL enabled steps in thread order, with
     no sleep set and no race detection.  Naive makes every node
     conservative, and as it computes no footprints (every step [Unknown],
     hence crash-dirty) it never skips a crash; it pushes no stack frames
     either, since nothing below reads them.  Parallel DPOR makes the nodes
     above the split cutoff conservative — so no deep race ever needs to
     add a backtrack point to a shallow node owned by another instance (the
     add would be a no-op anyway).  The shallow region loses some
     reduction; the subtrees keep full DPOR.  Within parallel mode the
     exploration is a fixed function of the split depth, hence identical
     for every domain count. *)
  let search ~strategy ~cutoff ~emit ~replay_path ~fp =
    let module E = Explore in
    let naive = strategy = E.Naive in
    let sleep_sets = strategy = E.Dpor_sleep in
    let emitting = emit <> None in
    let replay = ref replay_path in
    counting := replay_path = [];
    (* A thread's continuation identity: MD5 over the structural serialization
       of (current call, program position, remaining ops), with [Closures] so
       the program's continuation closures — code pointer plus captured
       environment — serialize too.  Equal keys mean structurally identical
       continuations, hence identical future behaviour; distinct keys for
       behaviourally equal threads only cost pruning, never soundness.  Code
       pointers are stable within a process (and across its domains), which is
       exactly the lifetime of the intern table's relevance. *)
    let thread_key l =
      Digest.to_hex
        (Digest.string (Marshal.to_string (l.call, l.prog, l.rest) [ Marshal.Closures ]))
    in
    let vstr v = Fmt.str "%a" V.pp v in
    let fp_seen : (int, unit) Hashtbl.t = Hashtbl.create (if fp <> None then 4096 else 1) in
    (* Global fingerprint pruning (DESIGN.md S21): at a settled node, digest
       everything the subtree is a function of; if this instance has
       explored an equal digest before, the whole subtree (crash branch
       included) is redundant.  Naive strategy only — under DPOR the
       backtrack sets of the pruned path's nodes would be lost. *)
    let fp_prune w lives cands crashes fused fsite =
      match fp with
      | None -> false
      | Some (symmetry, key_prefix) ->
        let st =
          {
            Fingerprint.f_world = Fmt.str "%a" cfg.pp_world w;
            f_cands =
              List.map
                (fun c ->
                  {
                    Fingerprint.f_state = Fmt.str "%a" spec.Spec.pp_state c.st;
                    f_pend =
                      List.map
                        (fun p ->
                          {
                            Fingerprint.f_ptid = p.ptid;
                            f_op = p.pcall.Spec.op;
                            f_args = List.map vstr p.pcall.Spec.args;
                            f_result = Option.map vstr p.result;
                          })
                        c.pend;
                  })
                cands;
            f_phase = "main";
            f_crashes = crashes;
            f_fused = fused;
            f_fsite = fsite;
            f_threads =
              List.map
                (fun l -> { Fingerprint.f_tid = l.tid; f_class = thread_key l; f_hist = [] })
                (List.sort (fun a b -> Int.compare a.tid b.tid) lives);
          }
        in
        let t, _fresh = Fingerprint.digest ~symmetry ?key_prefix st in
        let id = Fingerprint.id t in
        if Hashtbl.mem fp_seen id then begin
          ctr.c_fp_hits <- ctr.c_fp_hits + 1;
          true
        end
        else begin
          Hashtbl.add fp_seen id ();
          ctr.c_fp_misses <- ctr.c_fp_misses + 1;
          false
        end
    in
    let rec go w lives cands crashes trace depth fused fsite rpath ~dirty ~stack ~sleep =
      scoped_tids @@ fun () ->
      (* the next replayed branch index; [None]: this node is explored live *)
      let sel =
        match !replay with
        | [] -> None
        | i :: rest ->
          replay := rest;
          Some i
      in
      let live = sel = None in
      match emit with
      | Some e when live && depth >= cutoff -> e (List.rev rpath)
      | _ -> (
        counting := live;
        if live && depth > ctr.c_frontier then ctr.c_frontier <- depth;
        match settle lives cands trace with
        | exception Vacuous -> if live then ctr.c_vacuous <- ctr.c_vacuous + 1
        | lives, cands, trace' ->
          counting := true;
          let dirty = dirty || not (trace' == trace) in
          let trace = trace' in
          if live && fp_prune w lives cands crashes fused fsite then ()
          else begin
            (* crash branch: a crash may strike at any point, including after
               all operations completed (durability of acknowledged writes).
               Never replayed: the instance that visits this node live owns
               it. *)
            if live && crashes < cfg.max_crashes then
              if dirty then crash_branch w cands (crashes + 1) trace
              else begin
                ctr.c_crash_skips <- ctr.c_crash_skips + 1;
                cov_crash_skip trace
              end;
            if lives = [] then (if live then timed_post w cands trace)
            else
              match
                enabled_steps ~live ~footprints:(not naive) ~faults:(fused < fault_budget) w
                  lives trace
              with
              | [] -> if live then deadlock lives trace
              | enabled ->
                node lives cands crashes trace depth fused fsite rpath ~sel ~stack ~sleep enabled
          end)
    (* Explore the node's enabled steps under the strategy's policy. *)
    and node lives cands crashes trace depth fused fsite rpath ~sel ~stack ~sleep enabled =
      let live = sel = None in
      let brc = ref 0 in
      (* [si]'s normal outcomes, then its fault branches, so the first
         counterexample found is path-deterministic; a replayed node
         follows only branch [sel].  A torn write persists a durable
         prefix, so fault children are always crash-dirty. *)
      let explore si ~stack ~sleep =
        if live then begin
          bump_steps ();
          note_label si.E.si_label
        end;
        let fsite' = if si.E.si_fault_site then fsite + 1 else fsite in
        let branch child =
          let idx = !brc in
          incr brc;
          match sel with
          | Some s when s <> idx -> ()
          | _ -> child (if emitting then idx :: rpath else rpath)
        in
        List.iter
          (fun (w', prog') ->
            branch (fun rpath ->
                go w' (resume lives si prog') cands crashes
                  (Ev_step (si.E.si_tid, si.E.si_label) :: trace)
                  (depth + 1) fused fsite' rpath ~dirty:(E.crash_relevant si.E.si_fp) ~stack
                  ~sleep))
          si.E.si_branches;
        List.iter
          (fun (kind, (w', prog')) ->
            branch (fun rpath ->
                if live then cov_fault_hit si.E.si_label kind;
                in_fault_branch ~live fsite kind (fun () ->
                    go w' (resume lives si prog') cands crashes
                      (Ev_fault (si.E.si_tid, si.E.si_label, kind) :: trace)
                      (depth + 1) (fused + 1) fsite' rpath ~dirty:true ~stack ~sleep)))
          si.E.si_faults
      in
      if naive then List.iter (fun si -> explore si ~stack:[] ~sleep:[]) enabled
      else begin
        let node = E.node ~sleep enabled in
        let push si = { E.f_node = node; f_step = si } :: stack in
        if emitting || not live then begin
          (* a shallow node in parallel mode (splitting live, or mirrored
             during item replay so deep race detection sees the same
             frames; its backtrack adds are no-ops) *)
          node.E.n_backtrack <- List.map (fun si -> si.E.si_tid) enabled;
          List.iter (fun si -> explore si ~stack:(push si) ~sleep:[]) enabled
        end
        else begin
          E.detect_races stack node;
          let explored = ref 0 and slept = ref 0 in
          let first_explored = ref None in
          let z = ref sleep in
          let rec drive () =
            match E.next_candidate node with
            | None -> ()
            | Some si ->
              node.E.n_done <- si.E.si_tid :: node.E.n_done;
              if sleep_sets && List.mem si.E.si_tid !z then begin
                incr slept;
                ctr.c_sleep <- ctr.c_sleep + 1;
                if E.Prov.enabled () then
                  E.Prov.record E.Prov.Sleep ~site:si.E.si_label ?witness:!first_explored ()
              end
              else begin
                incr explored;
                if !first_explored = None then first_explored := Some si.E.si_label;
                let child_sleep =
                  if not sleep_sets then []
                  else
                    List.filter
                      (fun tid ->
                        match List.find_opt (fun q -> q.E.si_tid = tid) node.E.n_enabled with
                        | Some q -> not (E.dependent q si)
                        | None -> false (* blocked or finished: wake it *))
                      !z
                in
                explore si ~stack:(push si) ~sleep:child_sleep;
                if sleep_sets then z := si.E.si_tid :: !z
              end;
              drive ()
          in
          drive ();
          let pruned = List.length enabled - !explored - !slept in
          if pruned > 0 then begin
            ctr.c_commut <- ctr.c_commut + pruned;
            if E.Prov.enabled () then
              List.iter
                (fun si ->
                  if not (List.mem si.E.si_tid node.E.n_done) then
                    E.Prov.record E.Prov.Commutation ~site:si.E.si_label
                      ?witness:!first_explored ())
                enabled
          end
        end
      end
    in
    let lives, cands = initial () in
    (* [dirty = true] at the root: the crash before any step is always
       explored. *)
    go cfg.init_world lives cands 0 [] 0 0 0 [] ~dirty:true ~stack:[] ~sleep:[]
  in

  (* A walk: the same settle, crash, recovery and post as the search, but
     one thread and one outcome per step.  Walks never take fault branches.
     A walk's main-phase crash does not count against [max_crashes] during
     recovery — the rule walks have always had, kept so that every
     [seed=S schedule=I/N] replays to the same trace. *)
  let rec walk w lives cands crashes trace depth =
    if depth > ctr.c_frontier then ctr.c_frontier <- depth;
    let lives, cands, trace = settle lives cands trace in
    let can = crashes < cfg.max_crashes in
    crash_or ~can (fun () -> crash_branch w cands crashes trace) @@ fun () ->
    if lives = [] then timed_post w cands trace
    else
      match enabled_steps ~live:false ~footprints:false ~faults:false w lives trace with
      | [] -> if can then crash_branch w cands crashes trace else deadlock lives trace
      | enabled ->
        bump_steps ();
        List.iter
          (fun si ->
            List.iter
              (fun (w', prog') ->
                walk w' (resume lives si prog') cands crashes
                  (Ev_step (si.Explore.si_tid, si.Explore.si_label) :: trace)
                  (depth + 1))
              (choose si.Explore.si_branches))
          (choose enabled)
  in
  let walks ~seed ~first ~last ~schedules =
    for i = first to last do
      rng := Some (Random.State.make [| seed; i |]);
      next_tid := 0;
      let lives, cands = initial () in
      try walk cfg.init_world lives cands 0 [] 0 with
      | Vacuous -> ctr.c_vacuous <- ctr.c_vacuous + 1
      | Violation f ->
        raise
          (Violation
             { f with reason = Fmt.str "[seed=%d schedule=%d/%d] %s" seed i schedules f.reason })
    done
  in
  match
    match mode with
    | Search { strategy; cutoff; emit; replay_path; fp } ->
      search ~strategy ~cutoff ~emit ~replay_path ~fp
    | Walks { seed; first; last; schedules; _ } -> walks ~seed ~first ~last ~schedules
  with
  | () -> I_ok
  | exception Violation f -> I_viol f
  | exception Budget -> I_budget

(* ------------------------------------------------------------------ *)
(* Drivers                                                              *)
(* ------------------------------------------------------------------ *)

let deadline_of = function
  | None -> None
  | Some s -> Some (Obs.Trace.now_us () +. (s *. 1e6))

(* The worker pool: jobs [0..n-1] pulled off an atomic counter by [domains]
   domains (the caller's among them), each job with its own counters,
   merged into [into] in job order.  Every job runs to completion even
   after another fails: early cancellation would make the merged stats
   depend on timing. *)
let run_pool ~domains ~into n job =
  let ctrs = Array.init n (fun _ -> fresh_counters ()) in
  let results = Array.make n I_ok in
  let next = Atomic.make 0 in
  let worker primary () =
    let rec loop () =
      let i = Atomic.fetch_and_add next 1 in
      if i < n then begin
        if not primary then Obs.Metrics.inc Mx.steals;
        results.(i) <- job ctrs.(i) i;
        loop ()
      end
    in
    loop ()
  in
  let doms =
    List.init (min domains (max 1 n) - 1) (fun _ -> Domain.spawn (worker false))
  in
  worker true ();
  List.iter Domain.join doms;
  Array.iter (merge_into into) ctrs;
  results

(* The verdict: the lowest-index outcome that is not [I_ok] wins — chosen
   by index, never by finish order. *)
let verdict ctr outcomes =
  let stats = snapshot ctr in
  let rec scan i =
    if i >= Array.length outcomes then Refinement_holds stats
    else
      match outcomes.(i) with
      | I_ok -> scan (i + 1)
      | I_viol f -> Refinement_violated (f, stats)
      | I_budget -> Budget_exhausted stats
  in
  scan 0

(* Parallel checks split the schedule tree at this depth. *)
let split_depth = 2

let check (type w s) ?(strategy = Explore.Naive) ?faults ?max_seconds ?domains
    ?(fingerprint = false) ?(symmetry = false) ?key_prefix (cfg : (w, s) config) : result =
  if symmetry && not fingerprint then
    invalid_arg "Refinement.check: ~symmetry requires ~fingerprint:true";
  if fingerprint && strategy <> Explore.Naive then
    invalid_arg
      "Refinement.check: ~fingerprint requires the Naive strategy (global state \
       caching breaks DPOR backtrack-set computation; see DESIGN.md S21)";
  (match domains with
  | Some n when n < 1 -> invalid_arg "Refinement.check: domains must be >= 1"
  | _ -> ());
  let fault_budget =
    match faults with Some n -> max 0 n | None -> cfg.fault_budget
  in
  let deadline =
    deadline_of (match max_seconds with Some _ as s -> s | None -> cfg.max_seconds)
  in
  let fp = if fingerprint then Some (symmetry, key_prefix) else None in
  let sched_seen : (string, unit) Hashtbl.t = Hashtbl.create 16 in
  let sched_lock = Mutex.create () in
  let run ~ctr ~step_base ~cutoff ~emit ~replay_path =
    run_instance cfg
      ~mode:(Search { strategy; cutoff; emit; replay_path; fp })
      ~fault_budget ~deadline ~step_base ~sched_seen ~sched_lock ~ctr
  in
  timed_check "refinement.check" (fun () ->
    let ctr = fresh_counters () in
    match domains with
    | None ->
      verdict ctr [| run ~ctr ~step_base:0 ~cutoff:max_int ~emit:None ~replay_path:[] |]
    | Some n ->
      (* Phase 1: sequential split.  Everything above [split_depth] is
         explored (and counted) here; each subtree root at the cutoff
         becomes a work item, in DFS order. *)
      let items_rev = ref [] in
      (match
         run ~ctr ~step_base:0 ~cutoff:split_depth
           ~emit:(Some (fun path -> items_rev := path :: !items_rev))
           ~replay_path:[]
       with
      | I_budget ->
        (* The split phase itself blew the budget; items would only
           re-spend it. *)
        Budget_exhausted (snapshot ctr)
      | split ->
        let items = Array.of_list (List.rev !items_rev) in
        Obs.Metrics.inc ~by:(Array.length items) Mx.work_items;
        let step_base = ctr.c_steps in
        let results =
          run_pool ~domains:n ~into:ctr (Array.length items) (fun ctr i ->
              run ~ctr ~step_base ~cutoff:max_int ~emit:None ~replay_path:items.(i))
        in
        (* every emitted item precedes the splitting phase's own
           outcome in sequential DFS order (emission stops at its
           raise) *)
        verdict ctr (Array.append results [| split |])))

let check_exn ?strategy ?faults ?max_seconds ?domains ?fingerprint ?symmetry ?key_prefix
    cfg =
  let t0 = Obs.Trace.now_us () in
  match check ?strategy ?faults ?max_seconds ?domains ?fingerprint ?symmetry ?key_prefix cfg with
  | Refinement_holds stats -> stats
  | Refinement_violated (f, stats) ->
    failwith (Fmt.str "@[<v>Refinement_violated: %a@,stats: %a@]" pp_failure f pp_stats stats)
  | Budget_exhausted stats ->
    let elapsed_s = (Obs.Trace.now_us () -. t0) /. 1e6 in
    let max_s =
      match (match max_seconds with Some _ as s -> s | None -> cfg.max_seconds) with
      | Some s -> Fmt.str "%g" s
      | None -> "none"
    in
    failwith
      (Fmt.str
         "Budget_exhausted: step or wall-clock budget exceeded before the state space was covered after %.2fs (max_seconds=%s, step_budget=%d) (stats: %a)"
         elapsed_s max_s cfg.step_budget pp_stats stats)

(* Random walks through the schedule/outcome/crash space: sound for
   bug-finding on instances too large to exhaust; a pass is evidence, not
   proof.  Per-walk RNG isolation is what makes [?domains] sound: walks
   share no RNG, tid counter, or tracker state, so they can run on any
   domain in any order and still produce the walk the seed names.
   Sequentially, walks share one step budget and stop at the first
   failure; in parallel, each walk has its own budget and all run, so the
   result is the same at every domain count. *)
let check_random_walks ~schedules ~first ~last ~seed ~crash_prob ?domains cfg =
  (match domains with
  | Some n when n < 1 -> invalid_arg "Refinement.check_random: domains must be >= 1"
  | _ -> ());
  let deadline = deadline_of cfg.max_seconds in
  let sched_seen = Hashtbl.create 1 and sched_lock = Mutex.create () in
  let run ~ctr first last =
    run_instance cfg
      ~mode:(Walks { seed; crash_prob; first; last; schedules })
      ~fault_budget:0 ~deadline ~step_base:0 ~sched_seen ~sched_lock ~ctr
  in
  timed_check "refinement.check_random" (fun () ->
      let ctr = fresh_counters () in
      match domains with
      | None -> verdict ctr [| run ~ctr first last |]
      | Some n ->
        verdict ctr
          (run_pool ~domains:n ~into:ctr (last - first + 1) (fun ctr j ->
               run ~ctr (first + j) (first + j))))

let check_random ?(schedules = 200) ?(seed = 17) ?(crash_prob = 0.05) ?domains cfg =
  check_random_walks ~schedules ~first:1 ~last:schedules ~seed ~crash_prob ?domains cfg

let check_random_replay ?(schedules = 200) ?(seed = 17) ?(crash_prob = 0.05) ~schedule cfg =
  if schedule < 1 || schedule > schedules then
    invalid_arg "Refinement.check_random_replay: schedule out of range";
  check_random_walks ~schedules ~first:schedule ~last:schedule ~seed ~crash_prob cfg
