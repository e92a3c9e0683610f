(** Concurrent recovery refinement, checked exhaustively on finite instances.

    This module is the executable counterpart of the paper's definition of
    correctness (§3.1) and of Theorems 1 and 2 (§5.5): every interleaving of
    the implementation's atomic steps — including a crash at any step,
    recovery, and crashes during recovery — must be explained by an atomic
    interleaving of specification transitions:

    - every completed operation appears to take effect atomically between
      its invocation and its response, with the observed return value
      (linearizability against the spec transition system);
    - a crash + recovery sequence simulates a single atomic spec crash
      transition, before which any subset of the operations in flight at the
      crash may appear to have executed (recovery helping, §5.4);
    - the implementation must never step into code-level undefined behaviour
      (races, out-of-bounds), while *spec-level* undefined behaviour makes
      the obligations vacuous for that client (§8.3 "exploiting undefined
      behaviour").

    The checker tracks a set of linearization candidates (abstract state +
    per-pending-operation status) through a depth-first exploration of every
    schedule and crash point. *)

module V := Tslang.Value
module Spec := Tslang.Spec

type ('w, 's) config = {
  spec : 's Spec.t;
  init_world : 'w;
  crash_world : 'w -> 'w;  (** volatile state clears; durable survives *)
  pp_world : 'w Fmt.t;
  threads : (Spec.call * ('w, V.t) Sched.Prog.t) list list;
      (** one inner list per thread: the ops it performs in sequence *)
  recovery : ('w, V.t) Sched.Prog.t;
      (** run single-threaded after every crash; may itself crash *)
  post : (Spec.call * ('w, V.t) Sched.Prog.t) list;
      (** probe ops run sequentially after normal completion and after
          recovery — typically reads of all state, to force the abstract
          and concrete states to agree observably *)
  max_crashes : int;  (** 0 disables crash injection *)
  fault_budget : int;
      (** max faults injected per execution; 0 disables fault injection.
          While budget remains, every step that declares fault points
          (see {!Sched.Prog.atomic}'s [?faults]) also branches into each
          declared fault, exploring all fault schedules up to the budget
          alongside all crash points.  Faults fire only in the main phase:
          recovery and post probes run fault-free (the reliable-recovery
          assumption — recovery retried forever eventually sees good
          I/O).  Network events ({!Sched.Fault.Msg_drop} etc., see
          {!Sched.Net}) are fault kinds, so the same assumption covers
          them: the network is reliable during recovery — a recovering
          lease service eventually reaches its shards. *)
  max_seconds : float option;
      (** wall-clock budget for the whole check; [None] = unlimited.
          Exceeding it yields {!Budget_exhausted}, like [step_budget]. *)
  step_budget : int;
  fail_on_deadlock : bool;
}

val config :
  spec:'s Spec.t ->
  init_world:'w ->
  crash_world:('w -> 'w) ->
  pp_world:'w Fmt.t ->
  threads:(Spec.call * ('w, V.t) Sched.Prog.t) list list ->
  recovery:('w, V.t) Sched.Prog.t ->
  ?post:(Spec.call * ('w, V.t) Sched.Prog.t) list ->
  ?max_crashes:int ->
  ?fault_budget:int ->
  ?max_seconds:float ->
  ?step_budget:int ->
  ?fail_on_deadlock:bool ->
  unit ->
  ('w, 's) config
(** Defaults: no post probes, [max_crashes = 1], [fault_budget = 0],
    no wall-clock budget, [step_budget = 5_000_000],
    [fail_on_deadlock = true]. *)

type stats = {
  executions : int;  (** complete explored paths *)
  steps : int;  (** atomic steps applied across all paths *)
  crashes_injected : int;
  vacuous : int;  (** paths pruned by spec-level undefined behaviour *)
  max_candidates : int;  (** high-water mark of the linearization set *)
  dedup_hits : int;  (** duplicate linearization candidates collapsed *)
  frontier_hwm : int;  (** deepest schedule prefix explored *)
  commutations_pruned : int;
      (** enabled steps never explored because no race required them
          (partial-order reduction; 0 under {!Explore.Naive}) *)
  sleep_skips : int;  (** backtrack candidates skipped by sleep sets *)
  crash_skips : int;  (** crash branches pruned as state-equivalent *)
  faults_injected : int;  (** fault branches explored *)
  fault_schedules : int;
      (** distinct non-empty fault schedules over completed executions *)
  retries_observed : int;
      (** committed steps labelled ["retry…"] — the retry-loop convention *)
  cache_hits : int;
      (** committed steps labelled ["rpc_cache_hit…"] — an RPC server
          answering a duplicate request from its reply cache instead of
          re-executing it (the at-most-once convention) *)
  fingerprint_hits : int;
      (** settled nodes pruned because an equal fingerprint was already
          explored in this check (0 unless [~fingerprint:true]) *)
  fingerprint_misses : int;  (** settled nodes fingerprinted and explored *)
}

val pp_stats : stats Fmt.t

(** {2 Counterexamples}

    A failing path is kept as structured events — thread id, kind, phase —
    so it can be rendered as per-thread lanes ({!pp_failure_lanes}) or
    exported as a Chrome trace ({!failure_chrome}), in addition to the
    classic flat listing ({!pp_failure}). *)

type event_kind = Invoke | Step | Return | Crash | Fault

type event_phase = Main | Recovery | Post

type event = {
  ev_tid : int option;  (** [None] for global events (crash, recovery, post steps) *)
  ev_kind : event_kind;
  ev_phase : event_phase;
  ev_label : string;  (** short label: op name or atomic-step label *)
  ev_text : string;
      (** the classic one-line rendering of this event.  Exploration records
          events unrendered; the label and this text are built when the
          failure is, so a check that holds formats no event text. *)
}

type failure = {
  reason : string;
  trace : string list;  (** events on the failing path, oldest first —
                            exactly [List.map (fun e -> e.ev_text) events] *)
  events : event list;  (** the same path, structured *)
}

val pp_failure : failure Fmt.t

val pp_failure_lanes : failure Fmt.t
(** The failing path as one column per thread (order of first appearance)
    plus a rightmost lane for crash/recovery/post events. *)

val failure_chrome : failure -> Obs.Json.t
(** The failing path as a Chrome [trace_event] document: one timeline lane
    per thread (tid 1000 holds global events), each event a fixed-width box
    at its position in the interleaving, crashes as instants. *)

type result =
  | Refinement_holds of stats
  | Refinement_violated of failure * stats
  | Budget_exhausted of stats

val check :
  ?strategy:Explore.strategy ->
  ?faults:int ->
  ?max_seconds:float ->
  ?domains:int ->
  ?split_depth:int ->
  ?fingerprint:bool ->
  ?symmetry:bool ->
  ?key_prefix:string ->
  ('w, 's) config ->
  result
(** Exhaustive check under the given exploration strategy (default
    {!Explore.Naive}).  The partial-order-reduced strategies
    ({!Explore.Dpor}, {!Explore.Dpor_sleep}) explore a sound subset of the
    interleavings — same verdict, fewer executions; the reduction is
    measurable in the returned {!stats} ([commutations_pruned],
    [crash_skips], [sleep_skips]).

    [?faults] overrides the config's [fault_budget]: all fault schedules
    with at most that many injections are enumerated alongside all crash
    points.  Faulted steps are globally dependent under DPOR (never
    reordered), so the reduced strategies stay sound with faults on.
    [?max_seconds] overrides the config's wall-clock budget.

    {b Parallel exploration.}  [~domains:n] runs the check on [n] domains
    (OCaml 5 multicore; [n >= 1], [Invalid_argument] otherwise).  A
    sequential splitting phase first explores every schedule prefix
    shallower than [split_depth] (default 2), turning each subtree rooted
    at that depth into a work item; idle domains then pull items and
    explore the subtrees concurrently.  The partition is a fixed function
    of [split_depth] — {e never} of [n] — and every item runs to
    completion, so the verdict, the reported counterexample (the first in
    sequential DFS order), and every field of {!stats} are identical for
    every [n] at a fixed [split_depth].  (On a {e violating} instance the
    parallel stats exceed a plain sequential run's: the sequential checker
    aborts at the first violation, while parallel items all run to
    completion — stopping early would make the merged stats depend on
    timing.  The counterexample reported is still the sequential one.)
    Only wall-clock-dependent
    behaviour escapes that guarantee: a [max_seconds] deadline may trip at
    a different point under a different domain count, and the
    [perennial_refinement_steals_total] metric is timing-dependent by
    design.  The step budget is shared: each item starts from the
    splitting phase's spend, so {!Budget_exhausted} fires under the same
    total-step ceiling as a sequential run.  Under DPOR strategies, nodes
    above the cutoff are explored conservatively (all enabled steps, no
    sleep sets), so a parallel DPOR run may explore {e more} executions
    than a sequential one — but the same number at any two domain counts.

    {b Fingerprint pruning.}  [~fingerprint:true] digests every settled
    node with {!Fingerprint.digest} and prunes the subtree when an equal
    digest was already explored in this check ([fingerprint_hits] /
    [fingerprint_misses] in {!stats}).  Sound for the verdict — equal
    fingerprints have identical subtrees (DESIGN.md §S21) — and requires
    the {!Explore.Naive} strategy ([Invalid_argument] otherwise): pruning
    by state reached along a different path would starve DPOR's
    backtrack-set computation.  Under [~domains] each work item prunes
    against its own seen-set (cross-item sharing would make stats depend
    on timing), so parallel fingerprint runs prune less than sequential
    ones but stay deterministic.  [~symmetry:true] (requires
    [~fingerprint:true]) additionally canonicalizes interchangeable
    threads — and, with [?key_prefix], renamable resource tokens — before
    digesting; see {!Fingerprint.canonical} for the obligations. *)

val check_exn :
  ?strategy:Explore.strategy ->
  ?faults:int ->
  ?max_seconds:float ->
  ?domains:int ->
  ?split_depth:int ->
  ?fingerprint:bool ->
  ?symmetry:bool ->
  ?key_prefix:string ->
  ('w, 's) config ->
  stats
(** Like {!check} but raises [Failure] with a rendered report on violation
    or budget exhaustion; convenient in tests and examples.  The message is
    prefixed ["Refinement_violated: "] or ["Budget_exhausted: "] so callers
    (and test suites) can tell the two apart, and both variants include the
    rendered {!stats}. *)

val check_random :
  ?schedules:int ->
  ?seed:int ->
  ?crash_prob:float ->
  ?domains:int ->
  ('w, 's) config ->
  result
(** Randomized exploration: [schedules] independent random walks through the
    schedule/outcome/crash space, with the same linearization bookkeeping as
    {!check}.  Use on instances too large to exhaust — a reported violation
    is a real counterexample; a pass is evidence, not proof.  [crash_prob]
    is the per-step probability of injecting a crash (while the crash budget
    lasts).  A failure's [reason] is prefixed ["[seed=S schedule=I/N] "].

    Walk [i] draws every choice — schedule picks, nondeterministic outcome
    picks, crash coins (including those flipped while recovery re-runs) —
    from its own RNG seeded by [(seed, i)], so the prefix identifies the
    walk completely: {!check_random_replay} re-runs it in isolation.

    [~domains:n] distributes the walks over [n] domains.  Per-walk RNG
    isolation makes this sound with no further ceremony; determinism is
    kept by running {e every} walk (no early stop at the first failure),
    giving each walk its own step budget, and reporting the lowest-index
    failing walk — so verdict, reason prefix, and merged stats match at
    any domain count.  The sequential path ([?domains] omitted) stops at
    the first failure with a cumulative step budget, exactly as before. *)

val check_random_replay :
  ?schedules:int ->
  ?seed:int ->
  ?crash_prob:float ->
  ?domains:int ->
  schedule:int ->
  ('w, 's) config ->
  result
(** Replay exactly one walk of {!check_random}: [check_random_replay ~seed
    ~schedule cfg] reproduces walk [schedule] of [check_random ~seed cfg] —
    same trace, same verdict, same [reason] prefix — without re-running the
    preceding walks.  [schedules] (default 200) only scales the ["I/N"] in
    the reason and must match the original run for byte-identical output.
    Raises [Invalid_argument] if [schedule] is outside [1..schedules]. *)
