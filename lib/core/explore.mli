(** Pluggable exploration strategies for the refinement checker.

    The exhaustive checker ({!Refinement.check}) enumerates every thread
    interleaving and crash point.  Most interleavings differ only in the
    order of {e commuting} steps — steps whose footprints
    ({!Sched.Footprint}) are disjoint — and checking one representative per
    commutation class is enough.  This module provides the machinery of
    dynamic partial-order reduction (DPOR, Flanagan–Godefroid style) that
    {!Refinement.check} uses to prune such redundant schedules:

    - {b Naive}: every enabled step and every crash point at every node;
    - {b Dpor}: backtracking-based DPOR over thread steps, plus crash-point
      pruning (a crash branch is skipped when it would reach the exact same
      recovery state and linearization obligations as an already-explored
      crash at the nearest "dirty" ancestor);
    - {b Dpor_sleep}: DPOR with sleep sets stacked on top, filtering
      already-explored siblings out of re-exploration.

    Dependence is conservative: a step is {e globally dependent} (never
    reordered) if it writes durable state, has an [Unknown] footprint, or
    may complete its operation (responses and the invocations they trigger
    reorder the linearization obligations, so they must keep their place in
    the path).  Soundness is cross-validated empirically by the
    differential harness in [test/test_explore.ml]: naive and reduced
    exploration must agree on pass/fail for every bundled system and
    seeded-bug variant. *)

type strategy = Naive | Dpor | Dpor_sleep

val all_strategies : strategy list

val strategy_name : strategy -> string
(** ["naive"], ["dpor"], ["dpor+sleep"] — the [--strategy] spellings. *)

val strategy_of_string : string -> strategy option
val pp_strategy : strategy Fmt.t

(** {2 DPOR machinery}

    Used by {!Refinement.check}; exposed for the differential harness and
    the property tests over the dependence relation. *)

(** One running thread's next atomic step at a node, as the checker's step
    function computes it for every strategy. *)
type 'w step_info = {
  si_tid : int;
  si_label : string;
  si_fp : Sched.Footprint.t;
      (** footprint in the node's world; [Unknown] where no footprints are
          computed (naive search, random walks) *)
  si_visible : bool;
      (** globally dependent: durable write, [Unknown] footprint, some
          outcome completes the operation, or a fault branch will be
          explored here (faulted steps are never reordered) *)
  si_branches : ('w * ('w, Tslang.Value.t) Sched.Prog.t) list;
      (** the step's outcomes, pre-applied: next world and continuation *)
  si_faults : (Sched.Fault.kind * ('w * ('w, Tslang.Value.t) Sched.Prog.t)) list;
      (** fault outcomes to explore at this step (empty once the path's
          fault budget is spent), pre-applied like [si_branches] *)
  si_fault_site : bool;
      (** the step declares fault points, whether or not budget remains —
          drives the path's canonical fault-site numbering *)
}

val crash_relevant : Sched.Footprint.t -> bool
(** Does a step with this footprint interfere with crash injection?  True
    iff it writes durable state ([Unknown] counts). *)

val dependent : 'w step_info -> 'w step_info -> bool
(** Steps that may not be reordered: either is globally dependent or their
    footprints conflict. *)

type 'w node = {
  n_enabled : 'w step_info list;  (** runnable threads at this node *)
  mutable n_backtrack : int list;  (** tids scheduled for exploration *)
  mutable n_done : int list;  (** tids already explored (or slept) here *)
}

type 'w frame = { f_node : 'w node; f_step : 'w step_info }
(** One executed step on the current DFS path: the node it left and the
    step taken. *)

val node : sleep:int list -> 'w step_info list -> 'w node
(** Fresh node over the given enabled steps.  The initial backtrack choice
    prefers a non-visible, non-sleeping thread; if every enabled thread is
    asleep the backtrack set starts empty and the node is pruned. *)

val add_backtrack : 'w node -> int -> unit
val enabled_at : 'w node -> int -> bool

val detect_races : 'w frame list -> 'w node -> unit
(** For each enabled step of the node, find the most recent dependent,
    may-be-co-enabled step by another thread on the path (newest frame
    first) and add backtrack points at that frame's node. *)

val next_candidate : 'w node -> 'w step_info option
(** Next backtrack candidate not yet done, in enabled order. *)

(** Pruning provenance: {e why} was the state space this small?  When
    enabled, every skip the reduction performs records the rule that
    justified it, the site (step label or crash-site id) it pruned, and
    the witness site it was judged against; {!Prov.pp_report} ranks the
    (rule, site) pairs by skip count — the [perennial_check --explain]
    output.  Disabled by default (a single branch on the hot path). *)
module Prov : sig
  type rule =
    | Commutation  (** enabled step never explored: no race required it *)
    | Sleep  (** step skipped by its sleep set *)
    | Clean_crash  (** crash branch skipped at a clean (non-dirty) node *)

  val rule_name : rule -> string
  val enabled : unit -> bool
  val set_enabled : bool -> unit
  val reset : unit -> unit

  val record : rule -> site:string -> ?witness:string -> unit -> unit
  (** Count one skip of [site] under [rule]; [witness] is the explored
      step it commuted with (or that put it to sleep). No-op when
      disabled. *)

  val entries : unit -> (rule * string * string option * int) list
  (** Ranked by count, descending. *)

  val total : unit -> int
  val pp_report : Format.formatter -> unit -> unit
end
