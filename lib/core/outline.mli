(** The Perennial proof-outline checker: Table 1 as executable rules.

    An {e outline} is a proof script for one operation (or for recovery): a
    sequence of physical commands (lock, durable read/write, memory access)
    and ghost commands (open/close a crash invariant, simulate a spec step,
    synthesize a lease, take the spec crash step).  The checker executes the
    script symbolically over {!Seplogic.Assertion} heaps and enforces the
    paper's rules:

    - {b lease rule} (§5.3): a durable write needs both the master copy and
      the lease, and updates both; master and lease values agree (camera
      validity), saturated as pure facts;
    - {b lease synthesis} (§5.3): only recovery may mint a fresh lease, from
      a bare master copy;
    - {b crash invariants} (§5.1): opened only around a single physical
      step, re-established on close, durable-only contents;
    - {b versioned memory} (§5.2): recovery starts with every volatile
      capability gone, and the crash invariant must be re-establishable
      after every recovery step (idempotence, §5.5);
    - {b recovery helping} (§5.4): [j ⤇ op] tokens survive crashes inside
      crash invariants, and recovery may [Simulate] them;
    - {b refinement} (§4): [Simulate] consumes [j ⤇ op], steps the [σ]
      cells, and produces [j ⤇ ret v]; operation outlines must end owning
      [j ⤇ ret] at the declared return value.

    {!check_system} bundles the premises of the paper's Theorem 2; the
    {!Refinement} checker independently validates that theorem's
    conclusion on finite instances. *)

module A := Seplogic.Assertion
module Sv := Seplogic.Sval

(** {1 System description} *)

type sym_op = {
  op_name : string;
  sym_apply :
    lookup:(string -> Sv.t option) ->
    Sv.t list ->
    ((string * Sv.t) list * Sv.t, string) result;
      (** abstract transition on the [σ] cells: given the call's arguments
          and a reader for current cell values, return the cell updates and
          the return value (or an error for a malformed instantiation) *)
}

type system = {
  sys_name : string;
  ops : sym_op list;
  crash_cells : lookup:(string -> Sv.t option) -> (string * Sv.t) list;
      (** the spec crash transition, as cell updates (empty = crash loses
          nothing) *)
  lock_invs : (int * A.t) list;  (** lock id -> lock invariant *)
  crash_invs : (string * A.t) list;  (** named crash invariants *)
}

(** {1 Outline language} *)

type cmd =
  | Acquire of int
  | Release of int
  | Write_durable of { loc : string; value : Sv.t }
  | Read_durable of { loc : string; bind : string }
  | Write_mem of { ptr : string; value : Sv.t }
  | Read_mem of { ptr : string; bind : string }
  | Alloc_mem of { ptr : string; value : Sv.t }
  | Open_inv of { name : string; body : cmd list }
      (** open a crash invariant around one atomic step *)
  | Atomic of cmd list
      (** group one physical step with its ghost steps (recovery) *)
  | Simulate of { op : string; args : Sv.t list; bind_ret : string }
      (** ghost: consume a matching [j ⤇ op] token, step the [σ] cells,
          produce [j ⤇ ret] *)
  | Crash_step  (** ghost: [⤇Crashing] to [⤇Done], applying [crash_cells] *)
  | Synthesize of string  (** ghost, recovery only: master -> master ∗ lease *)
  | Choice of cmd list list
      (** proof-level alternation: the first verifying alternative is used *)
  | Case_eq of Sv.t * Sv.t
      (** classical case split on value (dis)equality — picks the right
          invariant disjunct when guarded by a disequality (§5.4) *)
  | Assert_eq of Sv.t * Sv.t
      (** proof assertion: the pure facts must entail the equality; makes
          the wrong [Choice] alternative fail early *)

type op_outline = {
  o_op : string;
  o_args : Sv.t list;
  o_ret : Sv.t;
  o_body : cmd list;
}

type recovery_outline = { r_body : cmd list }

(** {1 Checking} *)

exception Reject of string

type report = { branches : int; cmds_checked : int }

val pp_report : report Fmt.t

type result = Accepted of report | Rejected of string

val pp_result : result Fmt.t

val check_op : system -> op_outline -> result
(** Check one operation outline: from [j ⤇ op(args)], through the body,
    to [j ⤇ ret] — the per-operation triple of Theorem 2. *)

val check_recovery : system -> recovery_outline -> result
(** Check the recovery outline: starting from the crash invariants' durable
    contents and [⤇Crashing], recovery must re-establish every crash and
    lock invariant and finish with [⤇Done] — the recovery triple plus the
    crash-invariance and idempotence side conditions of Theorem 2. *)

val check_system :
  system ->
  op_outlines:op_outline list ->
  recovery:recovery_outline ->
  (string * result) list
(** All of Theorem 2's premises for a system. *)
