(** The retry convention of the fallible storage layers.

    A retry iteration is announced by a pure no-op step labelled
    ["retry(what)"]; the refinement checker counts such steps as its
    [retries_observed] stat.  The step exists only on paths where a
    transient error already fired, so a fault-free run never takes it.

    A protocol with a commit point retries in two regimes: a bounded
    number of times before the commit point, then gives up (the caller
    aborts with durable state untouched); and without bound after it, since
    the operation is already durable and must finish.  Under a finite fault
    budget each unbounded iteration needs one more injected fault, so
    exhaustive exploration still terminates. *)

val bounded : string -> int -> ('w, Tslang.Value.t) Prog.t -> ('w, Tslang.Value.t) Prog.t
(** [bounded what n op] runs [op] and, while it returns {!Fault.is_eio},
    the step ["retry(what)"] and [op] again, at most [n] more times.
    Returns [op]'s value, or {!Fault.err_value} once the retries are
    exhausted. *)

val unbounded : string -> ('w, Tslang.Value.t) Prog.t -> ('w, unit) Prog.t
(** [unbounded what op] runs [op] until it does not return
    {!Fault.is_eio}, with the step ["retry(what)"] before each retry. *)
