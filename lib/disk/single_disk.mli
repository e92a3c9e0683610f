(** Single-disk semantics (Table 3): one durable array of blocks with atomic
    per-block reads and writes — the substrate under the shadow-copy,
    write-ahead-log and group-commit examples. *)

type t

val init : int -> t
(** [init size]: all blocks zero. *)

val size : t -> int
val in_bounds : t -> int -> bool

val get : t -> int -> Block.t
(** Raises [Invalid_argument] out of bounds (a harness bug; program-level
    access goes through {!read}, where it is undefined behaviour). *)

val set : t -> int -> Block.t -> t
(** Raises [Invalid_argument] out of bounds. *)

val equal : t -> t -> bool
val compare : t -> t -> int
val pp : t Fmt.t

val crash : t -> t
(** Disk contents survive crashes unchanged. *)

(** {1 Program-level operations} (atomic steps, lens-composed) *)

val read : get_disk:('w -> t) -> int -> ('w, Tslang.Value.t) Sched.Prog.t
(** Out-of-bounds access is undefined behaviour. *)

val write :
  get_disk:('w -> t) -> set_disk:('w -> t -> 'w) -> int -> Block.t -> ('w, unit) Sched.Prog.t

(** {1 Disk primitives as a value}

    A storage protocol is written once over an [ops] record and runs
    infallible or fallible depending on which record its caller passes.
    The fallible ops declare fault points ({!Sched.Fault}).  Success
    returns the raw value ([Str] block or [Unit]); a transient fault
    returns {!Sched.Fault.eio}, which callers test with
    {!Sched.Fault.is_eio}.  A failed write persists nothing. *)

type 'w ops = {
  fallible : bool;  (** which record this is; layers above name their spans by it *)
  get_disk : 'w -> t;  (** the lens, for steps that stay plain in both modes *)
  read : int -> ('w, Tslang.Value.t) Sched.Prog.t;
  write : int -> Block.t -> ('w, Tslang.Value.t) Sched.Prog.t;
  write_multi : (int * Block.t) list -> ('w, Tslang.Value.t) Sched.Prog.t;
}

val plain : get_disk:('w -> t) -> set_disk:('w -> t -> 'w) -> 'w ops
(** {!read} and {!write}, returning [Unit] from a write.  [write_multi]
    is the sequence of single writes, in list order. *)

val fallible : get_disk:('w -> t) -> set_disk:('w -> t -> 'w) -> 'w ops
(** Labels [disk_read_f(a)] and [disk_write_f(a)] with fault points
    [Read_error] and [Write_error] (state unchanged).  [write_multi] is
    ONE atomic step [disk_write_multi(a1,...)] with fault points
    [Write_error] (nothing persisted) and [Torn_write k] for every proper
    prefix length [1 <= k < n] (first [k] entries persisted):
    crash-equivalent to the plain sequence of single writes. *)
