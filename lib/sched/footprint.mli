(** Read/write footprints of atomic steps, for dependence analysis.

    The partial-order-reduction strategies in the refinement checker
    ({!Perennial_core.Explore}) reorder commuting thread steps.  Whether two
    steps commute is decided from their *footprints*: the locations each
    step may read or write.  A location is either {e durable} (it survives a
    crash and is visible to recovery — disk blocks) or {e volatile} (lock
    table entries, in-memory cells — wiped by [crash_world]).

    Footprints are conservative by construction: a step with an [Unknown]
    footprint conflicts with everything, so un-annotated steps are always
    treated as dependent and reduction degrades gracefully to naive
    exploration around them.  Over-approximating a footprint (claiming
    extra reads or writes) is always sound; under-approximating is not. *)

type loc =
  | Durable of string * int
      (** address [i] of a named durable region, e.g. [Durable ("disk", 3)] *)
  | Volatile of string * int
      (** volatile location: a lock-table entry or a named in-memory cell *)

type kind =
  | Plain
  | Acquire of loc  (** blocks until the lock location is free *)
  | Release of loc  (** requires the lock location to be held *)

type t =
  | Unknown  (** conflicts with everything — the safe default *)
  | Rw of { reads : loc list; writes : loc list; kind : kind }

val unknown : t
val rw : ?kind:kind -> reads:loc list -> writes:loc list -> unit -> t
val reads : loc list -> t
val writes : loc list -> t
val pure : t  (** touches nothing; commutes with every known footprint *)

val acquire : loc -> t
(** Footprint of a lock acquisition: reads and writes the lock location. *)

val release : loc -> t
(** Footprint of a lock release. *)

val const : t -> 'w -> t
(** Lift a static footprint to the world-dependent form {!Prog.Atomic}
    carries: [const fp] ignores the world. *)

val disk : ?region:string -> int -> loc
(** [disk a] is durable address [a] of region ["disk"]. *)

val lock : int -> loc
(** The volatile lock-table entry for lock [id]. *)

val cell : string -> loc
(** A named volatile cell (an in-memory buffer, a cache). *)

val cell_at : string -> int -> loc
(** Slot [i] of a named volatile region (e.g. one inode's page-cache
    entry): [cell_at name 0 = cell name]. *)

val conflicts : t -> t -> bool
(** [conflicts a b] iff one step may write a location the other may touch —
    the steps do not commute.  [Unknown] conflicts with everything. *)

val writes_durable : t -> bool
(** Does the step write state that survives a crash?  Such steps are
    dependent with crash injection; [Unknown] counts as durable. *)

val may_be_coenabled : t -> t -> bool
(** Conservative co-enabledness: [false] only when the lock discipline
    proves the two steps can never both be enabled in the same state
    (e.g. [acquire l] vs [release l]).  Used to place DPOR backtrack
    points at genuine races only. *)

val pp : t Fmt.t
