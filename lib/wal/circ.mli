(** The circular log: a fixed on-disk ring of (address, block) records plus
    one counted header block, installed atomically — the bottom layer of the
    write-ahead log and the OCaml rendering of the structure
    [circ_proof_crash.v] proves.  See the implementation header for the
    layout and the two-phase protocol (records first, then ONE header
    write as the only commit point). *)

module V := Tslang.Value
module Spec := Tslang.Spec
module P := Sched.Prog
module Block := Disk.Block

(** {1 Layout} *)

type layout = private { base : int; cap : int }

val layout : base:int -> cap:int -> layout
(** Ring of [cap] two-block record slots headed at block [base].
    Raises [Invalid_argument] if [base < 0] or [cap <= 0]. *)

val hdr_addr : layout -> int
val slot_addr : layout -> int -> int
(** [slot_addr ly pos] is the address block of position [pos] — positions
    are monotone; the slot is [pos mod cap]. *)

val slot_val : layout -> int -> int
val region_size : layout -> int
(** Blocks the ring occupies: [1 + 2*cap]. *)

val free_space : layout -> start:int -> end_:int -> int

(** {1 Header and record marshalling} *)

val int_block : int -> Block.t
val block_int : Block.t -> int
val header_block : start:int -> end_:int -> txns:int -> Block.t
val parse_header : Block.t -> int * int * int
(** [(start, end, txns)]; anything unparseable — including the fresh
    disk's [Block.zero] — is the empty ring [(0, 0, 0)]. *)

val value_of_records : (int * Block.t) list -> V.t
val records_of_value : V.t -> (int * Block.t) list

(** {1 The ring protocol, over the world's disk lens or disk ops} *)

val read_header : get_disk:('w -> Disk.Single_disk.t) -> layout -> ('w, int * int * int) P.t

val write_records :
  'w Disk.Single_disk.ops -> layout -> pos:int -> (int * Block.t) list -> ('w, V.t) P.t
(** Write records into the slots for positions [pos ..] with ONE
    [write_multi] of the given disk ops (so a fallible [Torn_write] can
    tear it — harmless pre-header, idempotent to retry); dead until a
    header install advances [end] over them. *)

val install_header :
  'w Disk.Single_disk.ops -> layout -> start:int -> end_:int -> txns:int -> ('w, V.t) P.t
(** The atomic commit point: one header write. *)

val read_record : get_disk:('w -> Disk.Single_disk.t) -> layout -> int -> ('w, int * Block.t) P.t

(** {1 Standalone single-lock system} *)

type state = { s_start : int; s_end : int; s_recs : (int * Block.t) list }

val spec : layout -> state Spec.t
(** Atomic append/trim/snapshot over the abstract ring; crash is [ret ()]
    — a crash exposes exactly a prefix of the installed header writes. *)

val pp_record : Format.formatter -> int * Block.t -> unit

type world = { disk : Disk.Single_disk.t; locks : Disk.Locks.t }

val init_world : layout -> world
val crash_world : world -> world
val pp_world : Format.formatter -> world -> unit
val get_disk : world -> Disk.Single_disk.t
val set_disk : world -> Disk.Single_disk.t -> world

val append_prog : layout -> (int * Block.t) list -> (world, V.t) P.t
val trim_prog : layout -> int -> (world, V.t) P.t
val snapshot_prog : layout -> (world, V.t) P.t

val append_call : layout -> (int * Block.t) list -> Spec.call * (world, V.t) P.t
val trim_call : layout -> int -> Spec.call * (world, V.t) P.t
val snapshot_call : layout -> Spec.call * (world, V.t) P.t

val recover : (world, V.t) P.t

val checker_config :
  layout ->
  ?max_crashes:int ->
  ?fault_budget:int ->
  (Spec.call * (world, V.t) P.t) list list ->
  (world, state) Perennial_core.Refinement.config

module Buggy : sig
  val append_header_first : layout -> (int * Block.t) list -> (world, V.t) P.t
  (** Header installed before the record slots are written: a crash in
      between exposes stale slots through a live header. *)

  val append_call_header_first : layout -> (int * Block.t) list -> Spec.call * (world, V.t) P.t
end
