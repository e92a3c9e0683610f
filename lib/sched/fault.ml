(** Fault kinds, injections, and fault schedules, storage and network
    alike.  Steps declare the faults they can absorb (see {!Prog.atomic}'s
    [?faults]); the checker's exploration or the runner's [?fault_schedule]
    decides which declared fault actually fires. *)

type kind =
  | Read_error
  | Write_error
  | Torn_write of int
  | Disk_offline
  | Disk_online
  | Msg_drop
  | Msg_dup
  | Msg_reorder of int
  | Msg_delay

let kind_name = function
  | Read_error -> "read_error"
  | Write_error -> "write_error"
  | Torn_write k -> Printf.sprintf "torn_write(%d)" k
  | Disk_offline -> "disk_offline"
  | Disk_online -> "disk_online"
  | Msg_drop -> "msg_drop"
  | Msg_dup -> "msg_dup"
  | Msg_reorder k -> Printf.sprintf "msg_reorder(%d)" k
  | Msg_delay -> "msg_delay"

let pp_kind ppf k = Format.pp_print_string ppf (kind_name k)
let equal_kind (a : kind) (b : kind) = a = b

type io_error = Eio of kind

(* Program results travel between atomic steps as {!Tslang.Value} payloads,
   so fallible operations encode [(v, io_error) result] as values: *)

module V = Tslang.Value

let eio (Eio k) = V.pair (V.str "EIO") (V.str (kind_name k))

let is_eio v =
  match v with
  | V.Pair (V.Str "EIO", _) -> true
  | _ -> false

(* Client-visible degraded result: what a retry/degradation path returns to
   its caller once it gives up, and what graceful-degradation specs offer
   as the error arm of their outcome choice.  A [Pair], so it can never
   collide with a block ([Str]) or a unit result. *)
let err_value = V.pair (V.str "EIO") (V.str "degraded")

type injection = { at : int; kind : kind }
(** Fire fault [kind] at the [at]-th fault-eligible step of the execution
    (0-based, counting only steps that declare at least one fault). *)

type schedule = injection list
