(** Fault kinds, injections, and fault schedules.

    A fault is a *partial* failure — strictly smaller than a whole-system
    crash: one I/O step misbehaves while every thread keeps running.  Steps
    declare which faults they can absorb (see {!Prog.atomic}'s [?faults]);
    an oracle — the runner's [?fault_schedule] or the refinement checker's
    exhaustive enumeration — decides which declared fault actually fires. *)

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

let compare_kind (a : kind) (b : kind) = Stdlib.compare a b
let equal_kind (a : kind) (b : kind) = a = b

type io_error = Eio of kind

let io_error_name (Eio k) = Printf.sprintf "EIO(%s)" (kind_name k)

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

let pp_injection ppf i = Format.fprintf ppf "%d:%s" i.at (kind_name i.kind)

let pp_schedule ppf s =
  Format.fprintf ppf "[%s]"
    (String.concat "; "
       (List.map (fun i -> Printf.sprintf "%d:%s" i.at (kind_name i.kind)) s))

let compare_injection a b =
  let c = Int.compare a.at b.at in
  if c <> 0 then c else compare_kind a.kind b.kind

let compare_schedule = List.compare compare_injection

(** All schedules drawing at most [budget] injections from [sites], a list
    of [(site_index, kinds_available)] pairs.  Schedules are sorted by site
    index; the result is deterministic in the input and duplicate-free
    (sites and their kinds are de-duplicated first).  The empty schedule is
    always first. *)
let enumerate ~budget sites =
  let sites =
    List.sort_uniq
      (fun (a, _) (b, _) -> Int.compare a b)
      (List.map (fun (at, ks) -> (at, List.sort_uniq compare_kind ks)) sites)
  in
  let rec go budget = function
    | [] -> [ [] ]
    | (at, kinds) :: rest ->
      let without = go budget rest in
      if budget <= 0 then without
      else
        let tails = go (budget - 1) rest in
        without
        @ List.concat_map
            (fun kind -> List.map (fun tl -> { at; kind } :: tl) tails)
            kinds
  in
  go (max 0 budget) sites
