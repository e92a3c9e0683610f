(** Message-passing network model.

    Channels are named FIFO queues of {!Tslang.Value} messages living inside
    the program world (behind a [~get]/[~set] lens, like every other piece
    of shared state).  The network adversary — loss, duplication,
    reordering, delay — is the {!Fault} [Msg_*] kinds: each send/recv step
    declares them on {!Prog.Atomic}'s [faults] channel, so the checker's
    fault exploration, the runner's fault-schedule oracle, DPOR's
    dependence rule for fault sites, coverage-site registration, and FAULT
    lane rendering treat network schedules exactly as disk faults. *)

module V = Tslang.Value
module P = Prog
module Fp = Footprint

(* ------------------------------------------------------------------ *)
(* Channel state                                                       *)
(* ------------------------------------------------------------------ *)

(* Sorted assoc of non-empty queues (oldest message first): the
   representation is canonical, so structural compare/equal are semantic. *)
type state = (string * V.t list) list

let empty : state = []
let is_empty (st : state) = st = []

let rec send ch m (st : state) : state =
  match st with
  | [] -> [ (ch, [ m ]) ]
  | (c, q) :: rest ->
    let cmp = String.compare ch c in
    if cmp < 0 then (ch, [ m ]) :: st
    else if cmp = 0 then (c, q @ [ m ]) :: rest
    else (c, q) :: send ch m rest

let queue ch (st : state) = match List.assoc_opt ch st with None -> [] | Some q -> q
let length ch st = List.length (queue ch st)
let peek ch st = match queue ch st with [] -> None | m :: _ -> Some m
let channels (st : state) = List.map fst st

(* Deliver the [i]-th waiting message (0-based) out of order. *)
let recv_at ch i (st : state) =
  let q = queue ch st in
  if i < 0 || i >= List.length q then None
  else
    let m = List.nth q i in
    let q' = List.filteri (fun j _ -> j <> i) q in
    let st' =
      if q' = [] then List.remove_assoc ch st
      else List.map (fun (c, x) -> if c = ch then (c, q') else (c, x)) st
    in
    Some (m, st')

let recv ch st = recv_at ch 0 st

let clear (_ : state) : state = []
(** Crash semantics: channels are volatile — every in-flight message is
    lost with the machines.  (Recovery itself runs over a reliable network:
    the adversary only fires inside the main phase, mirroring the
    reliable-recovery fault assumption in {!Refinement}.) *)

let compare (a : state) (b : state) =
  List.compare
    (fun (c1, q1) (c2, q2) ->
      let c = String.compare c1 c2 in
      if c <> 0 then c else List.compare V.compare q1 q2)
    a b

let equal a b = compare a b = 0

let pp ppf (st : state) =
  Format.fprintf ppf "{%s}"
    (String.concat "; "
       (List.map
          (fun (c, q) ->
            Printf.sprintf "%s:[%s]" c
              (String.concat ", " (List.map (Format.asprintf "%a" V.pp) q)))
          st))

(* ------------------------------------------------------------------ *)
(* Program steps                                                       *)
(* ------------------------------------------------------------------ *)

let chan_loc ch = Fp.cell ("net:" ^ ch)

(* The reorder event a receive can absorb in [st]: deliver the second
   waiting message instead of the head, so it needs two queued messages. *)
let reorder ~set ch st w =
  match recv_at ch 1 st with
  | None -> []
  | Some (m, st') -> [ (Fault.Msg_reorder 1, set w st', Some m) ]

let send_step ~get ~set ch msg =
  let fp _w = Fp.rw ~reads:[ chan_loc ch ] ~writes:[ chan_loc ch ] () in
  let action w = P.Steps [ (set w (send ch msg (get w)), ()) ] in
  let faults w =
    [
      (Fault.Msg_drop, w, ());
      (Fault.Msg_dup, set w (send ch msg (send ch msg (get w))), ());
    ]
  in
  P.atomic ~fp ~faults ("net_send(" ^ ch ^ ")") action

(* Non-blocking receive with a timeout outcome: an empty channel returns
   [None] immediately (the caller's timeout fired), and the [Msg_delay]
   event makes the timeout fire even though a message IS queued — delivery
   delayed past the deadline, message still in flight. *)
let try_recv_step ~get ~set ch =
  let fp _w = Fp.rw ~reads:[ chan_loc ch ] ~writes:[ chan_loc ch ] () in
  let action w =
    match recv ch (get w) with
    | None -> P.Steps [ (w, None) ]
    | Some (m, st') -> P.Steps [ (set w st', Some m) ]
  in
  let faults w =
    let st = get w in
    let delay = if length ch st = 0 then [] else [ (Fault.Msg_delay, w, None) ] in
    delay @ reorder ~set ch st w
  in
  P.atomic ~fp ~faults ("net_try_recv(" ^ ch ^ ")") action

(* Server-loop receive: blocks until a message arrives OR the harness-level
   [until] predicate holds with the channel drained (all clients done →
   [None] → orderly shutdown).  [until_reads] lists the locations [until]
   reads so DPOR keeps it ordered against the steps that change them.  No
   [Msg_delay] event here — in an interleaving semantics, delaying delivery
   to a receiver that is willing to wait is subsumed by the scheduler
   simply not running it yet. *)
let recv_until ~get ~set ~until ?(until_reads = []) ch =
  let fp _w = Fp.rw ~reads:(chan_loc ch :: until_reads) ~writes:[ chan_loc ch ] () in
  let action w =
    match recv ch (get w) with
    | Some (m, st') -> P.Steps [ (set w st', Some m) ]
    | None -> if until w then P.Steps [ (w, None) ] else P.Steps []
  in
  let faults w = reorder ~set ch (get w) w in
  P.atomic ~fp ~faults ("net_recv(" ^ ch ^ ")") action
