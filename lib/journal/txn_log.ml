(** Multi-address journaling: the generalization of the fixed-pair
    write-ahead log ([Systems.Wal]) that GoJournal-style systems are built
    on.  A transaction is a *list* of (address, block) writes, made atomic
    and durable by the same commit protocol the WAL uses for its pair:

    1. write every entry — address and value — into the log region;
    2. commit with ONE atomic write of the entry count into the commit
       record (count 0 = no transaction in flight);
    3. apply the entries to the data region in order;
    4. clear the commit record.

    A crash between (2) and (4) leaves a committed-but-unapplied
    transaction; recovery replays the first [count] log slots and clears
    the record — completing the crashed transaction on the writer's behalf
    (recovery helping, §5.4).  Replay is idempotent, so recovery may itself
    crash at any point and re-run (§5.5).

    Disk layout for [{ n_data; max_slots }]:
    - blocks [0 .. n_data-1]:     the data region
    - block  [n_data]:            the commit record (entry count, decimal)
    - blocks [n_data+1 ..]:       [max_slots] log slots, 2 blocks each:
                                  entry address, then entry value

    The commit program is written once over a host world's disk ops
    (plain or fallible) and recovery over its disk lens, so that larger
    systems — the transactional key-value store in {!Kvs} — can embed a
    journal in their own world.  A standalone single-lock journal system with its own spec,
    checker configuration and seeded-bug variants lives below. *)

module V = Tslang.Value
module T = Tslang.Transition
module Spec = Tslang.Spec
module P = Sched.Prog
module Block = Disk.Block

type layout = { n_data : int; max_slots : int }

let layout ~n_data ~max_slots =
  if n_data <= 0 || max_slots <= 0 then invalid_arg "Txn_log.layout";
  { n_data; max_slots }

let rec_addr ly = ly.n_data
let slot_addr ly i = ly.n_data + 1 + (2 * i)
let slot_val ly i = ly.n_data + 2 + (2 * i)
let disk_size ly = ly.n_data + 1 + (2 * ly.max_slots)

(** Counts and addresses are stored as decimal strings; [Block.zero] is
    ["0"], so a fresh disk already holds an empty commit record. *)
let int_block n = Block.of_string (string_of_int n)

let block_int b = match int_of_string_opt (Block.to_string b) with Some n -> n | None -> 0

(* An entry list as a spec-level value and back. *)
let value_of_entries entries =
  V.list (List.map (fun (a, b) -> V.pair (V.int a) (Block.to_value b)) entries)

let entries_of_value v =
  List.map
    (fun e ->
      let a, b = V.get_pair e in
      (V.get_int a, Block.of_value b))
    (V.get_list v)

(* ------------------------------------------------------------------ *)
(* The commit and recovery protocols, over any world's disk ops          *)
(* ------------------------------------------------------------------ *)

open P.Syntax

module Fault = Sched.Fault
module Retry = Sched.Retry
module C = Perennial_wal.Circ

type backend = [ `Direct | `Wal ]

(** The WAL backend reuses the direct layout's blocks verbatim: the commit
    record becomes the ring header, the [max_slots] log slots the ring
    slots.  [Block.zero] parses as the empty ring, so a fresh disk works
    under either backend — but the two protocols store different header
    encodings, so a disk must be driven by one backend per lifetime. *)
let circ ly = C.layout ~base:ly.n_data ~cap:ly.max_slots

(* The three writes that frame a commit under one backend: the log, the
   commit point, and the clear that retires the transaction once it is
   applied.  Both backends log through the ring's record write — the
   direct log slots [0 ..] are ring positions [0 ..].  [`Direct] then
   counts the entries into the commit record.  [`Wal] logs past the
   ring's [end], installs the header (bumping the durable txn count) and
   then trims the ring empty again, so consecutive commits never run out
   of ring space; it reads the header first, with a plain read in either
   mode. *)
type 'w frame = { log : ('w, V.t) P.t; commit_point : ('w, V.t) P.t; clear : ('w, V.t) P.t }

let frame (d : 'w Disk.Single_disk.ops) backend ly entries : ('w, 'w frame) P.t =
  let k = List.length entries and c = circ ly in
  match backend with
  | `Direct ->
    P.return
      {
        log = C.write_records d c ~pos:0 entries;
        commit_point = d.write (rec_addr ly) (int_block k);
        clear = d.write (rec_addr ly) (int_block 0);
      }
  | `Wal ->
    let+ s, e, t = C.read_header ~get_disk:d.get_disk c in
    {
      log = C.write_records d c ~pos:e entries;
      commit_point = C.install_header d c ~start:s ~end_:(e + k) ~txns:(t + 1);
      clear = C.install_header d c ~start:(e + k) ~end_:(e + k) ~txns:(t + 1);
    }

(** Atomically install [entries]: log, commit point, apply, clear.  The
    caller must hold whatever locks protect the log region and the
    touched data blocks.  Durable once the commit point (the single
    atomic commit-record write, or the ring header install) has hit the
    disk.

    The commit point is also the dividing line for transient errors,
    which only the fallible ops return.  Before it, a failed write is
    retried at most [retries] times and then the transaction is ABORTED
    with {!Sched.Fault.err_value}: the record still reads 0 (the header
    still excludes the new records), so whatever reached the log is
    unobservable and durable state is untouched — the spec's error arm.
    After it, the transaction is committed and must not be abandoned:
    apply and clear writes retry without bound.  The log is ONE fallible
    multi-block write, so a [Torn_write] can tear it; the retry re-writes
    every slot, which is idempotent before the commit point. *)
let commit (d : 'w Disk.Single_disk.ops) ?(backend = `Direct) ?(retries = 1) ly entries :
    ('w, V.t) P.t =
  if List.length entries > ly.max_slots then P.ub "journal transaction overflows the log"
  else if entries = [] then P.return V.unit
  else
    P.span ~cat:"txn_log"
      ((if d.fallible then "txn_commit_ft" else "txn_commit")
      ^ match backend with `Direct -> "" | `Wal -> "_wal")
    @@ let* f = frame d backend ly entries in
    let* r = Retry.bounded "log" retries f.log in
    if Fault.is_eio r then P.return r
    else
      let* r = Retry.bounded "record" retries f.commit_point in
      if Fault.is_eio r then P.return r
      else
        let* () = P.seq (List.map (fun (a, b) -> Retry.unbounded "apply" (d.write a b)) entries) in
        let* () = Retry.unbounded "clear" f.clear in
        P.return V.unit

(** Replay a committed-but-unapplied transaction, if any, then clear the
    commit record.  Idempotent: safe to crash anywhere inside and re-run. *)
let recover_direct_prog ~get_disk ~set_disk ly : ('w, V.t) P.t =
  let dr a = Disk.Single_disk.read ~get_disk a in
  let dw a b = Disk.Single_disk.write ~get_disk ~set_disk a b in
  P.span ~cat:"txn_log" "txn_recover"
  @@ let* r = dr (rec_addr ly) in
  let n = block_int (Block.of_value r) in
  if n = 0 then P.return V.unit
  else
    let rec replay i =
      if i >= n then P.return ()
      else
        let* a = dr (slot_addr ly i) in
        let* b = dr (slot_val ly i) in
        let* () = dw (block_int (Block.of_value a)) (Block.of_value b) in
        replay (i + 1)
    in
    let* () = replay 0 in
    let* () = dw (rec_addr ly) (int_block 0) in
    P.return V.unit

(** Replay the live ring home and trim; a no-op when the ring is empty.
    Idempotent, like {!recover_direct_prog}. *)
let recover_wal_prog ~get_disk ~set_disk ly : ('w, V.t) P.t =
  let c = circ ly in
  P.span ~cat:"txn_log" "txn_recover_wal"
  @@ let* s, e, t = C.read_header ~get_disk c in
  if s = e then P.return V.unit
  else
    let rec replay pos =
      if pos >= e then P.return ()
      else
        let* a, b = C.read_record ~get_disk c pos in
        let* () = Disk.Single_disk.write ~get_disk ~set_disk a b in
        replay (pos + 1)
    in
    let* () = replay s in
    let* _ = C.install_header (Disk.Single_disk.plain ~get_disk ~set_disk) c ~start:e ~end_:e ~txns:t in
    P.return V.unit

let recover_prog ?(backend = `Direct) ~get_disk ~set_disk ly : ('w, V.t) P.t =
  match backend with
  | `Direct -> recover_direct_prog ~get_disk ~set_disk ly
  | `Wal -> recover_wal_prog ~get_disk ~set_disk ly

(* ------------------------------------------------------------------ *)
(* Specification of the standalone journal: an atomic array of blocks   *)
(* ------------------------------------------------------------------ *)

type state = Block.t list  (** the data region, one block per address *)

let set_nth xs i v = List.mapi (fun j x -> if i = j then v else x) xs

let spec ly : state Spec.t =
  let open T.Syntax in
  let in_bounds a = a >= 0 && a < ly.n_data in
  {
    Spec.name = "txn-journal";
    init = List.init ly.n_data (fun _ -> Block.zero);
    compare_state = List.compare Block.compare;
    pp_state = (fun ppf st -> Fmt.pf ppf "[%a]" (Fmt.list ~sep:Fmt.semi Block.pp) st);
    step =
      (fun op args ->
        match op, args with
        | "j_commit", [ v ] ->
          let entries = entries_of_value v in
          let* () =
            T.check
              (List.length entries <= ly.max_slots
              && List.for_all (fun (a, _) -> in_bounds a) entries)
          in
          let* () =
            T.modify (fun st -> List.fold_left (fun st (a, b) -> set_nth st a b) st entries)
          in
          T.ret V.unit
        | "j_read", [ a ] ->
          let a = V.get_int a in
          let* () = T.check (in_bounds a) in
          let* st = T.reads in
          T.ret (Block.to_value (List.nth st a))
        (* Graceful-degradation arms: the op either takes effect atomically
           or returns {!Sched.Fault.err_value} with state untouched. *)
        | "j_commit_ft", [ v ] ->
          let entries = entries_of_value v in
          let* () =
            T.check
              (List.length entries <= ly.max_slots
              && List.for_all (fun (a, _) -> in_bounds a) entries)
          in
          let* ok = T.choose [ true; false ] in
          if ok then
            let* () =
              T.modify (fun st -> List.fold_left (fun st (a, b) -> set_nth st a b) st entries)
            in
            T.ret V.unit
          else T.ret Fault.err_value
        | "j_read_ft", [ a ] ->
          let a = V.get_int a in
          let* () = T.check (in_bounds a) in
          let* st = T.reads in
          let* r = T.choose [ Block.to_value (List.nth st a); Fault.err_value ] in
          T.ret r
        | _ -> invalid_arg "txn-journal spec: unknown op");
    (* Committed transactions are durable; in-flight ones simply vanish. *)
    crash = T.ret ();
  }

(* ------------------------------------------------------------------ *)
(* Standalone world and implementation (single log lock)                *)
(* ------------------------------------------------------------------ *)

type world = { disk : Disk.Single_disk.t; locks : Disk.Locks.t }

let init_world ly = { disk = Disk.Single_disk.init (disk_size ly); locks = Disk.Locks.empty }
let crash_world w = { w with locks = Disk.Locks.empty }

let pp_world ppf w =
  Fmt.pf ppf "%a %a" Disk.Single_disk.pp w.disk Disk.Locks.pp w.locks

let get_disk w = w.disk
let set_disk w disk = { w with disk }
let get_locks w = w.locks
let set_locks w locks = { w with locks }

let the_lock = 0
let lock () = Disk.Locks.acquire ~get:get_locks ~set:set_locks the_lock
let unlock () = Disk.Locks.release ~get:get_locks ~set:set_locks the_lock

let plain = Disk.Single_disk.plain ~get_disk ~set_disk
let fallible = Disk.Single_disk.fallible ~get_disk ~set_disk

let commit_txn d ?backend ?retries ly entries : (world, V.t) P.t =
  let* () = lock () in
  let* r = commit d ?backend ?retries ly entries in
  let* () = unlock () in
  P.return r

(* A fallible read retries boundedly and degrades to
   {!Sched.Fault.err_value} when the retries are exhausted. *)
let read (d : world Disk.Single_disk.ops) ?(retries = 1) a : (world, V.t) P.t =
  let* () = lock () in
  let* v = Retry.bounded "read" retries (d.read a) in
  let* () = unlock () in
  P.return v

let commit_txn_prog ?backend ly entries = commit_txn plain ?backend ly entries
let read_prog (_ : layout) a = read plain a
let recover ?backend ly : (world, V.t) P.t = recover_prog ?backend ~get_disk ~set_disk ly

(* ------------------------------------------------------------------ *)
(* Checker configuration                                                *)
(* ------------------------------------------------------------------ *)

let commit_call ?backend ly entries =
  (Spec.call "j_commit" [ value_of_entries entries ], commit_txn_prog ?backend ly entries)

let read_call ly a = (Spec.call "j_read" [ V.int a ], read_prog ly a)

let commit_ft_call ?backend ?retries ly entries =
  (Spec.call "j_commit_ft" [ value_of_entries entries ], commit_txn fallible ?backend ?retries ly entries)

let read_ft_call ?retries (_ : layout) a = (Spec.call "j_read_ft" [ V.int a ], read fallible ?retries a)

(** Post-crash probes: read back every data address. *)
let probe ly = List.init ly.n_data (fun a -> read_call ly a)

let checker_config ?backend ly ?(max_crashes = 1) ?(fault_budget = 0) threads :
    (world, state) Perennial_core.Refinement.config =
  Perennial_core.Refinement.config ~spec:(spec ly) ~init_world:(init_world ly)
    ~crash_world ~pp_world ~threads ~recovery:(recover ?backend ly) ~post:(probe ly)
    ~max_crashes ~fault_budget ()

(* ------------------------------------------------------------------ *)
(* Seeded bugs                                                          *)
(* ------------------------------------------------------------------ *)

module Buggy = struct
  (** Write the commit record BEFORE the log entries: a crash between the
      record write and the slot writes makes recovery replay whatever
      garbage the slots held. *)
  let commit_record_first ~get_disk ~set_disk ly entries : ('w, unit) P.t =
    let dw a b = Disk.Single_disk.write ~get_disk ~set_disk a b in
    if entries = [] then P.return ()
    else
      let rec log i = function
        | [] -> P.return ()
        | (a, b) :: rest ->
          let* () = dw (slot_addr ly i) (int_block a) in
          let* () = dw (slot_val ly i) b in
          log (i + 1) rest
      in
      let rec apply = function
        | [] -> P.return ()
        | (a, b) :: rest ->
          let* () = dw a b in
          apply rest
      in
      let* () = dw (rec_addr ly) (int_block (List.length entries)) in
      let* () = log 0 entries in
      let* () = apply entries in
      dw (rec_addr ly) (int_block 0)

  (** Apply in place without logging: a crash mid-apply tears the
      transaction across addresses. *)
  let commit_no_log ~get_disk ~set_disk ly entries : ('w, unit) P.t =
    ignore ly;
    let dw a b = Disk.Single_disk.write ~get_disk ~set_disk a b in
    let rec apply = function
      | [] -> P.return ()
      | (a, b) :: rest ->
        let* () = dw a b in
        apply rest
    in
    apply entries

  let commit_txn_record_first ly entries : (world, V.t) P.t =
    let* () = lock () in
    let* () = commit_record_first ~get_disk ~set_disk ly entries in
    let* () = unlock () in
    P.return V.unit

  let commit_txn_no_log ly entries : (world, V.t) P.t =
    let* () = lock () in
    let* () = commit_no_log ~get_disk ~set_disk ly entries in
    let* () = unlock () in
    P.return V.unit

  let commit_call_record_first ly entries =
    (Spec.call "j_commit" [ value_of_entries entries ], commit_txn_record_first ly entries)

  let commit_call_no_log ly entries =
    (Spec.call "j_commit" [ value_of_entries entries ], commit_txn_no_log ly entries)

  (** Recovery that clears the record before replaying: a crash in between
      loses the committed transaction. *)
  let recover_clear_first ly : (world, V.t) P.t =
    let dr a = Disk.Single_disk.read ~get_disk a in
    let dw a b = Disk.Single_disk.write ~get_disk ~set_disk a b in
    let* r = dr (rec_addr ly) in
    let n = block_int (Block.of_value r) in
    if n = 0 then P.return V.unit
    else
      let* () = dw (rec_addr ly) (int_block 0) in
      let rec replay i =
        if i >= n then P.return V.unit
        else
          let* a = dr (slot_addr ly i) in
          let* b = dr (slot_val ly i) in
          let* () = dw (block_int (Block.of_value a)) (Block.of_value b) in
          replay (i + 1)
      in
      replay 0

  (** Recovery that ignores the log entirely. *)
  let recover_nop : (world, V.t) P.t = P.return V.unit

  (** Fault-handling bug #2 — a torn log write treated as committed: the
      error from the slot multi-write is swallowed and the commit record is
      written anyway, so the record can point at half-written slots.  A
      crash between the record write and the apply phase makes recovery
      replay the torn garbage — e.g. [Torn_write 3] on a two-entry
      transaction persists the second slot's address block but not its
      value block, and replay then zeroes that address.  Caught with fault
      budget 1 and one crash. *)
  let commit_ft_ignore_torn ~get_disk ~set_disk ly entries : ('w, V.t) P.t =
    let dw a b = Disk.Single_disk.write ~get_disk ~set_disk a b in
    let dwm = (Disk.Single_disk.fallible ~get_disk ~set_disk).write_multi in
    if entries = [] then P.return V.unit
    else
      let slot_blocks =
        List.concat
          (List.mapi
             (fun i (a, b) -> [ (slot_addr ly i, int_block a); (slot_val ly i, b) ])
             entries)
      in
      let rec apply = function
        | [] -> P.return ()
        | (a, b) :: rest ->
          let* () = dw a b in
          apply rest
      in
      let* _r = dwm slot_blocks in
      (* BUG: _r may be a torn-write error — committed regardless *)
      let* () = dw (rec_addr ly) (int_block (List.length entries)) in
      let* () = apply entries in
      let* () = dw (rec_addr ly) (int_block 0) in
      P.return V.unit

  (** Fault-handling bug #3 — error swallowed after partial apply: the
      post-commit apply loop drops a failed write on the floor and still
      clears the commit record and reports success, leaving a committed
      transaction half-applied with recovery disarmed.  Caught with fault
      budget 1 and no crash: the very next read of the skipped address
      sees the stale block. *)
  let commit_ft_swallow_apply ~get_disk ~set_disk ly entries : ('w, V.t) P.t =
    let dw a b = Disk.Single_disk.write ~get_disk ~set_disk a b in
    let dwf = (Disk.Single_disk.fallible ~get_disk ~set_disk).write in
    if entries = [] then P.return V.unit
    else
      let rec log i = function
        | [] -> P.return ()
        | (a, b) :: rest ->
          let* () = dw (slot_addr ly i) (int_block a) in
          let* () = dw (slot_val ly i) b in
          log (i + 1) rest
      in
      let rec apply = function
        | [] -> P.return ()
        | (a, b) :: rest ->
          let* _r = dwf a b in
          (* BUG: _r may be a transient write error — entry skipped *)
          apply rest
      in
      let* () = log 0 entries in
      let* () = dw (rec_addr ly) (int_block (List.length entries)) in
      let* () = apply entries in
      let* () = dw (rec_addr ly) (int_block 0) in
      P.return V.unit

  let commit_txn_ft_ignore_torn ly entries : (world, V.t) P.t =
    let* () = lock () in
    let* r = commit_ft_ignore_torn ~get_disk ~set_disk ly entries in
    let* () = unlock () in
    P.return r

  let commit_ft_call_ignore_torn ly entries =
    (Spec.call "j_commit_ft" [ value_of_entries entries ], commit_txn_ft_ignore_torn ly entries)
end
