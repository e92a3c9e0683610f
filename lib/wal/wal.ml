(** The write-ahead log: multiwrites buffered in memory, drained to the
    {!Circ} ring by a logger with group commit, applied home and trimmed by
    an installer, with log absorption and a [flush] durability barrier —
    the concurrent WAL of the paper's §7 artifact, over the ring
    [circ_proof_crash.v] proves.

    Disk layout for [{ n_data; cap; _ }]:
    - blocks [0 .. n_data-1]:  the home (data) region
    - blocks [n_data ..]:      a {!Circ} ring of [cap] record slots

    The volatile side is one buffer of accepted-but-unlogged transactions
    plus [vtail], the id of the last accepted transaction.  The durable
    side is the ring: its header's [txns] field counts the transactions
    ever logged, so [txn id is durable <=> header txns >= id] — that is
    the whole of [flush].

    The logger drains the buffer in batches: absorption first collapses
    buffered writes to the same address (last writer wins, survivors
    ordered by last occurrence), then one record-batch write plus ONE
    header install covers every transaction in the batch (group commit).
    The installer applies the live ring records to their home blocks and
    advances [start]; the logger falls back to installing inline when the
    ring is too full to take the next batch, so draining never waits on
    another thread.

    Everything below the buffer steps is driven through the fallible disk
    ops with unbounded retry — transient errors and torn record batches
    are absorbed (a torn batch is dead until the header says otherwise, so
    rewriting it is idempotent), which is what makes the WAL's fault
    dimension interesting to check. *)

module V = Tslang.Value
module T = Tslang.Transition
module Spec = Tslang.Spec
module P = Sched.Prog
module Block = Disk.Block
module Fp = Sched.Footprint

type params = { n_data : int; cap : int; absorb : bool }

let params ?(absorb = true) ~n_data ~cap () =
  if n_data <= 0 || cap <= 0 then invalid_arg "Wal.params";
  { n_data; cap; absorb }

let circ p = Circ.layout ~base:p.n_data ~cap:p.cap
let disk_size p = p.n_data + Circ.region_size (circ p)

type txn = (int * Block.t) list

(* ------------------------------------------------------------------ *)
(* Log absorption                                                        *)
(* ------------------------------------------------------------------ *)

module ISet = Set.Make (Int)

(** Last writer wins per address; survivors keep the order of their last
    occurrence. *)
let absorb records =
  let rec go seen acc = function
    | [] -> acc
    | (a, b) :: rest ->
      if ISet.mem a seen then go seen acc rest
      else go (ISet.add a seen) ((a, b) :: acc) rest
  in
  go ISet.empty [] (List.rev records)

(** The records one drained batch of transactions logs. *)
let batch_records p txns =
  let records = List.concat txns in
  if p.absorb then absorb records else records

let rec take k xs = if k <= 0 then [] else match xs with [] -> [] | x :: tl -> x :: take (k - 1) tl
let rec drop k xs = if k <= 0 then xs else match xs with [] -> [] | _ :: tl -> drop (k - 1) tl

(** Longest prefix of [buf] whose absorbed records fit in [free] slots
    (0 if even the first transaction does not fit — absorption is
    monotone in the prefix, so greedy is exact). *)
let take_batch p ~free buf =
  let n = List.length buf in
  let rec go k best =
    if k > n then best
    else if List.length (batch_records p (take k buf)) <= free then go (k + 1) k
    else best
  in
  go 1 0

(* ------------------------------------------------------------------ *)
(* Specification: an atomic multiwrite log                               *)
(* ------------------------------------------------------------------ *)

type state = {
  durable : Block.t list;  (** home values as of the last logged txn *)
  pending : txn list;  (** accepted but not yet durable, oldest first *)
  logged : int;  (** ids [1 .. logged] are durable *)
}

let set_nth xs i v = List.mapi (fun j x -> if i = j then v else x) xs
let apply_txn st txn = List.fold_left (fun st (a, b) -> set_nth st a b) st txn
let view st = List.fold_left apply_txn st.durable st.pending

(** Settle the first [k] pending transactions: they become durable, in
    order. *)
let settle k st =
  {
    durable = List.fold_left apply_txn st.durable (take k st.pending);
    pending = drop k st.pending;
    logged = st.logged + k;
  }

let pp_record ppf (a, b) = Fmt.pf ppf "%d:%a" a Block.pp b
let pp_txn ppf txn = Fmt.pf ppf "[%a]" (Fmt.list ~sep:Fmt.comma pp_record) txn

let pp_state ppf st =
  Fmt.pf ppf "wal{durable=[%a] pending=%a logged=%d}"
    (Fmt.list ~sep:Fmt.semi Block.pp)
    st.durable
    (Fmt.list ~sep:Fmt.comma pp_txn)
    st.pending st.logged

let compare_txn = List.compare (fun (a1, b1) (a2, b2) ->
    let c = Int.compare a1 a2 in
    if c <> 0 then c else Block.compare b1 b2)

let compare_state x y =
  let c = List.compare Block.compare x.durable y.durable in
  if c <> 0 then c
  else
    let c = List.compare compare_txn x.pending y.pending in
    if c <> 0 then c else Int.compare x.logged y.logged

let spec p : state Spec.t =
  let open T.Syntax in
  let in_bounds a = a >= 0 && a < p.n_data in
  let choose_settle =
    let* st = T.reads in
    let* k = T.choose (List.init (List.length st.pending + 1) Fun.id) in
    T.modify (settle k)
  in
  {
    Spec.name = "wal";
    init =
      { durable = List.init p.n_data (fun _ -> Block.zero); pending = []; logged = 0 };
    compare_state;
    pp_state;
    step =
      (fun op args ->
        match (op, args) with
        | "w_mwrite", [ v ] ->
          let entries = Circ.records_of_value v in
          let* () =
            T.check
              (entries <> []
              && List.length entries <= p.cap
              && List.for_all (fun (a, _) -> in_bounds a) entries)
          in
          let* st = T.reads in
          let id = st.logged + List.length st.pending + 1 in
          let* () = T.modify (fun st -> { st with pending = st.pending @ [ entries ] }) in
          T.ret (V.int id)
        | "w_read", [ a ] ->
          let a = V.get_int a in
          let* () = T.check (in_bounds a) in
          let* st = T.reads in
          T.ret (Block.to_value (List.nth (view st) a))
        | "w_flush", [ id ] ->
          (* the barrier: however many transactions the logger settled by
             now, [id] must be among them.  [guard], not [check]: a
             candidate branch that settled too few is pruned, it is not
             undefined behaviour. *)
          let id = V.get_int id in
          let* () = choose_settle in
          let* st = T.reads in
          let* () = T.guard (st.logged >= id) in
          T.ret V.unit
        | "w_log", [] ->
          (* a logger pass settles some prefix of the pending txns *)
          let* () = choose_settle in
          T.ret V.unit
        | "w_install", [] ->
          (* moving records ring -> home changes no abstract state *)
          T.ret V.unit
        | _ -> invalid_arg "wal spec: unknown op");
    (* accepted-but-unlogged transactions vanish at a crash *)
    crash = T.modify (fun st -> { st with pending = [] });
  }

(* ------------------------------------------------------------------ *)
(* World and implementation (single WAL lock)                            *)
(* ------------------------------------------------------------------ *)

type world = {
  disk : Disk.Single_disk.t;
  buffer : txn list;  (** accepted, not yet logged; oldest first *)
  vtail : int;  (** last accepted txn id = header txns + |buffer| *)
  locks : Disk.Locks.t;
}

let init_world p =
  { disk = Disk.Single_disk.init (disk_size p); buffer = []; vtail = 0; locks = Disk.Locks.empty }

let crash_world w = { w with buffer = []; vtail = 0; locks = Disk.Locks.empty }

let pp_world ppf w =
  Fmt.pf ppf "%a buf=%a vtail=%d %a" Disk.Single_disk.pp w.disk
    (Fmt.list ~sep:Fmt.comma pp_txn)
    w.buffer w.vtail Disk.Locks.pp w.locks

let get_disk w = w.disk
let set_disk w disk = { w with disk }
let get_locks w = w.locks
let set_locks w locks = { w with locks }

let the_lock = 0
let lock () = Disk.Locks.acquire ~get:get_locks ~set:set_locks the_lock
let unlock () = Disk.Locks.release ~get:get_locks ~set:set_locks the_lock

let buf_reads = Fp.const (Fp.reads [ Fp.cell "walbuf" ])
let buf_writes = Fp.const (Fp.writes [ Fp.cell "walbuf" ])

let plain = Disk.Single_disk.plain ~get_disk ~set_disk
let fallible = Disk.Single_disk.fallible ~get_disk ~set_disk

open P.Syntax

(** Apply the live ring records home and trim — the installer's body.
    Caller holds the WAL lock. *)
let install_body p : (world, unit) P.t =
  let c = circ p in
  let* s, e, t = Circ.read_header ~get_disk c in
  if s = e then P.return ()
  else
    let rec go pos =
      if pos >= e then P.return ()
      else
        let* a, b = Circ.read_record ~get_disk c pos in
        let* () = Sched.Retry.unbounded "install" (fallible.write a b) in
        go (pos + 1)
    in
    let* () = go s in
    Sched.Retry.unbounded "trim" (Circ.install_header fallible c ~start:e ~end_:e ~txns:t)

(** Drain the whole buffer to the ring, batch by batch — the logger's
    body, also run inline by [flush].  Installs inline when the ring is
    too full for the next batch.  Caller holds the WAL lock. *)
let rec drain p : (world, unit) P.t =
  let c = circ p in
  let* buf = P.read ~fp:buf_reads "wal_buffer_snapshot" (fun w -> w.buffer) in
  if buf = [] then P.return ()
  else
    let* s, e, t = Circ.read_header ~get_disk c in
    let free = Circ.free_space c ~start:s ~end_:e in
    let k = take_batch p ~free buf in
    if k = 0 then
      (* no room even for one txn: make room, then retry the batch *)
      let* () = install_body p in
      drain p
    else
      let txns = take k buf in
      let records = batch_records p txns in
      let* () = Sched.Retry.unbounded "log" (Circ.write_records fallible c ~pos:e records) in
      (* group commit: ONE header install covers all k transactions *)
      let* () =
        Sched.Retry.unbounded "header"
          (Circ.install_header fallible c ~start:s ~end_:(e + List.length records) ~txns:(t + k))
      in
      let* () =
        P.write ~fp:buf_writes "wal_buffer_drop" (fun w -> { w with buffer = drop k w.buffer })
      in
      drain p

let mwrite_prog p entries : (world, V.t) P.t =
  ignore p;
  P.span ~cat:"wal" "wal_mwrite"
  @@ let* () = lock () in
  let* id =
    P.det ~fp:buf_writes "wal_buffer_append" (fun w ->
        let id = w.vtail + 1 in
        ({ w with buffer = w.buffer @ [ entries ]; vtail = id }, id))
  in
  let* () = unlock () in
  P.return (V.int id)

let logger_tick_prog p : (world, V.t) P.t =
  P.span ~cat:"wal" "wal_logger"
  @@ let* () = lock () in
  let* () = drain p in
  let* () = unlock () in
  P.return V.unit

let installer_tick_prog p : (world, V.t) P.t =
  P.span ~cat:"wal" "wal_installer"
  @@ let* () = lock () in
  let* () = install_body p in
  let* () = unlock () in
  P.return V.unit

(** Wait until txn [id] is durable.  Self-draining: if the logger has not
    logged far enough, flush drains the buffer itself rather than
    blocking on another thread. *)
let flush_prog p id : (world, V.t) P.t =
  P.span ~cat:"wal" "wal_flush"
  @@ let* () = lock () in
  let* _, _, t = Circ.read_header ~get_disk (circ p) in
  let* () = if t >= id then P.return () else drain p in
  let* () = unlock () in
  P.return V.unit

(** Read through buffer, then ring (newest first), then home. *)
let read_prog p a : (world, V.t) P.t =
  let c = circ p in
  P.span ~cat:"wal" "wal_read"
  @@ let* () = lock () in
  let* buffered =
    P.read ~fp:buf_reads "wal_buffer_find" (fun w ->
        List.find_map (fun txn -> List.assoc_opt a (List.rev txn)) (List.rev w.buffer))
  in
  let* v =
    match buffered with
    | Some b -> P.return (Block.to_value b)
    | None ->
      let* s, e, _ = Circ.read_header ~get_disk c in
      let rec scan pos =
        if pos < s then Disk.Single_disk.read ~get_disk a
        else
          let* ra, rb = Circ.read_record ~get_disk c pos in
          if ra = a then P.return (Block.to_value rb) else scan (pos - 1)
      in
      scan (e - 1)
  in
  let* () = unlock () in
  P.return v

(** Recovery: replay the live ring home, trim, and rebuild the volatile
    txn counter from the header.  Idempotent; may itself crash and
    re-run. *)
let recover_prog p : (world, V.t) P.t =
  let c = circ p in
  P.span ~cat:"wal" "wal_recover"
  @@ let* s, e, t = Circ.read_header ~get_disk c in
  let rec replay pos =
    if pos >= e then P.return ()
    else
      let* a, b = Circ.read_record ~get_disk c pos in
      let* () = Disk.Single_disk.write ~get_disk ~set_disk a b in
      replay (pos + 1)
  in
  let* () = replay s in
  let* _ = if s = e then P.return V.unit else Circ.install_header plain c ~start:e ~end_:e ~txns:t in
  let* () =
    P.write ~fp:buf_writes "wal_vtail_restore" (fun w -> { w with buffer = []; vtail = t })
  in
  P.return V.unit

(* ------------------------------------------------------------------ *)
(* Checker configuration                                                 *)
(* ------------------------------------------------------------------ *)

let value_of_txn = Circ.value_of_records

let mwrite_call p entries = (Spec.call "w_mwrite" [ value_of_txn entries ], mwrite_prog p entries)
let read_call p a = (Spec.call "w_read" [ V.int a ], read_prog p a)
let flush_call p id = (Spec.call "w_flush" [ V.int id ], flush_prog p id)
let logger_call p = (Spec.call "w_log" [], logger_tick_prog p)
let installer_call p = (Spec.call "w_install" [], installer_tick_prog p)

(** Post probes: read back every home address. *)
let probe p = List.init p.n_data (fun a -> read_call p a)

let checker_config p ?(max_crashes = 1) ?(fault_budget = 0) threads :
    (world, state) Perennial_core.Refinement.config =
  Perennial_core.Refinement.config ~spec:(spec p) ~init_world:(init_world p) ~crash_world
    ~pp_world ~threads ~recovery:(recover_prog p) ~post:(probe p) ~max_crashes ~fault_budget
    ()

(* ------------------------------------------------------------------ *)
(* Seeded bugs                                                           *)
(* ------------------------------------------------------------------ *)

module Buggy = struct
  (** (a) The logger installs the header BEFORE the record batch hits the
      ring: a crash in between makes recovery replay whatever the slots
      held before — a torn log.  (Infallible writes: the bug is in the
      ordering, not the fault handling.) *)
  let drain_header_first p : (world, unit) P.t =
    let c = circ p in
    let* buf = P.read ~fp:buf_reads "wal_buffer_snapshot" (fun w -> w.buffer) in
    if buf = [] then P.return ()
    else
      let* s, e, t = Circ.read_header ~get_disk c in
      let records = batch_records p buf in
      let* _ =
        (* BUG: commit point installed first *)
        Circ.install_header plain c ~start:s
          ~end_:(e + List.length records)
          ~txns:(t + List.length buf)
      in
      let* _ = Circ.write_records plain c ~pos:e records in
      P.write ~fp:buf_writes "wal_buffer_drop" (fun w -> { w with buffer = [] })

  let logger_tick_header_first p : (world, V.t) P.t =
    let* () = lock () in
    let* () = drain_header_first p in
    let* () = unlock () in
    P.return V.unit

  let logger_call_header_first p = (Spec.call "w_log" [], logger_tick_header_first p)

  (** (b) The installer trims the ring BEFORE the records are applied
      home: a crash in between has discarded the only copy of a logged
      transaction — a lost write. *)
  let installer_tick_trim_first p : (world, V.t) P.t =
    let c = circ p in
    let* () = lock () in
    let* s, e, t = Circ.read_header ~get_disk c in
    let* () =
      if s = e then P.return ()
      else
        let* _ =
          (* BUG: the ring is abandoned before its records are home *)
          Circ.install_header plain c ~start:e ~end_:e ~txns:t
        in
        let rec go pos =
          if pos >= e then P.return ()
          else
            let* a, b = Circ.read_record ~get_disk c pos in
            let* () = Disk.Single_disk.write ~get_disk ~set_disk a b in
            go (pos + 1)
        in
        go s
    in
    let* () = unlock () in
    P.return V.unit

  let installer_call_trim_first p = (Spec.call "w_install" [], installer_tick_trim_first p)

  (** (c) Absorption collapses across the flush barrier: the drain skips
      any buffered record whose address already has a record in the LIVE
      ring — "it is already logged" — while still counting the
      transactions as durable in the header.  [flush] then reports the
      new value durable when only the old one is: a durability lie. *)
  let drain_absorb_logged p : (world, unit) P.t =
    let c = circ p in
    let* buf = P.read ~fp:buf_reads "wal_buffer_snapshot" (fun w -> w.buffer) in
    if buf = [] then P.return ()
    else
      let* s, e, t = Circ.read_header ~get_disk c in
      let rec ring_addrs pos acc =
        if pos >= e then P.return acc
        else
          let* a, _ = Circ.read_record ~get_disk c pos in
          ring_addrs (pos + 1) (ISet.add a acc)
      in
      let* logged_addrs = ring_addrs s ISet.empty in
      let records = batch_records p buf in
      (* BUG: "absorbs" against records logged before the barrier *)
      let kept = List.filter (fun (a, _) -> not (ISet.mem a logged_addrs)) records in
      let* _ = Circ.write_records plain c ~pos:e kept in
      let* _ =
        Circ.install_header plain c ~start:s
          ~end_:(e + List.length kept)
          ~txns:(t + List.length buf)
      in
      P.write ~fp:buf_writes "wal_buffer_drop" (fun w -> { w with buffer = [] })

  let flush_absorb_logged p id : (world, V.t) P.t =
    let* () = lock () in
    let* _, _, t = Circ.read_header ~get_disk (circ p) in
    let* () = if t >= id then P.return () else drain_absorb_logged p in
    let* () = unlock () in
    P.return V.unit

  let flush_call_absorb_logged p id = (Spec.call "w_flush" [ V.int id ], flush_absorb_logged p id)
end
