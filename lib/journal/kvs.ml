(** A crash-safe transactional key-value store on the multi-address journal
    ({!Txn_log}) — the GoJournal/dafny-jrnl layering, reproduced inside the
    outline/refinement checking stack.

    The store holds a fixed capacity of [n_keys] keys (key = data-region
    address, value = one block).  Operations:

    - [kv_get k]        read key [k];
    - [kv_put k v]      durable single-key put (commits a journal txn);
    - [kv_txn entries]  durable multi-key put — all or nothing;
    - [kv_put_async]    buffered put: acknowledged before it is durable;
    - [kv_flush]        make every buffered put durable in ONE journal txn.

    Locking: one lock per key (ids [0..n_keys-1]) guarding that key's data
    block, plus a commit lock (id [n_keys]) guarding the log region and the
    volatile group-commit buffer.  Gets take only their key's lock; a
    durable commit takes every key lock (ascending, then the commit lock —
    a total order, so no deadlock) because flushing merges the whole buffer
    into one transaction.

    The group-commit loss window is visible in the specification, exactly
    as for {!Systems.Group_commit}: abstract state is (committed map,
    pending transaction queue) and the crash transition DROPS the pending
    queue — committed puts survive, acknowledged-but-unflushed ones may be
    lost, in-flight transactions are never partially applied.  Checking the
    implementation against [strict_spec] (crash loses nothing) must fail;
    that rejection is what shows the spec needs the loss window. *)

module V = Tslang.Value
module T = Tslang.Transition
module Spec = Tslang.Spec
module P = Sched.Prog
module Block = Disk.Block

type params = { n_keys : int; max_slots : int; backend : Txn_log.backend }

(** [max_slots] defaults to [n_keys]: a merged group commit has at most one
    entry per key, so the log can always hold a full flush.  [backend]
    (default [`Direct]) selects the journal's commit protocol — [`Wal]
    batches commits through the circular log. *)
let params ?(backend = `Direct) ?max_slots ~n_keys () =
  let max_slots = match max_slots with Some m -> m | None -> n_keys in
  if n_keys <= 0 then invalid_arg "Kvs.params";
  if max_slots < n_keys then invalid_arg "Kvs.params: log smaller than a full flush";
  { n_keys; max_slots; backend }

let layout p = Txn_log.layout ~n_data:p.n_keys ~max_slots:p.max_slots

type txn = (int * Block.t) list

(* ------------------------------------------------------------------ *)
(* Specification: finite map + pending queue, lossy crash               *)
(* ------------------------------------------------------------------ *)

type state = {
  committed : Block.t list;  (** durable value per key *)
  pending : txn list;  (** acknowledged, not yet flushed; newest last *)
}

let apply_txn m (t : txn) =
  List.fold_left (fun m (k, b) -> List.mapi (fun i x -> if i = k then b else x) m) m t

let view st = List.fold_left apply_txn st.committed st.pending
let view_key st k = List.nth (view st) k

let compare_txn = List.compare (fun (k1, b1) (k2, b2) ->
    let c = Int.compare k1 k2 in
    if c <> 0 then c else Block.compare b1 b2)

let entries_of_value = Txn_log.entries_of_value
let value_of_entries = Txn_log.value_of_entries

let spec p : state Spec.t =
  let open T.Syntax in
  let in_bounds k = k >= 0 && k < p.n_keys in
  (* A durable commit linearizes the whole pending queue plus [extra]. *)
  let settle extra st =
    { committed = view { st with pending = st.pending @ [ extra ] }; pending = [] }
  in
  {
    Spec.name = "kvs";
    init = { committed = List.init p.n_keys (fun _ -> Block.zero); pending = [] };
    compare_state =
      (fun s1 s2 ->
        let c = List.compare Block.compare s1.committed s2.committed in
        if c <> 0 then c else List.compare compare_txn s1.pending s2.pending);
    pp_state =
      (fun ppf st ->
        let entry ppf (k, b) = Fmt.pf ppf "%d:%a" k Block.pp b in
        Fmt.pf ppf "{committed=[%a] pending=[%a]}"
          (Fmt.list ~sep:Fmt.semi Block.pp) st.committed
          (Fmt.list ~sep:Fmt.sp (Fmt.brackets (Fmt.list ~sep:Fmt.semi entry)))
          st.pending);
    step =
      (fun op args ->
        match op, args with
        | "kv_get", [ k ] ->
          let k = V.get_int k in
          let* () = T.check (in_bounds k) in
          let* st = T.reads in
          T.ret (Block.to_value (view_key st k))
        | "kv_put", [ k; v ] ->
          let k = V.get_int k in
          let* () = T.check (in_bounds k) in
          let* () = T.modify (settle [ (k, Block.of_value v) ]) in
          T.ret V.unit
        | "kv_txn", [ v ] ->
          let entries = entries_of_value v in
          let* () = T.check (List.for_all (fun (k, _) -> in_bounds k) entries) in
          let* () = T.modify (settle entries) in
          T.ret V.unit
        | "kv_put_async", [ k; v ] ->
          let k = V.get_int k in
          let* () = T.check (in_bounds k) in
          let* () =
            T.modify (fun st -> { st with pending = st.pending @ [ [ (k, Block.of_value v) ] ] })
          in
          T.ret V.unit
        | "kv_flush", [] ->
          let* () = T.modify (settle []) in
          T.ret V.unit
        (* Graceful-degradation arms: the op either takes effect atomically
           or returns {!Sched.Fault.err_value} with state untouched. *)
        | "kv_get_ft", [ k ] ->
          let k = V.get_int k in
          let* () = T.check (in_bounds k) in
          let* st = T.reads in
          let* r = T.choose [ Block.to_value (view_key st k); Sched.Fault.err_value ] in
          T.ret r
        | "kv_put_ft", [ k; v ] ->
          let k = V.get_int k in
          let* () = T.check (in_bounds k) in
          let* ok = T.choose [ true; false ] in
          if ok then
            let* () = T.modify (settle [ (k, Block.of_value v) ]) in
            T.ret V.unit
          else T.ret Sched.Fault.err_value
        | "kv_txn_ft", [ v ] ->
          let entries = entries_of_value v in
          let* () = T.check (List.for_all (fun (k, _) -> in_bounds k) entries) in
          let* ok = T.choose [ true; false ] in
          if ok then
            let* () = T.modify (settle entries) in
            T.ret V.unit
          else T.ret Sched.Fault.err_value
        | _ -> invalid_arg "kvs spec: unknown op");
    (* The loss window: a crash drops everything not yet flushed. *)
    crash = T.modify (fun st -> { st with pending = [] });
  }

(** The lossless crash spec the implementation must FAIL against — the
    experiment showing the group-commit window is real. *)
let strict_spec p : state Spec.t = { (spec p) with crash = T.ret () }

(* ------------------------------------------------------------------ *)
(* World and implementation                                             *)
(* ------------------------------------------------------------------ *)

type world = {
  disk : Disk.Single_disk.t;
  buffer : txn list;  (** volatile group-commit buffer, newest last *)
  locks : Disk.Locks.t;
}

let init_world p =
  { disk = Disk.Single_disk.init (Txn_log.disk_size (layout p));
    buffer = [];
    locks = Disk.Locks.empty }

let crash_world w = { w with buffer = []; locks = Disk.Locks.empty }

let pp_world ppf w =
  let entry ppf (k, b) = Fmt.pf ppf "%d:%a" k Block.pp b in
  Fmt.pf ppf "%a buf=[%a] %a" Disk.Single_disk.pp w.disk
    (Fmt.list ~sep:Fmt.sp (Fmt.brackets (Fmt.list ~sep:Fmt.semi entry)))
    w.buffer Disk.Locks.pp w.locks

let get_disk w = w.disk
let set_disk w disk = { w with disk }
let get_locks w = w.locks
let set_locks w locks = { w with locks }

let commit_lock p = p.n_keys
let lock l = Disk.Locks.acquire ~get:get_locks ~set:set_locks l
let unlock l = Disk.Locks.release ~get:get_locks ~set:set_locks l
let disk_read a = Disk.Single_disk.read ~get_disk a

open P.Syntax

(* Every key lock in ascending order, then the commit lock: the global
   acquisition order that makes the full-flush path deadlock-free. *)
let lock_all p = P.seq (List.init (p.n_keys + 1) (fun l -> lock l))
let unlock_all p = P.seq (List.init (p.n_keys + 1) (fun i -> unlock (p.n_keys - i)))

(* Last-write-wins merge of a transaction queue into at most one entry per
   key (sorted), mirroring the spec's sequential [apply_txn]. *)
let merge (txns : txn list) : txn =
  let latest =
    List.fold_left (fun acc (k, b) -> (k, b) :: List.remove_assoc k acc) [] (List.concat txns)
  in
  List.sort (fun (k1, _) (k2, _) -> Int.compare k1 k2) latest

(* The buffered value a get must prefer over the data region: the newest
   pending write to [k], if any. *)
let buffered_value k buffer =
  List.fold_left
    (fun acc (k', b) -> if k' = k then Some b else acc)
    None (List.concat buffer)

let plain = Disk.Single_disk.plain ~get_disk ~set_disk
let fallible = Disk.Single_disk.fallible ~get_disk ~set_disk

(** Commit the whole buffer plus [extra] as ONE journal transaction over
    the disk ops [d].  Caller holds every key lock and the commit lock.
    On a clean abort (fallible ops only) the buffer is left alone — the
    acknowledged puts stay pending, so observable state is untouched, as
    the [_ft] spec arms demand. *)
let commit_pending d ?retries p (extra : txn list) : (world, V.t) P.t =
  let* mv = P.read ~fp:(Sched.Footprint.const (Sched.Footprint.reads [ Sched.Footprint.cell "buffer" ])) "buffer_merge" (fun w -> value_of_entries (merge (w.buffer @ extra))) in
  match entries_of_value mv with
  | [] -> P.return V.unit
  | entries ->
    let* r = Txn_log.commit d ~backend:p.backend ?retries (layout p) entries in
    if Sched.Fault.is_eio r then P.return r
    else
      let* () = P.write ~fp:(Sched.Footprint.const (Sched.Footprint.writes [ Sched.Footprint.cell "buffer" ])) "buffer_clear" (fun w -> { w with buffer = [] }) in
      P.return V.unit

let commit_locked d ?retries p extra : (world, V.t) P.t =
  let* () = lock_all p in
  let* r = commit_pending d ?retries p extra in
  let* () = unlock_all p in
  P.return r

(** Read key [k] under its key lock alone: a committing transaction holds
    the key locks of its whole footprint from log-append to record-clear,
    so the data block can never be observed mid-apply.  A fallible read
    retries boundedly and degrades to {!Sched.Fault.err_value}; buffered
    values never touch the disk, so that path cannot fail. *)
let get (d : world Disk.Single_disk.ops) ?(retries = 1) k : (world, V.t) P.t =
  let* () = lock k in
  let* buf =
    P.read ~fp:(Sched.Footprint.const (Sched.Footprint.reads [ Sched.Footprint.cell "buffer" ])) "buffer_find" (fun w ->
        match buffered_value k w.buffer with
        | Some b -> V.some (Block.to_value b)
        | None -> V.none)
  in
  let* v =
    match V.get_opt buf with Some v -> P.return v | None -> Sched.Retry.bounded "get" retries (d.read k)
  in
  let* () = unlock k in
  P.return v

let get_prog (_ : params) k = get plain k

(** The coarser get the proof outline ({!Kvs_proof}) covers exactly: key
    lock then commit lock, so the pinned commit record rules out the
    committed-but-unapplied window by lease agreement alone. *)
let get_sync_prog p k : (world, V.t) P.t =
  let* () = lock k in
  let* () = lock (commit_lock p) in
  let* buf =
    P.read ~fp:(Sched.Footprint.const (Sched.Footprint.reads [ Sched.Footprint.cell "buffer" ])) "buffer_find" (fun w ->
        match buffered_value k w.buffer with
        | Some b -> V.some (Block.to_value b)
        | None -> V.none)
  in
  let* v = match V.get_opt buf with Some v -> P.return v | None -> disk_read k in
  let* () = unlock (commit_lock p) in
  let* () = unlock k in
  P.return v

let put_prog p k v = commit_locked plain p [ [ (k, Block.of_value v) ] ]
let txn_prog p (entries : txn) = commit_locked plain p [ entries ]

(** Acknowledge a put after ONE volatile buffer append — the group-commit
    fast path, and the whole reason the spec's crash transition must drop
    the pending queue. *)
let put_async_prog p k v : (world, V.t) P.t =
  let* () = lock (commit_lock p) in
  let* () =
    P.write ~fp:(Sched.Footprint.const (Sched.Footprint.writes [ Sched.Footprint.cell "buffer" ])) "buffer_append" (fun w ->
        { w with buffer = w.buffer @ [ [ (k, Block.of_value v) ] ] })
  in
  let* () = unlock (commit_lock p) in
  P.return V.unit

let flush_prog p = commit_locked plain p []

(** Recovery is the journal's: replay a committed-but-unapplied transaction
    (helping), clear the record.  The buffer died with the crash. *)
let recover p : (world, V.t) P.t = Txn_log.recover_prog ~backend:p.backend ~get_disk ~set_disk (layout p)

(* ------------------------------------------------------------------ *)
(* Checker configuration                                                *)
(* ------------------------------------------------------------------ *)

let get_call p k = (Spec.call "kv_get" [ V.int k ], get_prog p k)
let get_sync_call p k = (Spec.call "kv_get" [ V.int k ], get_sync_prog p k)
let put_call p k v = (Spec.call "kv_put" [ V.int k; v ], put_prog p k v)
let txn_call p entries = (Spec.call "kv_txn" [ value_of_entries entries ], txn_prog p entries)
let put_async_call p k v = (Spec.call "kv_put_async" [ V.int k; v ], put_async_prog p k v)
let flush_call p = (Spec.call "kv_flush" [], flush_prog p)

let get_ft_call ?retries (_ : params) k = (Spec.call "kv_get_ft" [ V.int k ], get fallible ?retries k)

let put_ft_call ?retries p k v =
  (Spec.call "kv_put_ft" [ V.int k; v ], commit_locked fallible ?retries p [ [ (k, Block.of_value v) ] ])

let txn_ft_call ?retries p entries =
  (Spec.call "kv_txn_ft" [ value_of_entries entries ], commit_locked fallible ?retries p [ entries ])

(** Post-crash probes: read back every key. *)
let probe p = List.init p.n_keys (fun k -> get_call p k)

let checker_config p ?spec:(sp = spec p) ?(max_crashes = 1) ?(fault_budget = 0) threads :
    (world, state) Perennial_core.Refinement.config =
  Perennial_core.Refinement.config ~spec:sp ~init_world:(init_world p) ~crash_world
    ~pp_world ~threads ~recovery:(recover p) ~post:(probe p) ~max_crashes ~fault_budget ()

(* ------------------------------------------------------------------ *)
(* Seeded bugs                                                          *)
(* ------------------------------------------------------------------ *)

module Buggy = struct
  (** A get that goes straight to the data region: it misses acknowledged
      buffered puts — caught with no crash at all. *)
  let get_skip_buffer p k : (world, V.t) P.t =
    ignore p;
    let* () = lock k in
    let* v = disk_read k in
    let* () = unlock k in
    P.return v

  let get_call_skip_buffer p k = (Spec.call "kv_get" [ V.int k ], get_skip_buffer p k)

  (* Commit through a broken journal protocol. *)
  let commit_via buggy_commit p extra : (world, V.t) P.t =
    let* () = lock_all p in
    let* mv = P.read ~fp:(Sched.Footprint.const (Sched.Footprint.reads [ Sched.Footprint.cell "buffer" ])) "buffer_merge" (fun w -> value_of_entries (merge (w.buffer @ extra))) in
    let* () =
      match entries_of_value mv with
      | [] -> P.return ()
      | entries ->
        let* () = buggy_commit ~get_disk ~set_disk (layout p) entries in
        P.write ~fp:(Sched.Footprint.const (Sched.Footprint.writes [ Sched.Footprint.cell "buffer" ])) "buffer_clear" (fun w -> { w with buffer = [] })
    in
    let* () = unlock_all p in
    P.return V.unit

  (** Commit record written before the log entries: recovery can replay
      stale slots as if they were this transaction. *)
  let txn_record_first p entries =
    (Spec.call "kv_txn" [ value_of_entries entries ],
     commit_via Txn_log.Buggy.commit_record_first p [ entries ])

  (** In-place multi-key update without the journal: a crash mid-apply
      tears the transaction. *)
  let txn_no_log p entries =
    (Spec.call "kv_txn" [ value_of_entries entries ],
     commit_via Txn_log.Buggy.commit_no_log p [ entries ])

  (** Recovery that ignores the commit record. *)
  let recover_nop : (world, V.t) P.t = P.return V.unit

  (** Fault-handling bug #3 at the store level — error swallowed after a
      partial apply ({!Txn_log.Buggy.commit_ft_swallow_apply}): the put
      reports success while the key's data block was never written and the
      commit record is already cleared.  The next get of the key reads the
      stale block — fault budget 1, no crash needed. *)
  let put_ft_swallow_apply p k v : (world, V.t) P.t =
    let* () = lock_all p in
    let* mv = P.read ~fp:(Sched.Footprint.const (Sched.Footprint.reads [ Sched.Footprint.cell "buffer" ])) "buffer_merge" (fun w -> value_of_entries (merge (w.buffer @ [ [ (k, Block.of_value v) ] ]))) in
    let* r =
      match entries_of_value mv with
      | [] -> P.return V.unit
      | entries ->
        let* r = Txn_log.Buggy.commit_ft_swallow_apply ~get_disk ~set_disk (layout p) entries in
        let* () = P.write ~fp:(Sched.Footprint.const (Sched.Footprint.writes [ Sched.Footprint.cell "buffer" ])) "buffer_clear" (fun w -> { w with buffer = [] }) in
        P.return r
    in
    let* () = unlock_all p in
    P.return r

  let put_ft_call_swallow_apply p k v =
    (Spec.call "kv_put_ft" [ V.int k; v ], put_ft_swallow_apply p k v)
end
