(** The cost model mapping journaled-KVS requests onto simulator actions —
    the evaluation-harness workload for {!Journal.Kvs} (the `kvs` bench
    section).

    Three locking/commit disciplines are compared:
    - {!Global_lock}: every operation serializes on one lock (the
      standalone {!Journal.Txn_log} discipline);
    - {!Per_key}: gets take only their key's lock; durable commits quiesce
      the store (all key locks + commit lock) — {!Journal.Kvs.put_prog};
    - {!Group_commit}: puts are acknowledged from the volatile buffer and
      made durable in batched journal transactions —
      {!Journal.Kvs.put_async_prog} + flush. *)

type variant = Global_lock | Per_key | Group_commit

val variant_name : variant -> string

type request = Get of int | Put of int | Txn of int list  (** keys touched *)

val generate : seed:int -> n_keys:int -> n:int -> request list
(** A deterministic read-mostly mix (~70% get, ~25% put, ~5% multi-key
    txn). *)

val compile :
  variant:variant -> n_keys:int -> ?batch:int -> request list -> Sim.action list array
(** Expand requests into per-request action lists.  Under {!Group_commit},
    every [batch]-th buffered put pays for the merged flush transaction. *)

val sweep : ?requests:int -> unit -> variant Sim.series list
(** Throughput of the three disciplines as the core count varies, on a
    16-key store. *)
