(** The cost model mapping journaled-KVS requests onto simulator actions.

    Constants are microseconds, in the same regime as {!Mail_model} (the
    disk is a tmpfs-like device with a short serialized kernel-side slice
    per I/O).  The interesting outputs are qualitative:

    - {!Global_lock} flattens almost immediately (every request holds the
      one lock across its I/O);
    - {!Per_key} scales on the read side but durable puts still quiesce
      the whole store, so a 25%-put mix caps it;
    - {!Group_commit} acknowledges puts from the buffer and amortizes the
      journal protocol (3E+2 writes for E entries) over a whole batch, so
      it dominates — the throughput counterpart of the loss window the
      KVS spec has to admit. *)

type variant = Global_lock | Per_key | Group_commit

let variant_name = function
  | Global_lock -> "kvs-global-lock"
  | Per_key -> "kvs-per-key"
  | Group_commit -> "kvs-group-commit"

type request = Get of int | Put of int | Txn of int list

(* The device: per-key data stripes (multi-queue, parallel across keys)
   plus one serialized log region — the journal's commit record and slots
   live there, so commits contend on it no matter the lock discipline. *)
let log_region = "log"

let stripe k = "disk" ^ string_of_int k

(* --- cost constants (μs) --- *)

let proto_cpu = 2.5 (* request parse + reply marshal *)
let lock_cpu = 0.05 (* in-memory mutex *)
let write_cpu = 0.8
let write_serial = 1.2
let read_cpu = 0.5
let read_serial = 0.6
let buffer_cpu = 0.2 (* volatile buffer append *)

let log_write = [ Sim.Cpu write_cpu; Sim.Serial (log_region, write_serial) ]
let apply_write k = [ Sim.Cpu write_cpu; Sim.Serial (stripe k, write_serial) ]
let disk_read k = [ Sim.Cpu read_cpu; Sim.Serial (stripe k, read_serial) ]

let lock l = [ Sim.Cpu lock_cpu; Sim.Lock l ]
let unlock l = [ Sim.Cpu lock_cpu; Sim.Unlock l ]

(* Key locks ascending, then the commit lock — Kvs's global order. *)
let commit_lock n_keys = n_keys

let lock_all n_keys = List.concat (List.init (n_keys + 1) lock)
let unlock_all n_keys = List.concat (List.init (n_keys + 1) (fun i -> unlock (n_keys - i)))

(* The journal commit protocol for entries touching [ks]: two slot writes
   per entry plus the record and the clear in the log region, then one
   apply per entry on its key's stripe. *)
let journal_commit ks =
  List.concat (List.init ((2 * List.length ks) + 2) (fun _ -> log_write))
  @ List.concat_map apply_write ks

let proto = [ Sim.Cpu proto_cpu ]

let compile ~variant ~n_keys ?(batch = 8) (reqs : request list) : Sim.action list array =
  let g = commit_lock n_keys in
  let buffered = ref [] in
  let compile_one = function
    | Get k -> (
      match variant with
      | Global_lock -> proto @ lock g @ disk_read k @ unlock g
      | Per_key | Group_commit -> proto @ lock k @ disk_read k @ unlock k)
    | Put k -> (
      match variant with
      | Global_lock -> proto @ lock g @ journal_commit [ k ] @ unlock g
      | Per_key -> proto @ lock_all n_keys @ journal_commit [ k ] @ unlock_all n_keys
      | Group_commit ->
        buffered := k :: !buffered;
        if List.length !buffered < batch then
          proto @ lock g @ [ Sim.Cpu buffer_cpu ] @ unlock g
        else begin
          (* this put triggers the merged flush of the whole batch *)
          let ks = List.sort_uniq Int.compare !buffered in
          buffered := [];
          proto @ lock_all n_keys @ journal_commit ks @ unlock_all n_keys
        end)
    | Txn ks -> (
      match variant with
      | Global_lock -> proto @ lock g @ journal_commit ks @ unlock g
      | Per_key | Group_commit ->
        proto @ lock_all n_keys @ journal_commit ks @ unlock_all n_keys)
  in
  Array.of_list (List.map compile_one reqs)

(* --- workload generation --- *)

let generate ~seed ~n_keys ~n : request list =
  let st = Random.State.make [| seed |] in
  let key () = Random.State.int st n_keys in
  List.init n (fun _ ->
      let r = Random.State.int st 100 in
      if r < 70 then Get (key ())
      else if r < 95 then Put (key ())
      else
        let a = key () in
        let b = key () in
        Txn (if a = b then [ a ] else [ a; b ]))

(* --- the core-count sweep --- *)

let sweep ?(requests = 20_000) () =
  let n_keys = 16 in
  let reqs = generate ~seed:7 ~n_keys ~n:requests in
  Sim.sweep
    (List.map
       (fun variant -> (variant, compile ~variant ~n_keys reqs))
       [ Global_lock; Per_key; Group_commit ])
