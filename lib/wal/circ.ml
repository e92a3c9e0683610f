(** The circular log: a fixed on-disk ring of (address, block) records plus
    one counted header block — the bottom layer of the write-ahead log, the
    OCaml rendering of the structure [circ_proof_crash.v] proves.

    Disk layout for [{ base; cap }]:
    - block  [base]:         the header: ["start,end,txns"] (decimal)
    - blocks [base+1 ..]:    [cap] record slots, 2 blocks each:
                             record address, then record value

    Positions are monotonically increasing integers; a position [p] lives in
    slot [p mod cap].  The live window is [[start, end)]; [end - start <=
    cap] is the caller's obligation (checked by the spec).  [txns] counts
    the transactions ever logged — the durable half of the WAL's txn-id
    counter, which is how [Wal.flush] decides whether an id is durable.

    The protocol is two-phase and the header is the only commit point:

    1. write the new records into free slots past [end] (any order, any
       tearing — they are dead until the header says otherwise);
    2. install the header with ONE atomic write advancing [end] (append)
       or [start] (trim).

    A crash anywhere therefore exposes exactly a prefix of the installed
    header writes: the abstract ring state is always the last header to
    hit the disk, and the spec's crash transition is [ret ()].

    Like {!Journal.Txn_log}, the protocol is parameterized over the world
    — reads over its disk lens, writes over its disk ops, plain or
    fallible ({!Disk.Single_disk.ops}) — so larger systems (the [Wal]
    layer, the journal's WAL backend) can drive a ring embedded in their
    own disk.  A standalone single-lock system with its own spec, checker
    configuration and a seeded bug lives below. *)

module V = Tslang.Value
module T = Tslang.Transition
module Spec = Tslang.Spec
module P = Sched.Prog
module Block = Disk.Block

type layout = { base : int; cap : int }

let layout ~base ~cap =
  if base < 0 || cap <= 0 then invalid_arg "Circ.layout";
  { base; cap }

let hdr_addr ly = ly.base
let slot_addr ly pos = ly.base + 1 + (2 * (pos mod ly.cap))
let slot_val ly pos = ly.base + 2 + (2 * (pos mod ly.cap))
let region_size ly = 1 + (2 * ly.cap)
let free_space ly ~start ~end_ = ly.cap - (end_ - start)

(** Addresses and counts are decimal strings, as in {!Journal.Txn_log}. *)
let int_block n = Block.of_string (string_of_int n)

let block_int b = match int_of_string_opt (Block.to_string b) with Some n -> n | None -> 0

(** ["start,end,txns"].  [Block.zero] is ["0"] — not three fields — so a
    fresh disk parses as the empty ring [(0, 0, 0)], and so does any
    corrupt header. *)
let header_block ~start ~end_ ~txns =
  Block.of_string (Printf.sprintf "%d,%d,%d" start end_ txns)

let parse_header b =
  match String.split_on_char ',' (Block.to_string b) with
  | [ s; e; t ] -> (
    match (int_of_string_opt s, int_of_string_opt e, int_of_string_opt t) with
    | Some s, Some e, Some t -> (s, e, t)
    | _ -> (0, 0, 0))
  | _ -> (0, 0, 0)

(* A record list as a spec-level value and back. *)
let value_of_records records =
  V.list (List.map (fun (a, b) -> V.pair (V.int a) (Block.to_value b)) records)

let records_of_value v =
  List.map
    (fun e ->
      let a, b = V.get_pair e in
      (V.get_int a, Block.of_value b))
    (V.get_list v)

(* ------------------------------------------------------------------ *)
(* The ring protocol, over any world with a disk lens                    *)
(* ------------------------------------------------------------------ *)

open P.Syntax

let read_header ~get_disk ly : ('w, int * int * int) P.t =
  let* v = Disk.Single_disk.read ~get_disk (hdr_addr ly) in
  P.return (parse_header (Block.of_value v))

(** Write [records] into the slots for positions [pos, pos + len), through
    [d]'s multi-block write: the plain one writes slot by slot, the
    fallible one is ONE step a [Torn_write] can tear — harmless before the
    header install, and idempotent to retry.  Dead until a header install
    advances [end] over them. *)
let write_records (d : 'w Disk.Single_disk.ops) ly ~pos records : ('w, V.t) P.t =
  d.write_multi
    (List.concat
       (List.mapi
          (fun i (a, b) -> [ (slot_addr ly (pos + i), int_block a); (slot_val ly (pos + i), b) ])
          records))

(** The atomic commit point: one header write. *)
let install_header (d : 'w Disk.Single_disk.ops) ly ~start ~end_ ~txns : ('w, V.t) P.t =
  d.write (hdr_addr ly) (header_block ~start ~end_ ~txns)

let read_record ~get_disk ly pos : ('w, int * Block.t) P.t =
  let dr a = Disk.Single_disk.read ~get_disk a in
  let* a = dr (slot_addr ly pos) in
  let* b = dr (slot_val ly pos) in
  P.return (block_int (Block.of_value a), Block.of_value b)

(* ------------------------------------------------------------------ *)
(* Specification: an atomic ring of records                              *)
(* ------------------------------------------------------------------ *)

type state = { s_start : int; s_end : int; s_recs : (int * Block.t) list }
(** [s_recs] are the live records, positions [s_start .. s_end), oldest
    first. *)

let pp_record ppf (a, b) = Fmt.pf ppf "%d:%a" a Block.pp b

let pp_state ppf st =
  Fmt.pf ppf "ring[%d,%d){%a}" st.s_start st.s_end
    (Fmt.list ~sep:Fmt.comma pp_record)
    st.s_recs

let compare_record (a1, b1) (a2, b2) =
  let c = Int.compare a1 a2 in
  if c <> 0 then c else Block.compare b1 b2

let compare_state x y =
  let c = Int.compare x.s_start y.s_start in
  if c <> 0 then c
  else
    let c = Int.compare x.s_end y.s_end in
    if c <> 0 then c else List.compare compare_record x.s_recs y.s_recs

let rec drop n xs = if n <= 0 then xs else match xs with [] -> [] | _ :: tl -> drop (n - 1) tl

let spec ly : state Spec.t =
  let open T.Syntax in
  {
    Spec.name = "circ-log";
    init = { s_start = 0; s_end = 0; s_recs = [] };
    compare_state;
    pp_state;
    step =
      (fun op args ->
        match (op, args) with
        | "c_append", [ v ] ->
          let records = records_of_value v in
          let k = List.length records in
          let* st = T.reads in
          (* overflowing the ring is a caller bug: the protocol would
             overwrite live slots *)
          let* () = T.check (k <= free_space ly ~start:st.s_start ~end_:st.s_end) in
          let* () =
            T.modify (fun st -> { st with s_end = st.s_end + k; s_recs = st.s_recs @ records })
          in
          T.ret V.unit
        | "c_trim", [ n ] ->
          let n = V.get_int n in
          let* st = T.reads in
          let* () = T.check (st.s_start <= n && n <= st.s_end) in
          let* () =
            T.modify (fun st -> { st with s_start = n; s_recs = drop (n - st.s_start) st.s_recs })
          in
          T.ret V.unit
        | "c_snapshot", [] ->
          let* st = T.reads in
          T.ret (V.pair (V.pair (V.int st.s_start) (V.int st.s_end)) (value_of_records st.s_recs))
        | _ -> invalid_arg "circ-log spec: unknown op");
    (* the header is the single commit point: installed appends/trims are
       durable, in-flight ones simply happened or not *)
    crash = T.ret ();
  }

(* ------------------------------------------------------------------ *)
(* Standalone world and implementation (single lock, ring at base 0)     *)
(* ------------------------------------------------------------------ *)

type world = { disk : Disk.Single_disk.t; locks : Disk.Locks.t }

let init_world ly = { disk = Disk.Single_disk.init (ly.base + region_size ly); locks = Disk.Locks.empty }
let crash_world w = { w with locks = Disk.Locks.empty }

let pp_world ppf w = Fmt.pf ppf "%a %a" Disk.Single_disk.pp w.disk Disk.Locks.pp w.locks

let get_disk w = w.disk
let set_disk w disk = { w with disk }
let get_locks w = w.locks
let set_locks w locks = { w with locks }

let the_lock = 0
let lock () = Disk.Locks.acquire ~get:get_locks ~set:set_locks the_lock
let unlock () = Disk.Locks.release ~get:get_locks ~set:set_locks the_lock
let disk = Disk.Single_disk.plain ~get_disk ~set_disk

let append_prog ly records : (world, V.t) P.t =
  let* () = lock () in
  let* s, e, t = read_header ~get_disk ly in
  let* _ = write_records disk ly ~pos:e records in
  let* _ = install_header disk ly ~start:s ~end_:(e + List.length records) ~txns:(t + 1) in
  let* () = unlock () in
  P.return V.unit

let trim_prog ly n : (world, V.t) P.t =
  let* () = lock () in
  let* _, e, t = read_header ~get_disk ly in
  let* _ = install_header disk ly ~start:n ~end_:e ~txns:t in
  let* () = unlock () in
  P.return V.unit

let snapshot_prog ly : (world, V.t) P.t =
  let* () = lock () in
  let* s, e, _ = read_header ~get_disk ly in
  let rec scan pos acc =
    if pos >= e then P.return (List.rev acc)
    else
      let* r = read_record ~get_disk ly pos in
      scan (pos + 1) (r :: acc)
  in
  let* recs = scan s [] in
  let* () = unlock () in
  P.return (V.pair (V.pair (V.int s) (V.int e)) (value_of_records recs))

let append_call ly records = (Spec.call "c_append" [ value_of_records records ], append_prog ly records)
let trim_call ly n = (Spec.call "c_trim" [ V.int n ], trim_prog ly n)
let snapshot_call ly = (Spec.call "c_snapshot" [], snapshot_prog ly)

(** The ring needs no recovery: the header is always consistent. *)
let recover : (world, V.t) P.t = P.return V.unit

let checker_config ly ?(max_crashes = 1) ?(fault_budget = 0) threads :
    (world, state) Perennial_core.Refinement.config =
  Perennial_core.Refinement.config ~spec:(spec ly) ~init_world:(init_world ly) ~crash_world
    ~pp_world ~threads ~recovery:recover
    ~post:[ snapshot_call ly ]
    ~max_crashes ~fault_budget ()

(* ------------------------------------------------------------------ *)
(* Seeded bug                                                            *)
(* ------------------------------------------------------------------ *)

module Buggy = struct
  (** Install the header BEFORE the record slots are written: a crash in
      between makes the ring expose whatever the slots previously held. *)
  let append_header_first ly records : (world, V.t) P.t =
    let* () = lock () in
    let* s, e, t = read_header ~get_disk ly in
    let* _ = install_header disk ly ~start:s ~end_:(e + List.length records) ~txns:(t + 1) in
    let* _ = write_records disk ly ~pos:e records in
    let* () = unlock () in
    P.return V.unit

  let append_call_header_first ly records =
    (Spec.call "c_append" [ value_of_records records ], append_header_first ly records)
end
