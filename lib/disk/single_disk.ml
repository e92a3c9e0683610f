(** Single-disk semantics (Table 3): one durable array of blocks with atomic
    per-block reads and writes.  The substrate under the shadow-copy,
    write-ahead-log and group-commit examples. *)

module V = Tslang.Value
module IMap = Map.Make (Int)

type t = { size : int; blocks : Block.t IMap.t }
(** [blocks] maps addresses with non-[zero] content; absent = [Block.zero].
    A persistent map keeps worlds cheap to snapshot during model checking. *)

let init size = { size; blocks = IMap.empty }
let size t = t.size
let in_bounds t a = a >= 0 && a < t.size

let get t a =
  if not (in_bounds t a) then invalid_arg "Single_disk.get: out of bounds";
  match IMap.find_opt a t.blocks with Some b -> b | None -> Block.zero

let set t a b =
  if not (in_bounds t a) then invalid_arg "Single_disk.set: out of bounds";
  if Block.equal b Block.zero then { t with blocks = IMap.remove a t.blocks }
  else { t with blocks = IMap.add a b t.blocks }

let equal a b = a.size = b.size && IMap.equal Block.equal a.blocks b.blocks

let compare a b =
  let c = Int.compare a.size b.size in
  if c <> 0 then c else IMap.compare Block.compare a.blocks b.blocks

let pp ppf t =
  let binding ppf (a, b) = Fmt.pf ppf "%d:%a" a Block.pp b in
  Fmt.pf ppf "disk[%d]{%a}" t.size
    (Fmt.list ~sep:Fmt.comma binding)
    (IMap.bindings t.blocks)

(** Disk contents survive crashes unchanged. *)
let crash t = t

(* Program-level operations, lens-composed into a larger world.  Each
   plain op and its fallible form share one body: [name] is the label
   stem (also used in the undefined-behaviour message) and [fault] the
   transient fault the fallible form declares.  A fallible op returns
   {!Sched.Fault.eio} when its fault fires ([Fault.is_eio] tells it from
   a block, which is always a [Str]), with nothing persisted for a failed
   write. *)

module P = Sched.Prog
module Fp = Sched.Footprint
module Fault = Sched.Fault

let eio k = Fault.eio (Fault.Eio k)

(* One atomic access to block [a] in its "disk" span; [act w d] is the
   outcome when [a] is in bounds. *)
let access ?fault name ~fp ~get_disk a act : ('w, V.t) P.t =
  let label = Printf.sprintf "%s(%d)" name a in
  P.span ~cat:"disk" label
  @@ P.atomic ~fp:(Fp.const fp)
       ?faults:
         (Option.map
            (fun k w -> if in_bounds (get_disk w) a then [ (k, w, eio k) ] else [])
            fault)
       label
       (fun w ->
         let d = get_disk w in
         if in_bounds d a then P.Steps [ act w d ]
         else P.Ub (Printf.sprintf "%s out of bounds: %d" name a))

let read_op ?fault name ~get_disk a =
  access ?fault name ~fp:(Fp.reads [ Fp.disk a ]) ~get_disk a (fun w d ->
      (w, Block.to_value (get d a)))

let write_op ?fault name ~get_disk ~set_disk a b =
  access ?fault name ~fp:(Fp.writes [ Fp.disk a ]) ~get_disk a (fun w d ->
      (set_disk w (set d a b), V.unit))

let read ~get_disk a = read_op "disk_read" ~get_disk a
let write ~get_disk ~set_disk a b = P.map ignore (write_op "disk_write" ~get_disk ~set_disk a b)

(* A fallible multi-block write is atomic on success, but a [Torn_write k]
   fault persists only the first [k] entries (in list order).  Crashing
   after a torn write is therefore indistinguishable from crashing
   between the [k]-th and [k+1]-th of a sequence of single-block writes —
   tearing adds no new crash states, only new *surviving* states where
   the caller observes the error and keeps running. *)
let write_multi_f ~get_disk ~set_disk entries : ('w, V.t) P.t =
  let n = List.length entries in
  let label =
    Printf.sprintf "disk_write_multi(%s)"
      (String.concat "," (List.map (fun (a, _) -> string_of_int a) entries))
  in
  let prefix k = List.filteri (fun i _ -> i < k) entries in
  let persist w k =
    set_disk w (List.fold_left (fun d (a, b) -> set d a b) (get_disk w) (prefix k))
  in
  let ok w = List.for_all (fun (a, _) -> in_bounds (get_disk w) a) entries in
  P.span ~cat:"disk" label
  @@ P.atomic
       ~fp:(Fp.const (Fp.writes (List.map (fun (a, _) -> Fp.disk a) entries)))
       ~faults:(fun w ->
         if not (ok w) then []
         else
           (Fault.Write_error, w, eio Fault.Write_error)
           :: List.init (max 0 (n - 1)) (fun i ->
                  let k = i + 1 in
                  (Fault.Torn_write k, persist w k, eio (Fault.Torn_write k))))
       label
       (fun w ->
         if ok w then P.Steps [ (persist w n, V.unit) ]
         else P.Ub (label ^ ": out of bounds"))

type 'w ops = {
  fallible : bool;
  get_disk : 'w -> t;
  read : int -> ('w, V.t) P.t;
  write : int -> Block.t -> ('w, V.t) P.t;
  write_multi : (int * Block.t) list -> ('w, V.t) P.t;
}

let plain ~get_disk ~set_disk =
  let write a b = write_op "disk_write" ~get_disk ~set_disk a b in
  let rec write_multi = function
    | [] -> P.return V.unit
    | (a, b) :: rest -> P.bind (write a b) (fun _ -> write_multi rest)
  in
  { fallible = false; get_disk; read = read_op "disk_read" ~get_disk; write; write_multi }

let fallible ~get_disk ~set_disk =
  {
    fallible = true;
    get_disk;
    read = read_op ~fault:Fault.Read_error "disk_read_f" ~get_disk;
    write = write_op ~fault:Fault.Write_error "disk_write_f" ~get_disk ~set_disk;
    write_multi = write_multi_f ~get_disk ~set_disk;
  }
