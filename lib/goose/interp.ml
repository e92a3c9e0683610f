(** The Goose semantics: an interpreter from the Go-subset AST into
    atomic-step programs (the "Perennial model" of the code, §6).

    Every heap, lock and file-system access is one atomic step of the
    resulting {!Sched.Prog.t}; pure local computation costs no steps.  In
    race-detection mode (the default, matching the paper), a heap store is
    *two* atomic steps — a start and an end — and any concurrent access to
    the same cell in between is undefined behaviour, which is exactly how
    Goose makes racy Go programs unverifiable (§6.1).

    The world carries the Go heap, the modeled file system and a lock map;
    a crash clears heap and locks and drops file descriptors (§6.2). *)

module V = Tslang.Value
module P = Sched.Prog
module G = Gvalue
module IMap = Map.Make (Int)
module SMap = Map.Make (String)
open P.Syntax

type heap_cell = { content : G.cell; being_written : bool }

type world = {
  heap : heap_cell IMap.t;
  next_ref : int;
  fs : Gfs.Fs.t;
  disk : Disk.Single_disk.t;
  tdisk : Disk.Two_disk.t;
  locks : Disk.Locks.t;
}

let init_world ?(dirs = []) ?(disk_size = 0) ?(tdisk_size = 0) ?(may_fail = false) () =
  {
    heap = IMap.empty;
    next_ref = 0;
    fs = Gfs.Fs.init dirs;
    disk = Disk.Single_disk.init disk_size;
    tdisk = Disk.Two_disk.init ~may_fail tdisk_size;
    locks = Disk.Locks.empty;
  }

(** Crash (§6.2): the heap and locks are volatile; files and disk blocks
    persist; file descriptors are lost. *)
let crash_world w =
  {
    heap = IMap.empty;
    next_ref = 0;
    fs = Gfs.Fs.crash w.fs;
    disk = Disk.Single_disk.crash w.disk;
    tdisk = Disk.Two_disk.crash w.tdisk;
    locks = Disk.Locks.empty;
  }

let compare_world a b =
  let c =
    IMap.compare
      (fun c1 c2 ->
        let c = G.compare_cell c1.content c2.content in
        if c <> 0 then c else Bool.compare c1.being_written c2.being_written)
      a.heap b.heap
  in
  if c <> 0 then c
  else
    let c = Int.compare a.next_ref b.next_ref in
    if c <> 0 then c
    else
      let c = Gfs.Fs.compare a.fs b.fs in
      if c <> 0 then c
      else
        let c = Disk.Single_disk.compare a.disk b.disk in
        if c <> 0 then c
        else
          let c = Disk.Two_disk.compare a.tdisk b.tdisk in
          if c <> 0 then c else Disk.Locks.compare a.locks b.locks

let pp_world ppf w =
  Fmt.pf ppf "heap{%a} %a %a"
    (Fmt.list ~sep:Fmt.comma (fun ppf (r, c) -> Fmt.pf ppf "%d:%a" r G.pp_cell c.content))
    (IMap.bindings w.heap) Gfs.Fs.pp w.fs Disk.Locks.pp w.locks

let pp_world ppf w =
  if Disk.Single_disk.size w.disk = 0 then pp_world ppf w
  else Fmt.pf ppf "%a %a" pp_world w Disk.Single_disk.pp w.disk

let get_fs w = w.fs
let set_fs w fs = { w with fs }
let get_locks w = w.locks
let set_locks w locks = { w with locks }

type config = {
  race_detect : bool;  (** model stores as two steps (§6.1) *)
  random_universe : int list;  (** the values RandomUint64 may produce *)
}

let default_config = { race_detect = true; random_universe = [ 0; 1 ] }

(** Static (pre-execution) errors: unsupported constructs, unknown
    identifiers.  Dynamic type confusion inside a run is reported as
    undefined behaviour instead. *)
exception Goose_error of string

let failf fmt = Fmt.kstr (fun s -> raise (Goose_error s)) fmt

(* ------------------------------------------------------------------ *)
(* Heap access as atomic steps                                          *)
(* ------------------------------------------------------------------ *)

let alloc cell : (world, G.t) P.t =
  P.det "alloc" (fun w ->
      let r = w.next_ref in
      let heap = IMap.add r { content = cell; being_written = false } w.heap in
      ({ w with heap; next_ref = r + 1 }, G.VRef r))

let read_cell r : (world, G.cell) P.t =
  P.atomic
    (Printf.sprintf "load(&%d)" r)
    (fun w ->
      match IMap.find_opt r w.heap with
      | None -> P.Ub (Printf.sprintf "load of dangling reference %d" r)
      | Some { being_written = true; _ } ->
        P.Ub (Printf.sprintf "racy load of reference %d during a store (§6.1)" r)
      | Some { content; _ } ->
        P.Steps [ (w, content) ])

(** Store: in race-detection mode this is two atomic steps with a marked
    write in between; any concurrent load or store of the same cell hits
    undefined behaviour. *)
let write_cell cfg r (f : G.cell -> (G.cell, string) result) : (world, unit) P.t =
  if cfg.race_detect then
    let* () =
      P.atomic
        (Printf.sprintf "store-start(&%d)" r)
        (fun w ->
          match IMap.find_opt r w.heap with
          | None -> P.Ub (Printf.sprintf "store to dangling reference %d" r)
          | Some { being_written = true; _ } ->
            P.Ub (Printf.sprintf "racy store to reference %d (§6.1)" r)
          | Some cell ->
            P.Steps [ ({ w with heap = IMap.add r { cell with being_written = true } w.heap }, ()) ])
    in
    P.atomic
      (Printf.sprintf "store-end(&%d)" r)
      (fun w ->
        match IMap.find_opt r w.heap with
        | Some { content; being_written = true } -> (
          match f content with
          | Ok content ->
            P.Steps
              [ ({ w with heap = IMap.add r { content; being_written = false } w.heap }, ()) ]
          | Error e -> P.Ub e)
        | Some { being_written = false; _ } | None ->
          P.Ub (Printf.sprintf "store to reference %d lost its write mark" r))
  else
    P.atomic
      (Printf.sprintf "store(&%d)" r)
      (fun w ->
        match IMap.find_opt r w.heap with
        | None -> P.Ub (Printf.sprintf "store to dangling reference %d" r)
        | Some { content; _ } -> (
          match f content with
          | Ok content ->
            P.Steps
              [ ({ w with heap = IMap.add r { content; being_written = false } w.heap }, ()) ]
          | Error e -> P.Ub e))

(* ------------------------------------------------------------------ *)
(* Environments                                                         *)
(* ------------------------------------------------------------------ *)

type env = G.t SMap.t

(* ------------------------------------------------------------------ *)
(* The interpreter                                                      *)
(* ------------------------------------------------------------------ *)

type outcome =
  | Next of env
  | Ret of G.t
  | Brk of env
  | Cont of env

(* Go scoping: a block's assignments to variables of the enclosing scope
   persist; its own declarations do not.  [merge_scope outer inner] keeps
   the outer domain with the inner values. *)
let merge_scope outer inner =
  SMap.mapi (fun x v -> match SMap.find_opt x inner with Some v' -> v' | None -> v) outer

let as_int = function G.VInt n -> n | v -> failf "expected uint64, got %a" G.pp v
let as_bool = function G.VBool b -> b | v -> failf "expected bool, got %a" G.pp v
let as_string = function G.VString s -> s | v -> failf "expected string, got %a" G.pp v
let as_ref = function G.VRef r -> r | v -> failf "expected reference, got %a" G.pp v

let eval_binop op a b =
  let module A = Ast in
  match op, a, b with
  | A.Add, G.VInt x, G.VInt y -> G.VInt (x + y)
  | A.Add, G.VString x, G.VString y -> G.VString (x ^ y)
  | A.Sub, G.VInt x, G.VInt y -> G.VInt (x - y)
  | A.Mul, G.VInt x, G.VInt y -> G.VInt (x * y)
  | A.Div, G.VInt x, G.VInt y ->
    if y = 0 then failf "division by zero" else G.VInt (x / y)
  | A.Mod, G.VInt x, G.VInt y ->
    if y = 0 then failf "modulo by zero" else G.VInt (x mod y)
  | A.Eq, x, y -> G.VBool (G.equal x y)
  | A.Ne, x, y -> G.VBool (not (G.equal x y))
  | A.Lt, G.VInt x, G.VInt y -> G.VBool (x < y)
  | A.Gt, G.VInt x, G.VInt y -> G.VBool (x > y)
  | A.Le, G.VInt x, G.VInt y -> G.VBool (x <= y)
  | A.Ge, G.VInt x, G.VInt y -> G.VBool (x >= y)
  | A.Lt, G.VString x, G.VString y -> G.VBool (String.compare x y < 0)
  | A.Gt, G.VString x, G.VString y -> G.VBool (String.compare x y > 0)
  | A.And, G.VBool x, G.VBool y -> G.VBool (x && y)
  | A.Or, G.VBool x, G.VBool y -> G.VBool (x || y)
  | _ -> failf "type error in binary operation %a" Ast.pp_binop op

type t = {
  file : Ast.file;
  cfg : config;
}

let make ?(cfg = default_config) file = { file; cfg }

let rec eval (it : t) (env : env) (e : Ast.expr) : (world, G.t) P.t =
  match e with
  | Ast.Int_lit n -> P.return (G.VInt n)
  | Ast.Bool_lit b -> P.return (G.VBool b)
  | Ast.Str_lit s -> P.return (G.VString s)
  | Ast.Ident x -> (
    match SMap.find_opt x env with
    | Some v -> P.return v
    | None -> (
      match List.assoc_opt x it.file.Ast.consts with
      | Some ce -> eval it env ce
      | None -> failf "unbound identifier %s" x))
  | Ast.Binop (Ast.And, a, b) ->
    (* short-circuit *)
    let* va = eval it env a in
    if as_bool va then eval it env b else P.return (G.VBool false)
  | Ast.Binop (Ast.Or, a, b) ->
    let* va = eval it env a in
    if as_bool va then P.return (G.VBool true) else eval it env b
  | Ast.Binop (op, a, b) ->
    let* va = eval it env a in
    let* vb = eval it env b in
    P.return (eval_binop op va vb)
  | Ast.Unop (Ast.Not, a) ->
    let* va = eval it env a in
    P.return (G.VBool (not (as_bool va)))
  | Ast.Unop (Ast.Neg, a) ->
    let* va = eval it env a in
    P.return (G.VInt (-as_int va))
  | Ast.Call (path, args) -> eval_call it env path args
  | Ast.Index (e1, e2) ->
    let* v1 = eval it env e1 in
    let* ix = eval it env e2 in
    (match v1 with
    | G.VRef r ->
      let* cell = read_cell r in
      (match cell, ix with
      | G.CSlice vs, G.VInt i ->
        if i < 0 || i >= List.length vs then P.ub "slice index out of range"
        else P.return (List.nth vs i)
      | G.CBytes s, G.VInt i ->
        if i < 0 || i >= String.length s then P.ub "byte-slice index out of range"
        else P.return (G.VInt (Char.code s.[i]))
      | G.CMap kvs, k -> (
        match List.assoc_opt k kvs with
        | Some v -> P.return v
        | None -> P.return (zero_of_map_range it))
      | _ -> failf "index on non-indexable value")
    | G.VString s ->
      let i = as_int ix in
      if i < 0 || i >= String.length s then P.ub "string index out of range"
      else P.return (G.VInt (Char.code s.[i]))
    | v -> failf "index on %a" G.pp v)
  | Ast.Map_lookup2 (me, ke) ->
    let* m = eval it env me in
    let* k = eval it env ke in
    let* cell = read_cell (as_ref m) in
    (match cell with
    | G.CMap kvs -> (
      match List.assoc_opt k kvs with
      | Some v -> P.return (G.VTuple [ v; G.VBool true ])
      | None -> P.return (G.VTuple [ zero_of_map_range it; G.VBool false ]))
    | _ -> failf "two-result lookup on non-map")
  | Ast.Field (e1, f) ->
    let* v1 = eval it env e1 in
    (match v1 with
    | G.VStruct fields -> (
      match List.assoc_opt f fields with
      | Some v -> P.return v
      | None -> failf "no field %s" f)
    | G.VRef r ->
      let* cell = read_cell r in
      (match cell with
      | G.CCell (G.VStruct fields) -> (
        match List.assoc_opt f fields with
        | Some v -> P.return v
        | None -> failf "no field %s" f)
      | _ -> failf "field access through non-struct pointer")
    | v -> failf "field access on %a" G.pp v)
  | Ast.Slice_lit (t, elems) ->
    let rec go acc = function
      | [] -> P.return (List.rev acc)
      | e :: rest ->
        let* v = eval it env e in
        go (v :: acc) rest
    in
    let* vs = go [] elems in
    (match t with
    | Ast.Tbyte ->
      let bytes = String.init (List.length vs) (fun i -> Char.chr (as_int (List.nth vs i) land 255)) in
      alloc (G.CBytes bytes)
    | _ -> alloc (G.CSlice vs))
  | Ast.Struct_lit (name, fields) ->
    let decl =
      match Ast.find_struct it.file name with
      | Some d -> d
      | None -> failf "unknown struct %s" name
    in
    let rec go acc = function
      | [] -> P.return (List.rev acc)
      | (f, e) :: rest ->
        let* v = eval it env e in
        go ((f, v) :: acc) rest
    in
    let* given = go [] fields in
    let all =
      List.map
        (fun (f, ft) ->
          match List.assoc_opt f given with
          | Some v -> (f, v)
          | None -> (f, zero_value it ft))
        decl.Ast.sfields
    in
    P.return (G.VStruct all)
  | Ast.Make_map (_, _) -> alloc (G.CMap [])
  | Ast.Make_slice (elt, n) ->
    let* vn = eval it env n in
    (match elt with
    | Ast.Tbyte -> alloc (G.CBytes (String.make (as_int vn) '\000'))
    | _ -> alloc (G.CSlice (List.init (as_int vn) (fun _ -> zero_value it elt))))
  | Ast.Len e1 ->
    let* v1 = eval it env e1 in
    (match v1 with
    | G.VString s -> P.return (G.VInt (String.length s))
    | G.VRef r ->
      let* cell = read_cell r in
      (match cell with
      | G.CSlice vs -> P.return (G.VInt (List.length vs))
      | G.CBytes s -> P.return (G.VInt (String.length s))
      | G.CMap kvs -> P.return (G.VInt (List.length kvs))
      | G.CCell _ -> failf "len of pointer")
    | v -> failf "len of %a" G.pp v)
  | Ast.Append (se, elems) ->
    let* sv = eval it env se in
    let r = as_ref sv in
    let rec go acc = function
      | [] -> P.return (List.rev acc)
      | e :: rest ->
        let* v = eval it env e in
        go (v :: acc) rest
    in
    let* vs = go [] elems in
    let* () =
      write_cell it.cfg r (fun cell ->
          match cell with
          | G.CSlice old -> Ok (G.CSlice (old @ vs))
          | G.CBytes old ->
            Ok
              (G.CBytes
                 (old
                 ^ String.init (List.length vs) (fun i ->
                       Char.chr (as_int (List.nth vs i) land 255))))
          | _ -> Error "append to non-slice")
    in
    P.return (G.VRef r)
  | Ast.Sub_slice (se, lo, hi) ->
    let* sv = eval it env se in
    let* vlo = match lo with Some e -> eval it env e | None -> P.return (G.VInt 0) in
    (match sv with
    | G.VString s ->
      let* vhi =
        match hi with Some e -> eval it env e | None -> P.return (G.VInt (String.length s))
      in
      let a = as_int vlo and b = as_int vhi in
      if a < 0 || b > String.length s || a > b then P.ub "string slice out of range"
      else P.return (G.VString (String.sub s a (b - a)))
    | G.VRef r ->
      let* cell = read_cell r in
      (match cell with
      | G.CBytes s ->
        let* vhi =
          match hi with
          | Some e -> eval it env e
          | None -> P.return (G.VInt (String.length s))
        in
        let a = as_int vlo and b = as_int vhi in
        if a < 0 || b > String.length s || a > b then P.ub "byte-slice slice out of range"
        else alloc (G.CBytes (String.sub s a (b - a)))
      | G.CSlice vs ->
        let* vhi =
          match hi with
          | Some e -> eval it env e
          | None -> P.return (G.VInt (List.length vs))
        in
        let a = as_int vlo and b = as_int vhi in
        if a < 0 || b > List.length vs || a > b then P.ub "slice out of range"
        else alloc (G.CSlice (List.filteri (fun i _ -> i >= a && i < b) vs))
      | _ -> failf "slice of non-slice")
    | v -> failf "slice of %a" G.pp v)
  | Ast.Addr_of e1 ->
    let* v1 = eval it env e1 in
    alloc (G.CCell v1)
  | Ast.Deref e1 ->
    let* v1 = eval it env e1 in
    let* cell = read_cell (as_ref v1) in
    (match cell with
    | G.CCell v -> P.return v
    | _ -> failf "dereference of non-pointer cell")
  | Ast.Conv (t, e1) ->
    let* v1 = eval it env e1 in
    (match t, v1 with
    | Ast.Tstring, G.VString s -> P.return (G.VString s)
    | Ast.Tstring, G.VRef r ->
      let* cell = read_cell r in
      (match cell with
      | G.CBytes s -> P.return (G.VString s)
      | _ -> failf "string(...) of non-bytes")
    | Ast.Tslice Ast.Tbyte, G.VString s -> alloc (G.CBytes s)
    | Ast.Tuint64, G.VInt n -> P.return (G.VInt n)
    | Ast.Tbyte, G.VInt n -> P.return (G.VInt (n land 255))
    | _ -> failf "unsupported conversion to %a" Ast.pp_typ t)

and zero_value it = function
  | Ast.Tuint64 | Ast.Tbyte -> G.VInt 0
  | Ast.Tbool -> G.VBool false
  | Ast.Tstring -> G.VString ""
  | Ast.Tnamed name -> (
    match Ast.find_struct it.file name with
    | Some d -> G.VStruct (List.map (fun (f, ft) -> (f, zero_value it ft)) d.Ast.sfields)
    | None -> failf "unknown type %s" name)
  | Ast.Tslice _ | Ast.Tmap _ | Ast.Tptr _ -> G.VUnit (* nil; unusable until assigned *)
  | Ast.Tunit -> G.VUnit
  | Ast.Ttuple _ -> G.VUnit

and zero_of_map_range _it = G.VInt 0
(* a simplification: map lookups of absent keys return the uint64 zero
   value; Goose code in this repository only uses uint64/string ranges
   where absent lookups are guarded by the ok flag *)

(* --- calls --- *)

and eval_args it env args =
  let rec go acc = function
    | [] -> P.return (List.rev acc)
    | e :: rest ->
      let* v = eval it env e in
      go (v :: acc) rest
  in
  go [] args

and eval_call it env path args : (world, G.t) P.t =
  let* vs = eval_args it env args in
  match path with
  | [ "filesys"; fn ] -> filesys_call fn vs
  | [ "disk"; fn ] -> disk_call fn vs
  | [ "twodisk"; fn ] -> twodisk_call fn vs
  | [ "machine"; "RandomUint64" ] ->
    P.atomic "RandomUint64" (fun w ->
        P.Steps (List.map (fun n -> (w, G.VInt n)) it.cfg.random_universe))
  | [ "machine"; "UInt64ToString" ] -> (
    match vs with
    | [ G.VInt n ] -> P.return (G.VString (string_of_int n))
    | _ -> failf "UInt64ToString expects one uint64")
  | [ "sync"; "Lock" ] -> (
    match vs with
    | [ G.VInt id ] ->
      let* () = Disk.Locks.acquire ~get:get_locks ~set:set_locks id in
      P.return G.VUnit
    | _ -> failf "sync.Lock expects a lock id")
  | [ "sync"; "Unlock" ] -> (
    match vs with
    | [ G.VInt id ] ->
      let* () = Disk.Locks.release ~get:get_locks ~set:set_locks id in
      P.return G.VUnit
    | _ -> failf "sync.Unlock expects a lock id")
  | [ name ] -> (
    match Ast.find_func it.file name with
    | Some f -> call_func it f vs
    | None -> failf "unknown function %s" name)
  | _ -> failf "unknown package function %s" (String.concat "." path)

and disk_call fn vs : (world, G.t) P.t =
  match fn, vs with
  | "Read", [ G.VInt a ] ->
    let* b =
      P.atomic
        (Printf.sprintf "disk.Read(%d)" a)
        (fun w ->
          if Disk.Single_disk.in_bounds w.disk a then
            P.Steps [ (w, Disk.Block.to_string (Disk.Single_disk.get w.disk a)) ]
          else P.Ub (Printf.sprintf "disk.Read out of bounds: %d" a))
    in
    alloc (G.CBytes b)
  | "Write", [ G.VInt a; data ] ->
    let* bytes =
      match data with
      | G.VString s -> P.return s
      | G.VRef r ->
        let* cell = read_cell r in
        (match cell with
        | G.CBytes s -> P.return s
        | _ -> failf "disk.Write expects bytes")
      | v -> failf "disk.Write expects bytes, got %a" G.pp v
    in
    let* _ =
      P.atomic
        (Printf.sprintf "disk.Write(%d)" a)
        (fun w ->
          if Disk.Single_disk.in_bounds w.disk a then
            P.Steps
              [ ({ w with disk = Disk.Single_disk.set w.disk a (Disk.Block.of_string bytes) },
                 ()) ]
          else P.Ub (Printf.sprintf "disk.Write out of bounds: %d" a))
    in
    P.return G.VUnit
  | "Size", [] -> P.read "disk.Size" (fun w -> G.VInt (Disk.Single_disk.size w.disk))
  | _ -> failf "unknown disk.%s/%d" fn (List.length vs)

and twodisk_call fn vs : (world, G.t) P.t =
  let get w = w.tdisk in
  let set w tdisk = { w with tdisk } in
  let disk_of = function
    | 1 -> Disk.Two_disk.D1
    | 2 -> Disk.Two_disk.D2
    | n -> failf "twodisk: disk id must be 1 or 2, got %d" n
  in
  match fn, vs with
  | "Read", [ G.VInt d; G.VInt a ] ->
    let* r = Disk.Two_disk.read ~get ~set (disk_of d) a in
    (match V.get_opt r with
    | Some b ->
      let* bytes = alloc (G.CBytes (V.get_str b)) in
      P.return (G.VTuple [ bytes; G.VBool true ])
    | None ->
      let* bytes = alloc (G.CBytes "") in
      P.return (G.VTuple [ bytes; G.VBool false ]))
  | "Write", [ G.VInt d; G.VInt a; data ] ->
    let* bytes =
      match data with
      | G.VString s -> P.return s
      | G.VRef r ->
        let* cell = read_cell r in
        (match cell with
        | G.CBytes s -> P.return s
        | _ -> failf "twodisk.Write expects bytes")
      | v -> failf "twodisk.Write expects bytes, got %a" G.pp v
    in
    let* () = Disk.Two_disk.write ~get ~set (disk_of d) a (Disk.Block.of_string bytes) in
    P.return G.VUnit
  | "Size", [] -> P.read "twodisk.Size" (fun w -> G.VInt (Disk.Two_disk.size w.tdisk))
  | _ -> failf "unknown twodisk.%s/%d" fn (List.length vs)

and filesys_call fn vs : (world, G.t) P.t =
  let str = as_string and int = as_int in
  match fn, vs with
  | "Create", [ d; n ] ->
    let* r = Gfs.Ops.create ~get:get_fs ~set:set_fs (str d) (str n) in
    let fd, ok = V.get_pair r in
    P.return (G.VTuple [ G.VInt (V.get_int fd); G.VBool (V.get_bool ok) ])
  | "Open", [ d; n ] ->
    let* r = Gfs.Ops.open_read ~get:get_fs ~set:set_fs (str d) (str n) in
    let fd, ok = V.get_pair r in
    P.return (G.VTuple [ G.VInt (V.get_int fd); G.VBool (V.get_bool ok) ])
  | "Append", [ fd; data ] ->
    (* data is a []byte reference or a string *)
    let* bytes =
      match data with
      | G.VString s -> P.return s
      | G.VRef r ->
        let* cell = read_cell r in
        (match cell with
        | G.CBytes s -> P.return s
        | _ -> failf "filesys.Append expects bytes")
      | v -> failf "filesys.Append expects bytes, got %a" G.pp v
    in
    let* () = Gfs.Ops.append ~get:get_fs ~set:set_fs (int fd) bytes in
    P.return G.VUnit
  | "Close", [ fd ] ->
    let* () = Gfs.Ops.close ~get:get_fs ~set:set_fs (int fd) in
    P.return G.VUnit
  | "Fsync", [ fd ] ->
    let* () = Gfs.Ops.fsync ~get:get_fs ~set:set_fs (int fd) in
    P.return G.VUnit
  | "ReadAt", [ fd; off; len ] ->
    let* r = Gfs.Ops.read_at ~get:get_fs (int fd) (int off) (int len) in
    alloc (G.CBytes (V.get_str r))
  | "Size", [ fd ] ->
    let* r = Gfs.Ops.size ~get:get_fs (int fd) in
    P.return (G.VInt (V.get_int r))
  | "Link", [ d1; n1; d2; n2 ] ->
    let* r = Gfs.Ops.link ~get:get_fs ~set:set_fs ~src:(str d1, str n1) ~dst:(str d2, str n2) in
    P.return (G.VBool (V.get_bool r))
  | "Delete", [ d; n ] ->
    let* r = Gfs.Ops.delete ~get:get_fs ~set:set_fs (str d) (str n) in
    P.return (G.VBool (V.get_bool r))
  | "List", [ d ] ->
    let* r = Gfs.Ops.list_dir ~get:get_fs (str d) in
    alloc (G.CSlice (List.map (fun v -> G.VString (V.get_str v)) (V.get_list r)))
  | _ -> failf "unknown filesys.%s/%d" fn (List.length vs)

and call_func it (f : Ast.func_decl) (vs : G.t list) : (world, G.t) P.t =
  if List.length vs <> List.length f.Ast.params then
    failf "%s expects %d arguments" f.Ast.fname (List.length f.Ast.params);
  let env =
    List.fold_left2
      (fun env (p, _) v -> SMap.add p v env)
      SMap.empty f.Ast.params vs
  in
  let* out = exec_block it env f.Ast.body in
  match out with
  | Ret v -> P.return v
  | Next _ -> P.return G.VUnit
  | Brk _ | Cont _ -> failf "break/continue outside a loop in %s" f.Ast.fname

(* --- statements --- *)

and exec_block it env (b : Ast.block) : (world, outcome) P.t =
  match b with
  | [] -> P.return (Next env)
  | s :: rest ->
    let* out = exec_stmt it env s in
    (match out with
    | Next env' -> exec_block it env' rest
    | (Ret _ | Brk _ | Cont _) as o -> P.return o)

and exec_stmt it env (s : Ast.stmt) : (world, outcome) P.t =
  match s with
  | Ast.Define (names, e) ->
    let* v = eval it env e in
    (match names, v with
    | [ x ], v -> P.return (Next (SMap.add x v env))
    | xs, G.VTuple vs when List.length xs = List.length vs ->
      P.return (Next (List.fold_left2 (fun env x v -> if x = "_" then env else SMap.add x v env) env xs vs))
    | _ -> failf "arity mismatch in :=")
  | Ast.Var_decl (x, t, e) ->
    (match e with
    | Some e ->
      let* v = eval it env e in
      P.return (Next (SMap.add x v env))
    | None ->
      let t = match t with Some t -> t | None -> failf "var %s needs a type or initializer" x in
      P.return (Next (SMap.add x (zero_value it t) env)))
  | Ast.Assign (lvs, e) ->
    let* v = eval it env e in
    (match lvs, v with
    | [ lv ], v -> assign it env lv v
    | lvs, G.VTuple vs when List.length lvs = List.length vs ->
      let rec go env = function
        | [] -> P.return (Next env)
        | (lv, v) :: rest ->
          let* out = assign it env lv v in
          (match out with
          | Next env' -> go env' rest
          | o -> P.return o)
      in
      go env (List.combine lvs vs)
    | _ -> failf "arity mismatch in assignment")
  | Ast.Expr_stmt e ->
    let* _ = eval it env e in
    P.return (Next env)
  | Ast.If (c, then_, else_) ->
    let* vc = eval it env c in
    let* out = exec_block it env (if as_bool vc then then_ else else_) in
    (match out with
    | Next env' -> P.return (Next (merge_scope env env'))
    | Brk env' -> P.return (Brk (merge_scope env env'))
    | Cont env' -> P.return (Cont (merge_scope env env'))
    | Ret _ as o -> P.return o)
  | Ast.For (init, cond, post, body) ->
    let* env =
      match init with
      | None -> P.return env
      | Some s ->
        let* out = exec_stmt it env s in
        (match out with
        | Next env' -> P.return env'
        | _ -> failf "unexpected control flow in for-init")
    in
    let rec loop envl fuel =
      if fuel <= 0 then P.ub "loop fuel exhausted (possible infinite loop)"
      else
        let* continue_ =
          match cond with
          | None -> P.return true
          | Some c ->
            let* vc = eval it envl c in
            P.return (as_bool vc)
        in
        if not continue_ then P.return (Next envl)
        else
          let* out = exec_block it envl body in
          match out with
          | Ret v -> P.return (Ret v)
          | Brk env' -> P.return (Next (merge_scope envl env'))
          | Next env' | Cont env' -> (
            let envl = merge_scope envl env' in
            match post with
            | None -> loop envl (fuel - 1)
            | Some s ->
              let* out = exec_stmt it envl s in
              (match out with
              | Next env'' -> loop env'' (fuel - 1)
              | _ -> failf "unexpected control flow in for-post"))
    in
    let* out = loop env 100_000 in
    (match out with
    | Next env' -> P.return (Next (merge_scope env env'))
    | o -> P.return o)
  | Ast.For_range (kx, vx, e, body) ->
    let* v = eval it env e in
    let* items =
      match v with
      | G.VString s ->
        P.return (List.init (String.length s) (fun i -> (G.VInt i, G.VInt (Char.code s.[i]))))
      | G.VRef r ->
        let* cell = read_cell r in
        (match cell with
        | G.CSlice vs -> P.return (List.mapi (fun i x -> (G.VInt i, x)) vs)
        | G.CBytes s ->
          P.return (List.init (String.length s) (fun i -> (G.VInt i, G.VInt (Char.code s.[i]))))
        | G.CMap kvs -> P.return kvs
        | G.CCell _ -> failf "range over pointer")
      | v -> failf "range over %a" G.pp v
    in
    let rec loop envl = function
      | [] -> P.return (Next envl)
      | (k, x) :: rest ->
        let env' = SMap.add kx k envl in
        let env' = if vx = "_" then env' else SMap.add vx x env' in
        let* out = exec_block it env' body in
        (match out with
        | Ret v -> P.return (Ret v)
        | Brk env'' -> P.return (Next (merge_scope envl env''))
        | Next env'' | Cont env'' -> loop (merge_scope envl env'') rest)
    in
    let* out = loop env items in
    (match out with
    | Next env' -> P.return (Next (merge_scope env env'))
    | o -> P.return o)
  | Ast.Return [] -> P.return (Ret G.VUnit)
  | Ast.Return [ e ] ->
    let* v = eval it env e in
    P.return (Ret v)
  | Ast.Return es ->
    let* vs = eval_args it env es in
    P.return (Ret (G.VTuple vs))
  | Ast.Go_stmt _ ->
    failf "goroutines are spawned by the harness, not inside checked code"
  | Ast.Break -> P.return (Brk env)
  | Ast.Continue -> P.return (Cont env)
  | Ast.Block b ->
    let* out = exec_block it env b in
    (match out with
    | Next env' -> P.return (Next (merge_scope env env'))
    | Brk env' -> P.return (Brk (merge_scope env env'))
    | Cont env' -> P.return (Cont (merge_scope env env'))
    | Ret _ as o -> P.return o)

and assign it env lv v : (world, outcome) P.t =
  match lv with
  | Ast.Lwild -> P.return (Next env)
  | Ast.Lident x ->
    if SMap.mem x env then P.return (Next (SMap.add x v env))
    else failf "assignment to undeclared variable %s" x
  | Ast.Lindex (se, ie) ->
    let* sv = eval it env se in
    let* iv = eval it env ie in
    let r = as_ref sv in
    let* () =
      write_cell it.cfg r (fun cell ->
          match cell, iv with
          | G.CSlice vs, G.VInt i ->
            if i < 0 || i >= List.length vs then Error "slice store out of range"
            else Ok (G.CSlice (List.mapi (fun j x -> if j = i then v else x) vs))
          | G.CBytes s, G.VInt i ->
            if i < 0 || i >= String.length s then Error "byte store out of range"
            else
              Ok
                (G.CBytes
                   (String.mapi (fun j c -> if j = i then Char.chr (as_int v land 255) else c) s))
          | G.CMap kvs, k ->
            Ok (G.CMap (List.sort (fun (k1, _) (k2, _) -> G.compare k1 k2) ((k, v) :: List.remove_assoc k kvs)))
          | _ -> Error "indexed store on non-slice/map")
    in
    P.return (Next env)
  | Ast.Lfield (e, f) ->
    (* only struct-through-pointer assignment mutates shared state *)
    let* sv = eval it env e in
    (match sv with
    | G.VRef r ->
      let* () =
        write_cell it.cfg r (fun cell ->
            match cell with
            | G.CCell (G.VStruct fields) ->
              if List.mem_assoc f fields then
                Ok (G.CCell (G.VStruct (List.map (fun (g, x) -> if g = f then (g, v) else (g, x)) fields)))
              else Error ("no field " ^ f)
            | _ -> Error "field store through non-struct pointer")
      in
      P.return (Next env)
    | G.VStruct fields ->
      (* value struct held in a local: update the local *)
      (match e with
      | Ast.Ident x ->
        if List.mem_assoc f fields then
          P.return
            (Next
               (SMap.add x
                  (G.VStruct (List.map (fun (g, y) -> if g = f then (g, v) else (g, y)) fields))
                  env))
        else failf "no field %s" f
      | _ -> failf "cannot assign to a field of a temporary struct")
    | v -> failf "field store on %a" G.pp v)
  | Ast.Lderef e ->
    let* pv = eval it env e in
    let* () =
      write_cell it.cfg (as_ref pv) (fun cell ->
          match cell with
          | G.CCell _ -> Ok (G.CCell v)
          | _ -> Error "store through non-pointer")
    in
    P.return (Next env)

(* ------------------------------------------------------------------ *)
(* Entry points                                                        *)
(* ------------------------------------------------------------------ *)

(** Run a named function as a program; arguments are Goose values. *)
let run_func it name (args : G.t list) : (world, G.t) P.t =
  match Ast.find_func it.file name with
  | Some f -> call_func it f args
  | None -> failf "unknown function %s" name

(** Run a named function and convert its result to a universal value by
    dereferencing through the final heap — the form the refinement checker
    compares against the spec. *)
let run_func_value it name (args : G.t list) : (world, V.t) P.t =
  let* v = run_func it name args in
  P.read "snapshot-result" (fun w ->
      G.to_value (fun r -> Option.map (fun c -> c.content) (IMap.find_opt r w.heap)) v)
