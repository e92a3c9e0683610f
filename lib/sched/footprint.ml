type loc =
  | Durable of string * int
  | Volatile of string * int

type kind =
  | Plain
  | Acquire of loc
  | Release of loc

type t =
  | Unknown
  | Rw of { reads : loc list; writes : loc list; kind : kind }

let unknown = Unknown
let rw ?(kind = Plain) ~reads ~writes () = Rw { reads; writes; kind }
let reads locs = Rw { reads = locs; writes = []; kind = Plain }
let writes locs = Rw { reads = []; writes = locs; kind = Plain }
let pure = Rw { reads = []; writes = []; kind = Plain }
let acquire l = Rw { reads = [ l ]; writes = [ l ]; kind = Acquire l }
let release l = Rw { reads = [ l ]; writes = [ l ]; kind = Release l }
let const fp _w = fp
let disk ?(region = "disk") a = Durable (region, a)
let lock id = Volatile ("lock", id)
let cell name = Volatile (name, 0)
let cell_at name i = Volatile (name, i)

let loc_equal (a : loc) (b : loc) = a = b
let mem l ls = List.exists (loc_equal l) ls

let conflicts a b =
  match (a, b) with
  | Unknown, _ | _, Unknown -> true
  | Rw a, Rw b ->
    List.exists (fun l -> mem l b.reads || mem l b.writes) a.writes
    || List.exists (fun l -> mem l a.reads || mem l a.writes) b.writes

let writes_durable = function
  | Unknown -> true
  | Rw { writes; _ } ->
    List.exists (function Durable _ -> true | Volatile _ -> false) writes

(* Two steps may be simultaneously enabled unless the lock discipline rules
   it out: [acquire l] needs the lock free while [release l] needs it held,
   and two [release l] would need two holders. *)
let may_be_coenabled a b =
  match (a, b) with
  | Rw { kind = Acquire l; _ }, Rw { kind = Release l'; _ }
  | Rw { kind = Release l; _ }, Rw { kind = Acquire l'; _ }
  | Rw { kind = Release l; _ }, Rw { kind = Release l'; _ } ->
    not (loc_equal l l')
  | _ -> true

let pp_loc ppf = function
  | Durable (r, a) -> Fmt.pf ppf "%s[%d]!" r a
  | Volatile (r, a) -> Fmt.pf ppf "%s[%d]" r a

let pp ppf = function
  | Unknown -> Fmt.string ppf "?"
  | Rw { reads; writes; kind } ->
    let pk ppf = function
      | Plain -> ()
      | Acquire l -> Fmt.pf ppf " acq:%a" pp_loc l
      | Release l -> Fmt.pf ppf " rel:%a" pp_loc l
    in
    Fmt.pf ppf "r{%a} w{%a}%a"
      (Fmt.list ~sep:Fmt.comma pp_loc) reads
      (Fmt.list ~sep:Fmt.comma pp_loc) writes
      pk kind
