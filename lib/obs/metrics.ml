type labels = (string * string) list

let canon labels =
  List.sort (fun (a, _) (b, _) -> String.compare a b) labels

(* Domain-safety: counters are atomic ints, gauges are atomic (boxed)
   floats updated by CAS loops, and the registry table itself is guarded by
   a per-registry mutex.  Updating through a handle never touches the
   registry lock, so the hot path stays one atomic op — and a 4-domain
   hammer loses no increments (test/test_parallel.ml). *)

type metric =
  | M_counter of int Atomic.t
  | M_gauge of float Atomic.t

type registry = { tbl : (string * labels, metric) Hashtbl.t; lock : Mutex.t }

type counter = int Atomic.t
type gauge = float Atomic.t

let with_lock m f =
  Mutex.lock m;
  Fun.protect ~finally:(fun () -> Mutex.unlock m) f

let create () : registry = { tbl = Hashtbl.create 64; lock = Mutex.create () }
let default : registry = create ()

let reset (r : registry) =
  with_lock r.lock (fun () ->
      Hashtbl.iter
        (fun _ m ->
          match m with
          | M_counter c -> Atomic.set c 0
          | M_gauge g -> Atomic.set g 0.)
        r.tbl)

let kind_name = function
  | M_counter _ -> "counter"
  | M_gauge _ -> "gauge"

let resolve (r : registry) name labels (fresh : unit -> metric) ~(want : string) =
  with_lock r.lock (fun () ->
      let key = (name, canon labels) in
      match Hashtbl.find_opt r.tbl key with
      | Some m ->
        if kind_name m <> want then
          invalid_arg
            (Printf.sprintf "Obs.Metrics: %s already registered as a %s, not a %s" name
               (kind_name m) want);
        m
      | None ->
        let m = fresh () in
        Hashtbl.add r.tbl key m;
        m)

let counter ?(registry = default) ?(labels = []) name : counter =
  match
    resolve registry name labels ~want:"counter" (fun () -> M_counter (Atomic.make 0))
  with
  | M_counter c -> c
  | _ -> assert false

let inc ?(by = 1) (c : counter) =
  if by < 0 then invalid_arg "Obs.Metrics.inc: counters are monotonic";
  ignore (Atomic.fetch_and_add c by)

let counter_value (c : counter) = Atomic.get c

let gauge ?(registry = default) ?(labels = []) name : gauge =
  match resolve registry name labels ~want:"gauge" (fun () -> M_gauge (Atomic.make 0.)) with
  | M_gauge g -> g
  | _ -> assert false

let rec add (g : gauge) v =
  let cur = Atomic.get g in
  if not (Atomic.compare_and_set g cur (cur +. v)) then add g v

let gauge_value (g : gauge) = Atomic.get g

(* ------------------------------------------------------------------ *)
(* Snapshots                                                           *)
(* ------------------------------------------------------------------ *)

type value =
  | Counter of int
  | Gauge of float

type sample = { name : string; labels : labels; value : value }

let snapshot ?(registry = default) () =
  let entries =
    with_lock registry.lock (fun () ->
        Hashtbl.fold (fun k m acc -> (k, m) :: acc) registry.tbl [])
  in
  let samples =
    List.map
      (fun ((name, labels), m) ->
        let value =
          match m with
          | M_counter c -> Counter (Atomic.get c)
          | M_gauge g -> Gauge (Atomic.get g)
        in
        { name; labels; value })
      entries
  in
  List.sort
    (fun a b ->
      let c = String.compare a.name b.name in
      if c <> 0 then c else compare a.labels b.labels)
    samples

let render_key s =
  match s.labels with
  | [] -> s.name
  | ls ->
    Printf.sprintf "%s{%s}" s.name
      (String.concat "," (List.map (fun (k, v) -> Printf.sprintf "%s=%s" k v) ls))

let pp ?(registry = default) ppf () =
  List.iter
    (fun s ->
      match s.value with
      | Counter c -> Fmt.pf ppf "%-56s %d@." (render_key s) c
      | Gauge g -> Fmt.pf ppf "%-56s %g@." (render_key s) g)
    (snapshot ~registry ())
