type arg = I of int | F of float | S of string | B of bool

type phase =
  | Span_begin
  | Span_end
  | Complete of float
  | Instant

type event = {
  name : string;
  cat : string;
  ph : phase;
  ts : float;
  pid : int;
  tid : int;
  args : (string * arg) list;
}

type sink =
  | Null
  | Memory
  | Chrome of out_channel

let current : sink ref = ref Null
let on = ref false
let buffer : event list ref = ref [] (* newest first *)
let buffered = ref 0
let limit = ref 200_000
let n_dropped = ref 0

let enabled () = !on
let dropped () = !n_dropped
let set_limit n = limit := n

let clock : (unit -> float) ref = ref (fun () -> Unix.gettimeofday () *. 1e6)
let now_us () = !clock ()
let set_clock f = clock := f

(* ------------------------------------------------------------------ *)
(* Serialization                                                       *)
(* ------------------------------------------------------------------ *)

let arg_json = function
  | I i -> Json.Int i
  | F f -> Json.Float f
  | S s -> Json.Str s
  | B b -> Json.Bool b

let event_json e =
  let ph, dur =
    match e.ph with
    | Span_begin -> ("B", None)
    | Span_end -> ("E", None)
    | Complete d -> ("X", Some d)
    | Instant -> ("i", None)
  in
  let base =
    [ ("name", Json.Str e.name);
      ("cat", Json.Str e.cat);
      ("ph", Json.Str ph);
      ("ts", Json.Float e.ts);
      ("pid", Json.Int e.pid);
      ("tid", Json.Int e.tid) ]
  in
  let base = match dur with Some d -> base @ [ ("dur", Json.Float d) ] | None -> base in
  let base = match e.ph with Instant -> base @ [ ("s", Json.Str "t") ] | _ -> base in
  let base =
    match e.args with
    | [] -> base
    | args -> base @ [ ("args", Json.Obj (List.map (fun (k, v) -> (k, arg_json v)) args)) ]
  in
  Json.Obj base

let chrome_json events =
  Json.Obj
    [ ("traceEvents", Json.Arr (List.map event_json events));
      ("displayTimeUnit", Json.Str "ms") ]

(* ------------------------------------------------------------------ *)
(* Sink management                                                     *)
(* ------------------------------------------------------------------ *)

(* One mutex guards the buffer and the span stacks:
   tracing from parallel exploration domains must not corrupt them.  The
   [!on] fast path stays lock-free. *)
let lock = Mutex.create ()

let with_lock f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

let push e =
  if !buffered >= !limit then incr n_dropped
  else begin
    buffer := e :: !buffer;
    incr buffered
  end

let emit e =
  with_lock (fun () ->
      match !current with
      | Null -> ()
      | Memory | Chrome _ -> push e)

let reset_state () =
  buffer := [];
  buffered := 0;
  n_dropped := 0

let close () =
  (match !current with
  | Null -> ()
  | Memory -> ()
  | Chrome oc ->
    output_string oc (Json.to_string (chrome_json (List.rev !buffer)));
    output_char oc '\n';
    close_out oc);
  current := Null;
  on := false;
  reset_state ()

let install s =
  close ();
  current := s;
  on := s <> Null

let install_memory () = install Memory
let open_chrome path = install (Chrome (open_out path))
let memory_events () = with_lock (fun () -> List.rev !buffer)

(* ------------------------------------------------------------------ *)
(* Emitting helpers                                                    *)
(* ------------------------------------------------------------------ *)

let instant ?(cat = "") ?(tid = 0) ?(args = []) name =
  if !on then emit { name; cat; ph = Instant; ts = now_us (); pid = 1; tid; args }

(* ------------------------------------------------------------------ *)
(* Span context: per-tid stacks of open spans with parent links         *)
(* ------------------------------------------------------------------ *)

type open_span = { sp_id : int; sp_name : string; sp_cat : string; sp_t0 : float }

let next_span_id = ref 0
let stacks : (int, open_span list) Hashtbl.t = Hashtbl.create 8

let stack_of tid = Option.value ~default:[] (Hashtbl.find_opt stacks tid)

let reset_spans () =
  with_lock (fun () ->
      Hashtbl.reset stacks;
      next_span_id := 0)

let span_depth ?(tid = 0) () = with_lock (fun () -> List.length (stack_of tid))

(* The stack updates run under the lock but the emits happen outside it
   (the mutex is not reentrant and [emit] locks too). *)
let span_begin ?(cat = "") ?(tid = 0) ?(args = []) name =
  if !on then begin
    let t0 = now_us () in
    let id, parent =
      with_lock (fun () ->
          let id = !next_span_id in
          incr next_span_id;
          let parent =
            match stack_of tid with [] -> [] | p :: _ -> [ ("parent", I p.sp_id) ]
          in
          Hashtbl.replace stacks tid
            ({ sp_id = id; sp_name = name; sp_cat = cat; sp_t0 = t0 } :: stack_of tid);
          (id, parent))
    in
    emit
      { name; cat; ph = Span_begin; ts = t0; pid = 1; tid;
        args = (("span", I id) :: parent) @ args }
  end

let span_end ?(tid = 0) () =
  if not !on then None
  else
    match
      with_lock (fun () ->
          match stack_of tid with
          | [] -> None
          | sp :: rest ->
            Hashtbl.replace stacks tid rest;
            Some sp)
    with
    | None -> None
    | Some sp ->
      let t1 = now_us () in
      emit
        { name = sp.sp_name; cat = sp.sp_cat; ph = Span_end; ts = t1; pid = 1; tid;
          args = [ ("span", I sp.sp_id) ] };
      Some (t1 -. sp.sp_t0)

let with_span ?(cat = "") ?(tid = 0) ?(args = []) name f =
  if not !on then f ()
  else begin
    let t0 = now_us () in
    Fun.protect
      ~finally:(fun () ->
        let t1 = now_us () in
        emit { name; cat; ph = Complete (t1 -. t0); ts = t0; pid = 1; tid; args })
      f
  end
