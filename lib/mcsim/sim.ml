(** A discrete-event simulator of closed-loop workers on a multicore
    machine — the substrate for the Figure 11 reproduction (the container
    this repository builds in has a single CPU, so scaling must be
    simulated; see DESIGN.md's substitution table).

    Model:
    - [cores] workers, each executing a sequence of {!action}s per request
      in a closed loop over a shared request queue;
    - [Cpu d]: d microseconds of private work (perfectly parallel across
      cores);
    - [Serial (r, d)]: d microseconds holding the named global resource,
      FIFO-queued (kernel-side serialization of file-system metadata, the
      runtime's GC critical section);
    - [Lock l] / [Unlock l]: application-level locks (per-user mailbox
      locks), also FIFO, held across many actions;
    - GC is modeled per the paper's explanation of Mailboat's scaling limit
      (§9.3, "limited by lock contention in the runtime during garbage
      collection"): after every [gc_quantum] μs of accumulated CPU work a
      worker pays [gc_slice] μs under the global ["gc"] resource.

    The simulation is deterministic given the request list. *)

type action =
  | Cpu of float
  | Serial of string * float
  | Lock of int
  | Unlock of int

(* Internal continuation marker: release the named serial resource. *)
type iaction =
  | A of action
  | Release_serial of string

type resource = { mutable busy : bool; mutable queue : int list }

type core_state = {
  mutable pending : iaction list;
  mutable in_flight : bool;
  mutable cpu_since_gc : float;
  mutable completed : int;
  mutable cur_req : int;  (* index of the request in flight, -1 if none *)
}

type outcome = {
  makespan_us : float;
  per_core_completed : int array;
  total : int;
  latencies_us : float array;  (** per-request sojourn time, indexed by request *)
}

exception Sim_stuck of string

(* Nearest-rank percentile over an unsorted sample; [p] in [0, 100]. *)
let percentile xs p =
  let n = Array.length xs in
  if n = 0 then 0.
  else begin
    let a = Array.copy xs in
    Array.sort compare a;
    let rank = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) - 1 in
    a.(max 0 (min (n - 1) rank))
  end

let run ?(gc_quantum = 150.) ?(gc_slice = 6.) ~cores (requests : action list array) :
    outcome =
  let n = Array.length requests in
  let next_request = ref 0 in
  let states =
    Array.init cores (fun _ ->
        { pending = []; in_flight = false; cpu_since_gc = 0.; completed = 0; cur_req = -1 })
  in
  let req_start = Array.make (max n 1) 0. in
  let latencies = Array.make (max n 1) 0. in
  let events : int Heap.t = Heap.create () in
  let serials : (string, resource) Hashtbl.t = Hashtbl.create 8 in
  let locks : (int, resource) Hashtbl.t = Hashtbl.create 64 in
  let get tbl key =
    match Hashtbl.find_opt tbl key with
    | Some r -> r
    | None ->
      let r = { busy = false; queue = [] } in
      Hashtbl.add tbl key r;
      r
  in
  let makespan = ref 0. in
  let budget = ref (200_000_000 + (n * 64)) in
  let observe t = if t > !makespan then makespan := t in
  (* Process core [c] at time [t] until it blocks or schedules a future
     event. *)
  let rec step t c =
    decr budget;
    if !budget <= 0 then raise (Sim_stuck "event budget exceeded");
    let st = states.(c) in
    match st.pending with
    | [] ->
      if st.in_flight then begin
        st.completed <- st.completed + 1;
        st.in_flight <- false;
        if st.cur_req >= 0 then latencies.(st.cur_req) <- t -. req_start.(st.cur_req);
        st.cur_req <- -1;
        observe t
      end;
      if !next_request < n then begin
        st.pending <- List.map (fun a -> A a) requests.(!next_request);
        req_start.(!next_request) <- t;
        st.cur_req <- !next_request;
        incr next_request;
        st.in_flight <- true;
        step t c
      end
    | A (Cpu d) :: rest ->
      if st.cpu_since_gc +. d >= gc_quantum then begin
        st.cpu_since_gc <- 0.;
        st.pending <- A (Serial ("gc", gc_slice)) :: rest
      end
      else begin
        st.cpu_since_gc <- st.cpu_since_gc +. d;
        st.pending <- rest
      end;
      Heap.push events (t +. d) c
    | A (Serial (name, d)) :: rest ->
      let r = get serials name in
      if r.busy then r.queue <- r.queue @ [ c ] (* retried when woken *)
      else begin
        r.busy <- true;
        st.pending <- Release_serial name :: rest;
        Heap.push events (t +. d) c
      end
    | Release_serial name :: rest ->
      let r = get serials name in
      st.pending <- rest;
      (match r.queue with
      | [] -> r.busy <- false
      | waiter :: others ->
        r.queue <- others;
        r.busy <- false;
        Heap.push events t waiter);
      step t c
    | A (Lock l) :: rest ->
      let r = get locks l in
      if r.busy then r.queue <- r.queue @ [ c ]
      else begin
        r.busy <- true;
        st.pending <- rest;
        step t c
      end
    | A (Unlock l) :: rest ->
      let r = get locks l in
      st.pending <- rest;
      (match r.queue with
      | [] -> r.busy <- false
      | waiter :: others ->
        r.queue <- others;
        r.busy <- false;
        Heap.push events t waiter);
      step t c
  in
  (* kick off all cores at t = 0 *)
  for c = 0 to cores - 1 do
    Heap.push events 0. c
  done;
  let rec drain () =
    match Heap.pop events with
    | None -> ()
    | Some (t, c) ->
      step t c;
      drain ()
  in
  drain ();
  let per_core_completed = Array.map (fun s -> s.completed) states in
  let total = Array.fold_left ( + ) 0 per_core_completed in
  if total <> n then
    raise (Sim_stuck (Printf.sprintf "only %d of %d requests completed (deadlock?)" total n));
  let latencies_us = Array.sub latencies 0 n in
  { makespan_us = !makespan; per_core_completed; total; latencies_us }

(** Requests per second given an outcome. *)
let throughput outcome =
  if outcome.makespan_us <= 0. then 0.
  else float_of_int outcome.total /. (outcome.makespan_us /. 1_000_000.)
