let on = ref false
let interval = ref 1.0 (* seconds *)
let chan = ref stderr
let last_print = ref neg_infinity (* Unix seconds *)
let t_start = ref 0.
let last_execs = ref 0
let last_t = ref 0.

let enabled () = !on

let enable ?(interval_s = 1.0) ?(out = stderr) () =
  on := true;
  interval := interval_s;
  chan := out;
  let now = Unix.gettimeofday () in
  t_start := now;
  last_print := neg_infinity;
  last_execs := 0;
  last_t := now

let line ~executions ~steps ~frontier ~fault_schedule ?deadline_us () =
  let now = Unix.gettimeofday () in
  let dt = now -. !last_t in
  let rate = if dt > 0. then float_of_int (executions - !last_execs) /. dt else 0. in
  last_execs := executions;
  last_t := now;
  let eta =
    match deadline_us with
    | None -> ""
    | Some d ->
      let remaining = (d -. Trace.now_us ()) /. 1e6 in
      Printf.sprintf " budget_eta=%.0fs" (Float.max 0. remaining)
  in
  Printf.fprintf !chan
    "[perennial] execs=%d (%.0f/s) steps=%d frontier=%d fault_schedule=%d elapsed=%.1fs%s\n%!"
    executions rate steps frontier fault_schedule (now -. !t_start) eta

let lock = Mutex.create ()

let tick ~executions ~steps ~frontier ~fault_schedule ?deadline_us () =
  if !on then begin
    let now = Unix.gettimeofday () in
    if now -. !last_print >= !interval then begin
      Mutex.lock lock;
      let due = now -. !last_print >= !interval in
      if due then last_print := now;
      Mutex.unlock lock;
      if due then line ~executions ~steps ~frontier ~fault_schedule ?deadline_us ()
    end
  end

let finish () =
  if !on then last_print := neg_infinity
