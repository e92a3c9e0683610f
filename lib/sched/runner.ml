module V = Tslang.Value

type policy =
  | Round_robin
  | Random of int
  | Fixed of int list

type 'w outcome = {
  world : 'w;
  results : V.t array;
  trace : (int * string) list;
  footprints : Footprint.t list;
  steps : int;
  per_thread_steps : int array;
  context_switches : int;
  injected : Fault.schedule;
}

exception Undefined_behaviour of string
exception Deadlock of string

type 'w thread_state =
  | Running of ('w, V.t) Prog.t
  | Finished of V.t

let run ?(policy = Round_robin) ?(max_steps = 1_000_000) ?(fault_schedule = [])
    world threads =
  let n = List.length threads in
  let states = Array.of_list (List.map (fun p -> Running p) threads) in
  let world = ref world in
  let trace = ref [] in
  let fps = ref [] in
  let steps = ref 0 in
  let per_thread = Array.make n 0 in
  let switches = ref 0 in
  let last_ran = ref (-1) in
  (* Fault-injection oracle: [site] counts committed fault-eligible steps;
     an injection [{at; kind}] in [fault_schedule] fires at the [at]-th such
     step if the step declares [kind]. *)
  let site = ref 0 in
  let injected = ref [] in
  let rng = match policy with Random seed -> Some (Random.State.make [| seed |]) | Round_robin | Fixed _ -> None
  in
  let fixed = ref (match policy with Fixed l -> l | Round_robin | Random _ -> []) in
  let rr = ref 0 in
  (* A thread is runnable if unfinished and its next action is not blocked. *)
  (* Returns the next step of thread [i] as (label, outcome count, commit):
     [commit idx] applies outcome [idx] and resumes the continuation.  The
     closure keeps the step's existential payload type from escaping. *)
  (* Marks are free: consume every pending span annotation on thread [i]
     (emitting begin/end events) before looking at its next real step. *)
  let rec consume_marks i =
    match states.(i) with
    | Running (Prog.Mark (m, p)) ->
      (if Obs.Trace.enabled () then
         match m with
         | Prog.Enter { sm_name; sm_cat } -> Obs.Trace.span_begin ~cat:sm_cat ~tid:i sm_name
         | Prog.Exit -> ignore (Obs.Trace.span_end ~tid:i ()));
      states.(i) <- Running p;
      consume_marks i
    | Running _ | Finished _ -> ()
  in
  let step_of i =
    consume_marks i;
    match states.(i) with
    | Finished _ -> None
    | Running (Prog.Done v) ->
      states.(i) <- Finished v;
      None
    | Running (Prog.Mark _) -> assert false (* consumed above *)
    | Running (Prog.Atomic { label; fp; action; faults; k }) ->
      (match action !world with
      | Prog.Ub reason ->
        raise (Undefined_behaviour (Printf.sprintf "thread %d at %s: %s" i label reason))
      | Prog.Steps [] -> None (* blocked *)
      | Prog.Steps outs ->
        let fp = fp !world in
        let flts = faults !world in
        (* [commit idx] applies normal outcome [idx]; [commit_fault kind]
           applies the declared fault of that kind instead, returning false
           if the step does not declare it (the injection is then skipped
           and the normal outcome commits). *)
        let commit idx =
          let w', v = List.nth outs idx in
          world := w';
          states.(i) <- Running (k v)
        in
        let commit_fault kind =
          match
            List.find_opt (fun (kd, _, _) -> Fault.equal_kind kd kind) flts
          with
          | None -> false
          | Some (_, w', v) ->
            world := w';
            states.(i) <- Running (k v);
            true
        in
        Some (label, fp, List.length outs, flts <> [], commit, commit_fault))
  in
  let unfinished () =
    let acc = ref [] in
    for i = n - 1 downto 0 do
      consume_marks i;
      (match states.(i) with
      | Running (Prog.Done v) -> states.(i) <- Finished v
      | Running _ | Finished _ -> ());
      match states.(i) with Running _ -> acc := i :: !acc | Finished _ -> ()
    done;
    !acc
  in
  let pick runnable =
    match rng with
    | Some st -> List.nth runnable (Random.State.int st (List.length runnable))
    | None ->
      (match !fixed with
      | i :: rest when List.mem i runnable ->
        fixed := rest;
        i
      | _ :: rest ->
        fixed := rest;
        (* fall through to round-robin on a blocked/finished choice *)
        (match List.find_opt (fun i -> i >= !rr) runnable with
        | Some i -> i
        | None -> List.hd runnable)
      | [] ->
        (match List.find_opt (fun i -> i >= !rr) runnable with
        | Some i -> i
        | None -> List.hd runnable))
  in
  let rec loop () =
    match unfinished () with
    | [] -> ()
    | pending ->
      let runnable = List.filter (fun i -> step_of i <> None) pending in
      (match runnable with
      | [] ->
        raise
          (Deadlock
             (Printf.sprintf "threads %s blocked"
                (String.concat "," (List.map string_of_int pending))))
      | _ ->
        let i = pick runnable in
        (match step_of i with
        | None -> ()
        | Some (label, fp, n_outs, fault_eligible, commit, commit_fault) ->
          let fault_fired =
            if not fault_eligible then false
            else begin
              let here = !site in
              incr site;
              match
                List.find_opt (fun (inj : Fault.injection) -> inj.at = here)
                  fault_schedule
              with
              | Some inj when commit_fault inj.kind ->
                injected := inj :: !injected;
                true
              | Some _ | None -> false
            end
          in
          if not fault_fired then begin
            let idx =
              match rng with Some st -> Random.State.int st n_outs | None -> 0
            in
            commit idx
          end;
          fps := fp :: !fps;
          trace := (i, label) :: !trace;
          incr steps;
          per_thread.(i) <- per_thread.(i) + 1;
          if !last_ran >= 0 && !last_ran <> i then incr switches;
          last_ran := i;
          if !steps > max_steps then failwith "Runner.run: step budget exceeded");
        rr := (i + 1) mod n;
        loop ())
  in
  loop ();
  let results =
    Array.map (function Finished v -> v | Running _ -> assert false) states
  in
  { world = !world; results; trace = List.rev !trace;
    footprints = List.rev !fps; steps = !steps;
    per_thread_steps = per_thread; context_switches = !switches;
    injected = List.rev !injected }

let run1 world prog =
  let out = run world [ prog ] in
  (out.world, out.results.(0))
