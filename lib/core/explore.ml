module Fp = Sched.Footprint

type strategy = Naive | Dpor | Dpor_sleep

let all_strategies = [ Naive; Dpor; Dpor_sleep ]

let strategy_name = function
  | Naive -> "naive"
  | Dpor -> "dpor"
  | Dpor_sleep -> "dpor+sleep"

let strategy_of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "naive" -> Some Naive
  | "dpor" -> Some Dpor
  | "dpor+sleep" | "dpor_sleep" | "sleep" -> Some Dpor_sleep
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Step infos, nodes, race detection                                    *)
(* ------------------------------------------------------------------ *)

type 'w step_info = {
  si_tid : int;
  si_label : string;
  si_fp : Fp.t;
  si_visible : bool;
  si_branches : ('w * ('w, Tslang.Value.t) Sched.Prog.t) list;
  si_faults : (Sched.Fault.kind * ('w * ('w, Tslang.Value.t) Sched.Prog.t)) list;
  si_fault_site : bool;
}

let crash_relevant fp = Fp.writes_durable fp

let dependent a b =
  a.si_visible || b.si_visible || Fp.conflicts a.si_fp b.si_fp

type 'w node = {
  n_enabled : 'w step_info list;
  mutable n_backtrack : int list;
  mutable n_done : int list;
}

type 'w frame = { f_node : 'w node; f_step : 'w step_info }

let node ~sleep enabled =
  let asleep si = List.mem si.si_tid sleep in
  let init =
    match List.find_opt (fun si -> (not si.si_visible) && not (asleep si)) enabled with
    | Some si -> Some si.si_tid
    | None ->
      (match List.find_opt (fun si -> not (asleep si)) enabled with
      | Some si -> Some si.si_tid
      | None -> None (* every enabled thread is asleep: prune the node *))
  in
  {
    n_enabled = enabled;
    n_backtrack = (match init with Some t -> [ t ] | None -> []);
    n_done = [];
  }

let add_backtrack n tid =
  if not (List.mem tid n.n_backtrack) then n.n_backtrack <- tid :: n.n_backtrack

let enabled_at n tid = List.exists (fun q -> q.si_tid = tid) n.n_enabled

(* Flanagan–Godefroid race detection.  For each step [p] enabled at the new
   node, walk the path (newest frame first) to the most recent step by a
   *different* thread that is dependent with [p] and may be co-enabled with
   it, and schedule [p] for exploration at that frame's node — or, if [p]
   was not enabled there, every thread that was (the conservative
   fallback).  The co-enabledness filter is not an optimization: a
   dependent-but-never-co-enabled step (a release of the very lock [p]
   wants) would otherwise shadow the real race deeper in the path. *)
let detect_races (stack : 'w frame list) (n : 'w node) =
  List.iter
    (fun p ->
      let rec scan = function
        | [] -> ()
        | f :: rest ->
          if
            f.f_step.si_tid <> p.si_tid
            && dependent f.f_step p
            && Fp.may_be_coenabled f.f_step.si_fp p.si_fp
          then
            if enabled_at f.f_node p.si_tid then add_backtrack f.f_node p.si_tid
            else List.iter (fun q -> add_backtrack f.f_node q.si_tid) f.f_node.n_enabled
          else scan rest
      in
      scan stack)
    n.n_enabled

let next_candidate n =
  List.find_opt
    (fun si -> List.mem si.si_tid n.n_backtrack && not (List.mem si.si_tid n.n_done))
    n.n_enabled

(* ------------------------------------------------------------------ *)
(* Pruning provenance                                                   *)
(* ------------------------------------------------------------------ *)

module Prov = struct
  type rule = Commutation | Sleep | Clean_crash

  let rule_name = function
    | Commutation -> "commutation"
    | Sleep -> "sleep-set"
    | Clean_crash -> "clean-crash"

  let on = ref false
  let enabled () = !on
  let set_enabled b = on := b

  (* (rule, pruned site, witness site) -> times the rule fired.  The
     witness is the step the pruned one was judged against: the explored
     representative for a commutation, the step whose sleep set swallowed
     the skip, or [None] for a clean-crash node. *)
  let table : (rule * string * string option, int ref) Hashtbl.t = Hashtbl.create 128

  (* Parallel exploration records provenance from several domains at once;
     the mutex keeps the table and its cells exact. *)
  let lock = Mutex.create ()

  let with_lock f =
    Mutex.lock lock;
    Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

  let reset () = with_lock (fun () -> Hashtbl.reset table)

  let record rule ~site ?witness () =
    if !on then
      with_lock (fun () ->
          let key = (rule, site, witness) in
          match Hashtbl.find_opt table key with
          | Some r -> incr r
          | None -> Hashtbl.add table key (ref 1))

  let entries () =
    with_lock (fun () ->
        Hashtbl.fold (fun (rule, site, w) r acc -> (rule, site, w, !r) :: acc) table [])
    |> List.sort (fun (r1, s1, w1, n1) (r2, s2, w2, n2) ->
           compare (n2, s1, rule_name r1, w1) (n1, s2, rule_name r2, w2))

  let total () = with_lock (fun () -> Hashtbl.fold (fun _ r acc -> acc + !r) table 0)

  let pp_report ppf () =
    let es = entries () in
    Format.fprintf ppf "pruning provenance: %d skips across %d distinct (rule, site) pairs@,"
      (total ()) (List.length es);
    List.iteri
      (fun i (rule, site, witness, n) ->
        if i < 40 then
          match witness with
          | Some w ->
            Format.fprintf ppf "  %6dx %-11s %s  (vs %s)@," n (rule_name rule) site w
          | None -> Format.fprintf ppf "  %6dx %-11s %s@," n (rule_name rule) site)
      es;
    if List.length es > 40 then
      Format.fprintf ppf "  ... %d more@," (List.length es - 40)
end
