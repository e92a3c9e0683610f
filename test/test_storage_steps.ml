(* Step-level pin of the storage stack: every Circ, Txn_log (both
   backends), Kvs, Wal and Fs create/append op, in its plain and [_ft]
   forms, run alone through [Sched.Runner.run] round-robin.  Each run
   writes its step labels with footprints, the span marks it crossed, the
   faults that fired, its return value and the final world to
   test/golden/storage_steps.txt.  Every fallible op is also run under
   each single injection and each pair of injections at adjacent fault
   sites, which reaches its bounded retry, its clean abort and its
   unbounded retry.  A refactor of these layers must leave the golden
   byte-identical. *)

module V = Tslang.Value
module P = Sched.Prog
module F = Sched.Fault
module Runner = Sched.Runner
module Block = Disk.Block
module C = Perennial_wal.Circ
module W = Perennial_wal.Wal
module J = Journal.Txn_log
module K = Journal.Kvs
module L = Perennial_fs.Layout
module Fs = Perennial_fs.Fs

let b = Block.of_string
let bv s = Block.to_value (b s)

let spans () =
  List.filter_map
    (fun (e : Obs.Trace.event) ->
      match e.ph with
      | Span_begin -> Some ("+" ^ e.name)
      | Span_end -> Some "-"
      | Complete _ | Instant -> None)
    (Obs.Trace.memory_events ())

let pp_injection ppf (i : F.injection) = Fmt.pf ppf "%d:%a" i.at F.pp_kind i.kind

(* Run [prog] alone on [w] under [schedule] and write the run, unless
   some injection did not fire: schedules naming a kind the site does not
   declare drop out. *)
let run_one ppf ~pp_world ~schedule name w prog =
  Obs.Trace.install_memory ();
  Obs.Trace.reset_spans ();
  let o, sp =
    Fun.protect ~finally:Obs.Trace.close (fun () ->
        let o = Runner.run ~fault_schedule:schedule w [ prog ] in
        (o, spans ()))
  in
  if List.length o.injected = List.length schedule then begin
    Fmt.pf ppf "== %s%s@." name
      (if schedule = [] then ""
       else Fmt.str "@[<h> faults=[%a]@]" (Fmt.list ~sep:Fmt.comma pp_injection) o.injected);
    List.iter2
      (fun (_, label) fp -> Fmt.pf ppf "@[<h>  %s %a@]@." label Sched.Footprint.pp fp)
      o.trace o.footprints;
    Fmt.pf ppf "  spans %s@." (String.concat " " sp);
    Fmt.pf ppf "@[<h>  result %a@]@." V.pp o.results.(0);
    Fmt.pf ppf "@[<h>  world %a@]@." pp_world o.world
  end

(* Fault sites past the last one any op here reaches. *)
let max_site = 14
let kinds = [ F.Read_error; F.Write_error; F.Torn_write 1 ]

(* The schedules that exercise retry paths: none, one injection at each
   site, and two injections at each pair of adjacent sites (a fault and
   then a fault on its retry). *)
let schedules =
  let at i kind = { F.at = i; kind } in
  let sites = List.init (max_site + 1) Fun.id in
  ([] :: List.concat_map (fun i -> List.map (fun k -> [ at i k ]) kinds) sites)
  @ List.concat_map
      (fun i ->
        List.concat_map (fun k1 -> List.map (fun k2 -> [ at i k1; at (i + 1) k2 ]) kinds) kinds)
      sites

let plain ppf ~pp_world name w prog = run_one ppf ~pp_world ~schedule:[] name w prog

let fallible ppf ~pp_world name w prog =
  List.iter (fun schedule -> run_one ppf ~pp_world ~schedule name w prog) schedules

(* [w] after running [progs] one after another, fault-free. *)
let after w progs = List.fold_left (fun w p -> fst (Runner.run1 w p)) w progs

(* [w] after exactly [n] atomic steps of [prog] — the world at a crash. *)
let rec steps w prog n =
  if n = 0 then w
  else
    match prog with
    | P.Mark (_, p) -> steps w p n
    | P.Done _ -> w
    | P.Atomic { action; k; _ } -> (
      match action w with
      | P.Steps ((w', v) :: _) -> steps w' (k v) (n - 1)
      | P.Steps [] | P.Ub _ -> w)

(* ------------------------------------------------------------------ *)

let circ ppf =
  let ly = C.layout ~base:0 ~cap:3 in
  let pp_world = C.pp_world in
  let w0 = C.init_world ly in
  let recs = [ (1, b "x"); (2, b "y") ] in
  let w1 = after w0 [ C.append_prog ly recs ] in
  plain ppf ~pp_world "circ append" w0 (C.append_prog ly recs);
  plain ppf ~pp_world "circ append (2nd)" w1 (C.append_prog ly [ (0, b "z") ]);
  plain ppf ~pp_world "circ trim" w1 (C.trim_prog ly 1);
  plain ppf ~pp_world "circ snapshot" w1 (C.snapshot_prog ly);
  plain ppf ~pp_world "circ buggy append_header_first" w0 (C.Buggy.append_header_first ly recs)

let txn_log ppf backend =
  let tag = match backend with `Direct -> "direct" | `Wal -> "wal" in
  let name s = Printf.sprintf "txn_log[%s] %s" tag s in
  let ly = J.layout ~n_data:3 ~max_slots:2 in
  let pp_world = J.pp_world in
  let w0 = J.init_world ly in
  let es = [ (0, b "A"); (2, b "C") ] in
  let commit = snd (J.commit_call ~backend ly es) in
  let w1 = after w0 [ commit ] in
  plain ppf ~pp_world (name "commit") w0 commit;
  plain ppf ~pp_world (name "commit []") w0 (snd (J.commit_call ~backend ly []));
  plain ppf ~pp_world (name "read") w1 (snd (J.read_call ly 0));
  fallible ppf ~pp_world (name "commit_ft") w0 (snd (J.commit_ft_call ~backend ly es));
  fallible ppf ~pp_world (name "commit_ft retries=0") w0
    (snd (J.commit_ft_call ~backend ~retries:0 ly [ (1, b "B") ]));
  fallible ppf ~pp_world (name "commit_ft []") w0 (snd (J.commit_ft_call ~backend ly []));
  fallible ppf ~pp_world (name "read_ft") w1 (snd (J.read_ft_call ly 0));
  fallible ppf ~pp_world (name "read_ft retries=2") w1 (snd (J.read_ft_call ~retries:2 ly 2));
  List.iter
    (fun n ->
      plain ppf ~pp_world
        (name (Printf.sprintf "recover after %d commit steps" n))
        (J.crash_world (steps w0 commit n))
        (J.recover ~backend ly))
    [ 4; 6; 7 ];
  if backend = `Direct then
    fallible ppf ~pp_world (name "buggy commit_ft ignore_torn") w0
      (snd (J.Buggy.commit_ft_call_ignore_torn ly es))

let kvs ppf backend =
  let tag = match backend with `Direct -> "direct" | `Wal -> "wal" in
  let name s = Printf.sprintf "kvs[%s] %s" tag s in
  let p = K.params ~backend ~n_keys:2 () in
  let pp_world = K.pp_world in
  let w0 = K.init_world p in
  let put = K.put_prog p 0 (bv "A") in
  let w1 = after w0 [ put ] in
  let wb = after w1 [ K.put_async_prog p 1 (bv "B") ] in
  let es = [ (0, b "X"); (1, b "Y") ] in
  plain ppf ~pp_world (name "put") w0 put;
  plain ppf ~pp_world (name "put (buffered)") wb (K.put_prog p 0 (bv "C"));
  plain ppf ~pp_world (name "txn") w1 (K.txn_prog p es);
  plain ppf ~pp_world (name "put_async") w1 (K.put_async_prog p 1 (bv "B"));
  plain ppf ~pp_world (name "flush") wb (K.flush_prog p);
  plain ppf ~pp_world (name "flush (empty)") w1 (K.flush_prog p);
  plain ppf ~pp_world (name "get") w1 (K.get_prog p 0);
  plain ppf ~pp_world (name "get (buffered)") wb (K.get_prog p 1);
  plain ppf ~pp_world (name "get_sync") wb (K.get_sync_prog p 0);
  fallible ppf ~pp_world (name "put_ft") w0 (snd (K.put_ft_call p 0 (bv "A")));
  fallible ppf ~pp_world (name "put_ft (buffered)") wb (snd (K.put_ft_call p 0 (bv "C")));
  fallible ppf ~pp_world (name "txn_ft") w1 (snd (K.txn_ft_call p es));
  fallible ppf ~pp_world (name "get_ft") w1 (snd (K.get_ft_call p 0));
  fallible ppf ~pp_world (name "get_ft retries=0") w1 (snd (K.get_ft_call ~retries:0 p 0));
  fallible ppf ~pp_world (name "get_ft (buffered)") wb (snd (K.get_ft_call p 1));
  plain ppf ~pp_world (name "recover after 9 put steps")
    (K.crash_world (steps w0 put 9))
    (K.recover p);
  if backend = `Direct then
    fallible ppf ~pp_world (name "buggy put_ft swallow_apply") w0
      (snd (K.Buggy.put_ft_call_swallow_apply p 0 (bv "A")))

let wal ppf =
  let p = W.params ~n_data:2 ~cap:2 () in
  let pp_world = W.pp_world in
  let w0 = W.init_world p in
  let wm = after w0 [ W.mwrite_prog p [ (0, b "A") ]; W.mwrite_prog p [ (1, b "B"); (0, b "C") ] ] in
  let wl = after wm [ W.logger_tick_prog p ] in
  plain ppf ~pp_world "wal mwrite" w0 (W.mwrite_prog p [ (0, b "A") ]);
  fallible ppf ~pp_world "wal logger" wm (W.logger_tick_prog p);
  fallible ppf ~pp_world "wal installer" wl (W.installer_tick_prog p);
  fallible ppf ~pp_world "wal flush" wm (W.flush_prog p 2);
  plain ppf ~pp_world "wal read (ring)" wl (W.read_prog p 0);
  plain ppf ~pp_world "wal read (buffer)" wm (W.read_prog p 1);
  plain ppf ~pp_world "wal recover" (W.crash_world wl) (W.recover_prog p)

let fs ppf backend =
  let tag = match backend with `Direct -> "direct" | `Wal -> "wal" in
  let name s = Printf.sprintf "fs[%s] %s" tag s in
  let p = Fs.params ~backend (L.v ~n_inodes:4 ~n_blocks:5 ()) in
  let pp_world = Fs.pp_world in
  let w0 = Fs.init_world p ~dirs:[ "a" ] ~files:[ ("a", "f", "xy") ] in
  plain ppf ~pp_world (name "create") w0 (Fs.create_prog p "a" "g");
  plain ppf ~pp_world (name "create (exists)") w0 (Fs.create_prog p "a" "f");
  plain ppf ~pp_world (name "append") w0 (Fs.append_prog p "a" "f" "zw");
  fallible ppf ~pp_world (name "create_ft") w0 (Fs.create_ft_prog p "a" "g");
  fallible ppf ~pp_world (name "create_ft (exists)") w0 (Fs.create_ft_prog p "a" "f");
  fallible ppf ~pp_world (name "append_ft") w0 (Fs.append_ft_prog p "a" "f" "zw")

let render () =
  let buf = Buffer.create (1 lsl 20) in
  let ppf = Format.formatter_of_buffer buf in
  circ ppf;
  List.iter (txn_log ppf) [ `Direct; `Wal ];
  List.iter (kvs ppf) [ `Direct; `Wal ];
  wal ppf;
  List.iter (fs ppf) [ `Direct; `Wal ];
  Format.pp_print_flush ppf ();
  Buffer.contents buf

(* On a mismatch, name the first differing line rather than dumping both
   texts. *)
let test_golden () =
  let got = render () in
  let want = Golden.read ~regen:(fun () -> got) "storage_steps.txt" in
  if got <> want then begin
    let lines s = Array.of_list (String.split_on_char '\n' s) in
    let g = lines got and w = lines want in
    let rec first i =
      if i >= Array.length g || i >= Array.length w || g.(i) <> w.(i) then i else first (i + 1)
    in
    let i = first 0 in
    let at a = if i < Array.length a then a.(i) else "<end>" in
    Alcotest.failf "storage_steps.txt line %d:@.  golden: %s@.  got:    %s" (i + 1) (at w) (at g)
  end

let suite = [ Alcotest.test_case "every storage op's steps match the golden" `Quick test_golden ]
