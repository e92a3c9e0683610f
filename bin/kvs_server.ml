(* kvs_server: an interactive front end for the journaled transactional
   key-value store (Journal.Kvs).

   Commands on stdin (`kvs_server repl`):

     GET <k>              read a key
     PUT <k> <v>          durable put (commits a journal transaction)
     TXN <k>=<v> ...      durable multi-key transaction, all or nothing
     ASYNC <k> <v>        buffered put: acked now, durable at next FLUSH
     FLUSH                group-commit the buffer as one transaction
     CRASH                simulate a crash (buffer and locks vanish)
     RECOVER              run journal recovery (replays a committed txn)
     DUMP                 print every key
     QUIT                 exit

   The command interpreter lives in Journal.Kvs_repl (so the test suite can
   drive it); it never raises on malformed or oversized input — every bad
   line gets an `ERR ...` response and the session keeps going.  With
   `--timeout-ms N`, a command whose backend program runs away (a degraded
   fault-tolerant path spinning through retries) answers `ERR timeout`
   with the store untouched instead of hanging the session.

   `kvs_server demo` (the default) runs a scripted session showing the
   durable path, the group-commit loss window, and recovery. *)

module Repl = Journal.Kvs_repl

let repl ?timeout_ms () =
  let t = Repl.create ?timeout_ms () in
  print_endline ("journaled kvs ready (" ^ Repl.help ^ ")");
  try
    while true do
      let line = input_line stdin in
      List.iter print_endline (Repl.exec_line t line)
    done
  with End_of_file | Repl.Quit -> ()

let demo () =
  let t = Repl.create () in
  let script =
    [ "PUT 0 alpha"; "GET 0"; "TXN 1=beta 2=gamma"; "DUMP"; "ASYNC 3 delta"; "GET 3";
      "CRASH"; "RECOVER"; "GET 3"; "GET 1"; "DUMP" ]
  in
  List.iter
    (fun line ->
      Printf.printf "> %s\n" line;
      List.iter print_endline (Repl.exec_line t line))
    script;
  print_endline "(note GET 3 after the crash: the buffered put was lost — the";
  print_endline " group-commit window the KVS spec makes explicit)"

let usage () =
  prerr_endline "usage: kvs_server [demo|repl] [--timeout-ms N]";
  exit 2

(* --timeout-ms N: per-command budget for the repl; a command that blows it
   answers `ERR timeout` instead of hanging the session (see Kvs_repl) *)
let rec split_timeout acc = function
  | [] -> (None, List.rev acc)
  | "--timeout-ms" :: n :: rest -> (
    match int_of_string_opt n with
    | Some ms when ms >= 0 -> (Some ms, List.rev_append acc rest)
    | Some _ | None ->
      prerr_endline "kvs_server: --timeout-ms wants a non-negative integer";
      usage ())
  | [ "--timeout-ms" ] ->
    prerr_endline "kvs_server: --timeout-ms wants a value";
    usage ()
  | a :: rest -> split_timeout (a :: acc) rest

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let timeout_ms, args = split_timeout [] args in
  let mode = match args with m :: _ -> m | [] -> "demo" in
  match mode with
  | "demo" -> demo ()
  | "repl" -> repl ?timeout_ms ()
  | _ -> usage ()
