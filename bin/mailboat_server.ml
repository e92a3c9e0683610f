(* mailboat_server: a demo driver for the Mailboat mail server with its
   SMTP and POP3 front ends.

   - `mailboat_server demo`  runs a scripted SMTP delivery followed by a
     POP3 retrieval and prints the dialogue;
   - `mailboat_server smtp`  reads SMTP commands from stdin;
   - `mailboat_server pop3`  reads POP3 commands from stdin. *)

let demo () =
  let server = Mailboat.Server.create ~kind:Mailboat.Server.Mailboat_server ~users:4 () in
  let show who lines = List.iter (fun l -> Printf.printf "%s %s\n" who l) lines in
  print_endline "--- SMTP session ---";
  let smtp = Mailboat.Smtp.create server in
  show "S:" [ Mailboat.Smtp.banner ];
  List.iter
    (fun line ->
      Printf.printf "C: %s\n" line;
      show "S:" (Mailboat.Smtp.input smtp line))
    [ "HELO example.org"; "MAIL FROM:<alice@example.org>"; "RCPT TO:<user2@mailboat>";
      "DATA"; "Subject: hello"; ""; "Grace under pressure."; "."; "QUIT" ];
  print_endline "--- POP3 session ---";
  let pop = Mailboat.Pop3.create server in
  show "S:" [ Mailboat.Pop3.banner ];
  List.iter
    (fun line ->
      Printf.printf "C: %s\n" line;
      show "S:" (Mailboat.Pop3.input pop line))
    [ "USER user2"; "PASS anything"; "STAT"; "LIST"; "RETR 1"; "DELE 1"; "QUIT" ];
  print_endline "--- crash + recovery ---";
  Mailboat.Server.crash server;
  Mailboat.Server.recover server;
  Printf.printf "spool after recovery: %d entries\n"
    (List.length (Gfs.Tmpfs.list_dir server.Mailboat.Server.fs "spool"))

let interact mk_input banner =
  let session_input = mk_input () in
  print_endline banner;
  try
    while true do
      let line = input_line stdin in
      List.iter print_endline (session_input line)
    done
  with End_of_file -> ()

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let mode = match args with m :: _ -> m | [] -> "demo" in
  match mode with
  | "demo" -> demo ()
  | "smtp" ->
    let server = Mailboat.Server.create ~kind:Mailboat.Server.Mailboat_server ~users:100 () in
    interact (fun () -> Mailboat.Smtp.input (Mailboat.Smtp.create server)) Mailboat.Smtp.banner
  | "pop3" ->
    let server = Mailboat.Server.create ~kind:Mailboat.Server.Mailboat_server ~users:100 () in
    interact (fun () -> Mailboat.Pop3.input (Mailboat.Pop3.create server)) Mailboat.Pop3.banner
  | _ ->
    prerr_endline "usage: mailboat_server [demo|smtp|pop3]";
    exit 2
