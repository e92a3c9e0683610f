(* The goose translator executable (§7): read a Go source file, check that
   it is within the Goose subset, and emit the Perennial (Coq-flavoured)
   model, exactly like the paper's `goose` tool.

   Usage: goose_cli FILE.go [--ast]
   (translate, or dump the AST) *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let dump_ast (file : Goose.Ast.file) =
  Printf.printf "package %s\n" file.package;
  List.iter (fun i -> Printf.printf "import %S\n" i) file.imports;
  List.iter
    (fun (s : Goose.Ast.struct_decl) ->
      Printf.printf "struct %s (%d fields)\n" s.sname (List.length s.sfields))
    file.structs;
  List.iter
    (fun (f : Goose.Ast.func_decl) ->
      Printf.printf "func %s/%d -> %s\n" f.fname (List.length f.params)
        (String.concat ", " (List.map (Fmt.to_to_string Goose.Ast.pp_typ) f.results)))
    file.funcs

let () =
  match List.tl (Array.to_list Sys.argv) with
  | path :: rest when List.for_all (String.equal "--ast") rest ->
    let src = read_file path in
    if List.mem "--ast" rest then (
      match Goose.Parser.parse_file src with
      | file ->
        Goose.Typecheck.check_file file;
        dump_ast file
      | exception Goose.Lexer.Lex_error { line; message } ->
        Printf.eprintf "%s:%d: lex error: %s\n" path line message;
        exit 1
      | exception Goose.Parser.Parse_error { line; message } ->
        Printf.eprintf "%s:%d: parse error: %s\n" path line message;
        exit 1)
    else (
      match Goose.Translate.translate src with
      | Ok coq -> print_string coq
      | Error e ->
        Printf.eprintf "%s: %s\n" path e;
        exit 1)
  | _ ->
    prerr_endline "usage: goose_cli FILE.go [--ast]";
    exit 2
