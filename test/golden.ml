(* Golden files under test/golden/.  The cwd is test/ under `dune runtest`
   but the project root under `dune exec test/test_main.exe`.
   GOLDEN_UPDATE=1 rewrites each golden from the run that produces it;
   only do that on a checker whose output is known good. *)

module R = Perennial_core.Refinement
module E = Perennial_core.Explore
module C = Perennial_catalog.Catalog

let update = Sys.getenv_opt "GOLDEN_UPDATE" <> None
let path file = Filename.concat (if Sys.file_exists "golden" then "golden" else "test/golden") file

(* The golden [file]; with GOLDEN_UPDATE set, [regen ()] rewrites it first. *)
let read ?regen file =
  let path = path file in
  (match regen with
  | Some regen when update ->
    let oc = open_out_bin path in
    output_string oc (regen ());
    close_out oc
  | _ -> ());
  if not (Sys.file_exists path) then Alcotest.failf "golden file %s not found" file;
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

(* A catalog instance's counterexample lanes match its golden under every
   strategy at each domain count ([None]: sequential), and its stats match
   across the parallel runs.  GOLDEN_UPDATE=1 regenerates the golden once,
   from naive at the first domain count.  [?naive] is the stem of naive's
   own golden, for an instance whose naive search reports a different
   representative of the same violation; the shared golden is then
   regenerated from dpor. *)
let lanes ?naive ?(domains = [ None ]) ?faults inst =
  let stem = Option.get (C.golden inst) in
  let tag s d =
    Printf.sprintf "%s under %s%s" stem (E.strategy_name s)
      (match d with None -> "" | Some d -> Printf.sprintf ", %d domains" d)
  in
  let render s d =
    match C.run ~strategy:s ?domains:d ?faults inst with
    | R.Refinement_violated (f, stats) -> (Fmt.str "%a" R.pp_failure_lanes f, stats)
    | r -> Alcotest.failf "%s: expected a violation, got %s" (tag s d) (R.verdict_name r)
  in
  let golden ~from stem =
    read ~regen:(fun () -> fst (render from (List.hd domains))) (stem ^ ".lanes.txt")
  in
  let shared = golden ~from:(if naive = None then E.Naive else E.Dpor) stem in
  List.iter
    (fun s ->
      let want =
        match (s, naive) with E.Naive, Some n -> golden ~from:E.Naive n | _ -> shared
      in
      let parallel_stats =
        List.filter_map
          (fun d ->
            let lanes, stats = render s d in
            Alcotest.(check string) (tag s d ^ " lanes") want lanes;
            Option.map (fun _ -> stats) d)
          domains
      in
      match parallel_stats with
      | st :: rest ->
        List.iter
          (fun st' ->
            if st' <> st then
              Alcotest.failf "%s: stats differ across domain counts: %a vs %a" (tag s None)
                R.pp_stats st R.pp_stats st')
          rest
      | [] -> ())
    E.all_strategies
