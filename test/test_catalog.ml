(* Invariants of the instance catalog (lib/catalog): names are unique,
   every golden belongs to a seeded bug, and every instance but the
   network ones reaches its expected verdict under dpor+sleep.  The net
   group takes seconds per strategy; test_net and the net selection of
   perennial_check check it. *)

module E = Perennial_core.Explore
module C = Perennial_catalog.Catalog

let test_names_unique () =
  let names = List.map C.name C.all in
  List.iter
    (fun n ->
      if List.length (List.filter (String.equal n) names) > 1 then
        Alcotest.failf "catalog name %S is used twice" n)
    names

let test_goldens_expect_violation () =
  List.iter
    (fun i ->
      if C.golden i <> None && C.expect i <> C.Violated then
        Alcotest.failf "%s has a golden but does not expect a violation" (C.name i))
    C.all

let test_storage_verdicts () =
  List.iter
    (fun i -> if not (List.memq i C.net) then Test_explore.expect ~strategy:E.Dpor_sleep i)
    C.all

let suite =
  [ Alcotest.test_case "names are unique" `Quick test_names_unique;
    Alcotest.test_case "goldens expect a violation" `Quick test_goldens_expect_violation;
    Alcotest.test_case "storage instances reach their verdict (dpor+sleep)" `Quick
      test_storage_verdicts ]
