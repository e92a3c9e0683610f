(* The verdict assertions every refinement test makes, written once. *)

module R = Perennial_core.Refinement

(* The stats of a check that must hold. *)
let holds name = function
  | R.Refinement_holds stats -> stats
  | R.Refinement_violated (f, _) -> Alcotest.failf "%s: %a" name R.pp_failure f
  | R.Budget_exhausted stats -> Alcotest.failf "%s: budget exhausted (%a)" name R.pp_stats stats

(* The counterexample of a check that must find a bug. *)
let violated name = function
  | R.Refinement_violated (f, _) -> f
  | R.Refinement_holds stats -> Alcotest.failf "%s: bug not caught (%a)" name R.pp_stats stats
  | R.Budget_exhausted stats -> Alcotest.failf "%s: budget exhausted (%a)" name R.pp_stats stats

(* [R.check cfg] must hold / must find a bug. *)
let check_holds name cfg = ignore (holds name (R.check cfg))
let check_violated name cfg = ignore (violated name (R.check cfg))
