(** Law checkers for resource algebras.

    Coq proves these laws once and for all; here they are decidable
    per-element predicates, which the test suite quantifies over with qcheck
    and finite samples.  An instance that violates any law would make the
    separation logic built on it unsound, so these are the "machine-checked
    soundness" analogue for the camera layer. *)

module Make (M : Ra_intf.S) = struct
  let assoc a b c = M.equal (M.op a (M.op b c)) (M.op (M.op a b) c)
  let comm a b = M.equal (M.op a b) (M.op b a)

  (* Validity is down-closed: a composite being valid means each part is. *)
  let valid_op_l a b = (not (M.valid (M.op a b))) || M.valid a

  (* Core laws: the core is idempotent, absorbed by its element, and itself
     duplicable. *)
  let core_absorb a =
    match M.core a with None -> true | Some c -> M.equal (M.op c a) a

  let core_idem a =
    match M.core a with
    | None -> true
    | Some c -> (match M.core c with Some c' -> M.equal c c' | None -> false)

  let core_dup a =
    match M.core a with None -> true | Some c -> M.equal (M.op c c) c

  let all_laws a b c =
    assoc a b c && comm a b && valid_op_l a b && core_absorb a && core_idem a
    && core_dup a

  (** Check every law over a finite sample; returns the failing triple if
      any. *)
  let check_sample sample =
    let failure = ref None in
    List.iter
      (fun a ->
        List.iter
          (fun b ->
            List.iter
              (fun c -> if !failure = None && not (all_laws a b c) then failure := Some (a, b, c))
              sample)
          sample)
      sample;
    !failure
end

module Unital_laws (M : Ra_intf.UNITAL) = struct
  let unit_valid () = M.valid M.unit
  let unit_left a = M.equal (M.op M.unit a) a

  let unit_core () =
    match M.core M.unit with Some c -> M.equal c M.unit | None -> false
end
